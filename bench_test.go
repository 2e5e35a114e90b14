// Benchmarks for the performance side of the experiments in DESIGN.md §4 /
// EXPERIMENTS.md, one per architectural claim:
//
//	BenchmarkRuleEvaluation        E1/E4  one access-control decision vs rule count
//	BenchmarkEnforceSegment        E4     full query-path enforcement of one segment
//	BenchmarkQueryMergedVsUnmerged E2     range scans over optimized vs raw packet stores
//	BenchmarkUploadPipeline        E2     ingest throughput through the optimizer
//	BenchmarkDirectVsProxied       E3     store→consumer download, direct vs broker relay
//	BenchmarkContributorSearch     E5     broker search vs directory size
//	BenchmarkRuleAwareCollection   E6     phone-side collection filtering
//	BenchmarkRuleCodec             E7     Fig. 4 rule JSON round trip
//	BenchmarkBlobCodec             ablation: binary vs Fig. 5 JSON segment codecs
//	BenchmarkDependencyClosure     E8     decision incl. closure on a pathological rule set
//
// Kernel benchmarks live beside the code they time: BenchmarkDiskScan and
// BenchmarkReopen in internal/segstore (E12), BenchmarkIndexDecide and its
// linear/cold variants in internal/ruleindex (E14), BenchmarkEnforceTraced
// in internal/abstraction (tracing overhead).
//
// Run: go test -bench=. -benchmem .
package sensorsafe_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/auth"
	"sensorsafe/internal/broker"
	"sensorsafe/internal/core"
	"sensorsafe/internal/datastore"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/httpapi"
	"sensorsafe/internal/inference"
	"sensorsafe/internal/query"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/sensors"
	"sensorsafe/internal/storage"
	"sensorsafe/internal/timeutil"
	"sensorsafe/internal/wavesegment"
)

var benchStart = time.Date(2011, 2, 16, 8, 0, 0, 0, time.UTC)

// BenchmarkRuleEvaluation times one access-control decision against rule
// sets of increasing size (experiments E1/E4).
func BenchmarkRuleEvaluation(b *testing.B) {
	for _, n := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			engine, err := ruleEngine(n)
			if err != nil {
				b.Fatal(err)
			}
			req := probeRequest()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := engine.Decide(req)
				if d == nil {
					b.Fatal("nil decision")
				}
			}
		})
	}
}

// BenchmarkEnforceSegment times the full query path — boundary cutting,
// decisions, channel projection, abstraction — over one 60 s segment (E4).
func BenchmarkEnforceSegment(b *testing.B) {
	gc := geo.GridGeocoder{}
	for _, n := range []int{10, 100} {
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			engine, err := ruleEngine(n)
			if err != nil {
				b.Fatal(err)
			}
			seg := enforceSegment(60)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := abstraction.EnforceExplained(engine, "consumer-0", nil, seg, gc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchPackets builds a continuous 3-channel packet stream.
func benchPackets(packetSize, packets int) []*wavesegment.Segment {
	out := make([]*wavesegment.Segment, 0, packets)
	at := benchStart
	for p := 0; p < packets; p++ {
		seg := &wavesegment.Segment{
			Contributor: "bench", Start: at, Interval: 100 * time.Millisecond,
			Location: geo.Point{Lat: 34.07, Lon: -118.45},
			Channels: []string{wavesegment.ChannelECG, wavesegment.ChannelRespiration, wavesegment.ChannelSkinTemp},
		}
		for i := 0; i < packetSize; i++ {
			seg.Values = append(seg.Values, []float64{1, 2, 36.5})
		}
		out = append(out, seg)
		at = seg.EndTime()
	}
	return out
}

// BenchmarkQueryMergedVsUnmerged times half-hour range scans against a
// store loaded from 64-sample packets, raw vs optimized (E2).
func BenchmarkQueryMergedVsUnmerged(b *testing.B) {
	const packetSize = 64
	packets := benchPackets(packetSize, 1024) // ~1.8 h of data
	for _, optimized := range []bool{false, true} {
		name := "unmerged"
		// A one-packet cap keeps the store from joining raw packets.
		maxSamples := packetSize
		if optimized {
			name = "merged"
			maxSamples = wavesegment.DefaultMaxSamples
		}
		b.Run(name, func(b *testing.B) {
			st := storage.NewMemory(maxSamples)
			defer st.Close()
			segs := packets
			if optimized {
				var err error
				if segs, err = wavesegment.OptimizeAll(packets, wavesegment.DefaultMaxSamples); err != nil {
					b.Fatal(err)
				}
			}
			for _, s := range segs {
				if _, err := st.Put(s); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Count()), "records")
			window := 30 * time.Minute
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				from := benchStart.Add(time.Duration(i%60) * time.Minute)
				if _, err := st.ScanRefs(storage.Query{From: from, To: from.Add(window)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUploadPipeline times store ingest of 64-sample packets through
// validation, optimization, and the WAL-less memory store, whose Put
// extends the stream's tail (E2's write side). One op = one 16-packet
// upload batch.
func BenchmarkUploadPipeline(b *testing.B) {
	ctx := context.Background()
	svc, err := datastore.New(datastore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	contributor, err := svc.RegisterContributor("bench")
	if err != nil {
		b.Fatal(err)
	}
	batch := 16
	packets := benchPackets(64, batch*(1+1000000/batch)) // plenty
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * batch) % (len(packets) - batch)
		if _, err := svc.UploadCtx(ctx, contributor.Key, packets[lo:lo+batch]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(64*batch), "samples/op")
}

// BenchmarkDirectVsProxied times one full-store download over HTTP,
// directly vs relayed through a broker-side proxy (E3). One op = one
// store's complete download.
func BenchmarkDirectVsProxied(b *testing.B) {
	ctx := context.Background()
	// Build one store + relay inline for per-op timing.
	svc, err := datastore.New(datastore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	contributor, err := svc.RegisterContributor("bench")
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.SetRules(contributor.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		b.Fatal(err)
	}
	if _, err := svc.UploadCtx(ctx, contributor.Key, benchPackets(64, 64)); err != nil { // ~7 min of data
		b.Fatal(err)
	}
	consumer, err := svc.RegisterConsumer("bob")
	if err != nil {
		b.Fatal(err)
	}

	storeSrv, relaySrv := newBenchServers(svc, consumer.Key)
	defer storeSrv.Close()
	defer relaySrv.Close()

	client := &http.Client{Timeout: time.Minute}
	body, _ := json.Marshal(map[string]any{"key": consumer.Key, "query": &query.Query{}})

	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := benchPost(client, storeSrv.URL+"/api/query", body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("proxied", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := benchPost(client, relaySrv.URL, body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkContributorSearch times the paper's §5.2 example search against
// replicated rule sets (E5).
func BenchmarkContributorSearch(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("contributors=%d", n), func(b *testing.B) {
			svc, key, err := searchBroker(n, 5)
			if err != nil {
				b.Fatal(err)
			}
			q := searchQuery()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.SearchCtx(ctx, key, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRuleAwareCollection times the phone's per-recording processing
// — inference, annotation, and §5.3 collection decisions — with and
// without rule-aware mode (E6). One op = one 4-minute recording.
func BenchmarkRuleAwareCollection(b *testing.B) {
	ctx := context.Background()
	day := &sensors.Scenario{
		Start: benchStart, Origin: geo.Point{Lat: 34.025, Lon: -118.495}, Seed: 5,
		Phases: []sensors.Phase{
			{Duration: 2 * time.Minute, Activity: rules.CtxStill},
			{Duration: 2 * time.Minute, Activity: rules.CtxDrive, Heading: 90},
		},
	}
	rec, err := sensors.Generate("alice", day)
	if err != nil {
		b.Fatal(err)
	}
	for _, aware := range []bool{false, true} {
		name := "collect-all"
		if aware {
			name = "rule-aware"
		}
		b.Run(name, func(b *testing.B) {
			net := core.NewNetwork()
			defer net.Close()
			if _, err := net.AddStore("s", ""); err != nil {
				b.Fatal(err)
			}
			alice, err := net.NewContributor("s", "alice")
			if err != nil {
				b.Fatal(err)
			}
			if err := alice.SetRules(`[{"Action":"Allow"},{"Context":["Drive"],"Action":"Deny"}]`); err != nil {
				b.Fatal(err)
			}
			p := alice.Phone(aware)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.ProcessCtx(ctx, cloneRecording(rec)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRuleCodec times the Fig. 4 JSON round trip (E7).
func BenchmarkRuleCodec(b *testing.B) {
	ruleJSON := []byte(`[
	  { "Consumer": ["Bob"], "LocationLabel": ["UCLA"], "Action": "Allow" },
	  { "Consumer": ["Bob"], "LocationLabel": ["UCLA"],
	    "RepeatTime": { "Day": ["Mon","Tue","Wed","Thu","Fri"], "HourMin": ["9:00am","6:00pm"]},
	    "Context": ["Conversation"],
	    "Action": { "Abstraction": { "Stress": "NotShared" } } }
	]`)
	b.Run("unmarshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rules.UnmarshalRuleSet(ruleJSON); err != nil {
				b.Fatal(err)
			}
		}
	})
	rs, err := rules.UnmarshalRuleSet(ruleJSON)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rules.MarshalRuleSet(rs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBlobCodec compares the storage engine's binary blob codec with
// the Fig. 5 JSON codec (design-choice ablation from DESIGN.md §5).
func BenchmarkBlobCodec(b *testing.B) {
	seg := benchPackets(4096, 1)[0]
	b.Run("binary/marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wavesegment.MarshalBinary(seg); err != nil {
				b.Fatal(err)
			}
		}
	})
	blob, err := wavesegment.MarshalBinary(seg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("binary/unmarshal", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			if _, err := wavesegment.UnmarshalBinary(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json/marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wavesegment.MarshalJSONSegment(seg); err != nil {
				b.Fatal(err)
			}
		}
	})
	js, err := wavesegment.MarshalJSONSegment(seg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("json/unmarshal", func(b *testing.B) {
		b.SetBytes(int64(len(js)))
		for i := 0; i < b.N; i++ {
			if _, err := wavesegment.UnmarshalJSONSegment(js); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDependencyClosure times decisions on a rule set that maximally
// exercises the sensor/context closure (E8).
func BenchmarkDependencyClosure(b *testing.B) {
	rs, err := rules.UnmarshalRuleSet([]byte(`[
	  {"Action":"Allow"},
	  {"Action":{"Abstraction":{"Smoking":"NotShared"}}},
	  {"Action":{"Abstraction":{"Activity":"Move/Not Move"}}},
	  {"Action":{"Abstraction":{"Location":"City"}}}
	]`))
	if err != nil {
		b.Fatal(err)
	}
	engine, err := rules.NewEngine(rs, nil)
	if err != nil {
		b.Fatal(err)
	}
	req := probeRequest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := engine.Decide(req)
		if d.ChannelShared(wavesegment.ChannelRespiration) {
			b.Fatal("closure failed")
		}
	}
}

// BenchmarkPhoneInference times windowed context inference over one
// 4-minute recording (the substrate behind E6).
func BenchmarkPhoneInference(b *testing.B) {
	day := &sensors.Scenario{
		Start: benchStart, Origin: geo.Point{Lat: 34.025, Lon: -118.495}, Seed: 5,
		Phases: []sensors.Phase{
			{Duration: 2 * time.Minute, Activity: rules.CtxWalk, Heading: 45, Conversation: true},
			{Duration: 2 * time.Minute, Activity: rules.CtxDrive, Heading: 90, Stressed: true},
		},
	}
	rec, err := sensors.Generate("alice", day)
	if err != nil {
		b.Fatal(err)
	}
	segs := rec.AllSegments()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ann := &inference.Annotator{}
		if n := len(ann.Annotate(segs)); n == 0 {
			b.Fatal("no annotations")
		}
	}
}

// --- helpers ---

// The fixture coordinates and weekday window are constants, so their
// constructors cannot fail.
var (
	benchCampus      = geo.Point{Lat: 34.0689, Lon: -118.4452}
	benchWorkRect, _ = geo.NewRect(geo.Point{Lat: 34.05, Lon: -118.46}, geo.Point{Lat: 34.08, Lon: -118.43})
	benchWeekdays, _ = timeutil.ParseRepeated([]string{"Mon", "Tue", "Wed", "Thu", "Fri"}, []string{"9:00am", "6:00pm"})
)

// mixedRules builds a realistic rule set of n rules for n distinct
// consumers: allows, weekday-scoped stress abstractions, context denies,
// and location-scoped sensor allows, in rotation.
func mixedRules(n int) []*rules.Rule {
	out := make([]*rules.Rule, 0, n)
	for i := 0; i < n; i++ {
		r := &rules.Rule{Consumers: []string{fmt.Sprintf("consumer-%d", i)}}
		switch i % 4 {
		case 0:
			r.ID, r.Action = fmt.Sprintf("allow-%d", i), rules.Allow()
		case 1:
			r.ID, r.RepeatTimes = fmt.Sprintf("abs-%d", i), []timeutil.Repeated{benchWeekdays}
			r.Action = rules.Abstract(rules.AbstractionSpec{
				Contexts: map[rules.Category]rules.Level{rules.CategoryStress: rules.LevelBinary},
			})
		case 2:
			r.ID, r.Contexts, r.Action = fmt.Sprintf("deny-%d", i), []string{rules.CtxDrive}, rules.Deny()
		default:
			r.ID, r.LocationLabels = fmt.Sprintf("loc-%d", i), []string{"work"}
			r.Sensors, r.Action = rules.ExpandSensorNames([]string{"Accelerometer"}), rules.Allow()
		}
		out = append(out, r)
	}
	return out
}

// ruleEngine compiles mixedRules(n) against a gazetteer defining "work".
func ruleEngine(n int) (*rules.Engine, error) {
	gaz := geo.NewGazetteer()
	if err := gaz.Define("work", geo.Region{Rect: benchWorkRect}); err != nil {
		return nil, err
	}
	return rules.NewEngine(mixedRules(n), gaz)
}

// probeRequest is consumer-0 at work on a Wednesday morning, walking and
// in conversation.
func probeRequest() *rules.Request {
	return &rules.Request{
		Consumer:       "consumer-0",
		At:             time.Date(2011, 2, 16, 10, 0, 0, 0, time.UTC),
		Location:       benchCampus,
		ActiveContexts: []string{rules.CtxWalk, rules.CtxConversation},
	}
}

// enforceSegment is a 10 Hz, 3-channel segment of the given length with
// overlapping walk and conversation annotations, so enforcement cuts it at
// several context boundaries.
func enforceSegment(seconds int) *wavesegment.Segment {
	start := time.Date(2011, 2, 16, 10, 0, 0, 0, time.UTC)
	seg := &wavesegment.Segment{
		Contributor: "alice", Start: start, Interval: 100 * time.Millisecond,
		Location: benchCampus,
		Channels: []string{wavesegment.ChannelECG, wavesegment.ChannelRespiration, wavesegment.ChannelAccelX},
	}
	for i := 0; i < seconds*10; i++ {
		seg.Values = append(seg.Values, []float64{float64(i), float64(i) / 2, 0.01})
	}
	sec := func(n int) time.Time { return start.Add(time.Duration(n) * time.Second) }
	if err := seg.Annotate(rules.CtxWalk, start, sec(seconds/2)); err != nil {
		panic(err)
	}
	if err := seg.Annotate(rules.CtxConversation, sec(seconds/4), sec(3*seconds/4)); err != nil {
		panic(err)
	}
	return seg
}

// searchBroker builds a broker with n contributors of k rules each; every
// third contributor shares everything (the paper's search example), the
// rest hide stress at "work".
func searchBroker(n, k int) (*broker.Service, auth.APIKey, error) {
	ctx := context.Background()
	b := broker.New()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("p%05d", i)
		if err := b.RegisterContributor(ctx, name, "store-"+name); err != nil {
			return nil, "", err
		}
		rs := append(mixedRules(k-1), &rules.Rule{ID: "share-all", Action: rules.Allow()})
		if i%3 != 0 {
			rs = append(rs, &rules.Rule{ID: "hide-stress-at-work",
				LocationLabels: []string{"work"},
				Action: rules.Abstract(rules.AbstractionSpec{
					Contexts: map[rules.Category]rules.Level{rules.CategoryStress: rules.LevelNotShared},
				})})
		}
		data, err := rules.MarshalRuleSet(rs)
		if err != nil {
			return nil, "", err
		}
		if err := b.SyncRules(ctx, name, 1, data, []geo.Region{{Label: "work", Rect: benchWorkRect}}); err != nil {
			return nil, "", err
		}
	}
	bob, err := b.RegisterConsumer("bob")
	if err != nil {
		return nil, "", err
	}
	return b, bob.Key, nil
}

// searchQuery is the paper's §5.2 example search: who shares
// ECG+Respiration raw at "work" on weekday business hours?
func searchQuery() *broker.SearchQuery {
	return &broker.SearchQuery{
		Sensors:       []string{"ECG", "Respiration"},
		LocationLabel: "work",
		RepeatTime:    benchWeekdays,
		Reference:     benchStart,
	}
}

func benchPost(client *http.Client, url string, body []byte) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d from %s", resp.StatusCode, url)
	}
	return nil
}

// newBenchServers starts a store HTTP server and a relay proxying whole
// downloads through one extra hop (the E3 strawman).
func newBenchServers(svc *datastore.Service, key auth.APIKey) (store, relay *httptest.Server) {
	ctx := context.Background()
	store = httptest.NewServer(httpapi.NewStoreHandler(svc))
	sc := &httpapi.StoreClient{BaseURL: store.URL}
	relay = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rels, err := sc.QueryCtx(ctx, key, &query.Query{})
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(rels)
	}))
	return store, relay
}

// cloneRecording deep-copies segments so repeated phone processing does not
// accumulate annotations.
func cloneRecording(rec *sensors.Recording) *sensors.Recording {
	out := &sensors.Recording{Truth: rec.Truth, Path: rec.Path}
	for _, s := range rec.ChestBand {
		out.ChestBand = append(out.ChestBand, s.Clone())
	}
	for _, s := range rec.Phone {
		out.Phone = append(out.Phone, s.Clone())
	}
	return out
}
