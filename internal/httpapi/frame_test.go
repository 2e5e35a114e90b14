package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/binwire"
	"sensorsafe/internal/datastore"
	"sensorsafe/internal/overload"
	"sensorsafe/internal/query"
	"sensorsafe/internal/resilience"
	"sensorsafe/internal/stream"
	"sensorsafe/internal/wavesegment"
)

// sameValue is reflect.DeepEqual except that times compare with Equal
// (a JSON body keeps each time's zone, a frame carries the instant) and
// floats compare by their bits, so -0 and 0 differ.
func sameValue(a, b reflect.Value) bool { return equalValues(a, b, false) }

// sameJSONValue is sameValue for a value read back from JSON, where
// omitempty writes an empty list as no list: a nil and an empty slice
// are the same.
func sameJSONValue(a, b reflect.Value) bool { return equalValues(a, b, true) }

func equalValues(a, b reflect.Value, emptyIsNil bool) bool {
	if a.Type() != b.Type() {
		return false
	}
	if a.Type() == reflect.TypeOf(time.Time{}) {
		return a.Interface().(time.Time).Equal(b.Interface().(time.Time))
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return equalValues(a.Elem(), b.Elem(), emptyIsNil)
	case reflect.Slice:
		if (a.IsNil() != b.IsNil() && !emptyIsNil) || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equalValues(a.Index(i), b.Index(i), emptyIsNil) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !equalValues(a.Field(i), b.Field(i), emptyIsNil) {
				return false
			}
		}
		return true
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.String:
		return a.String() == b.String()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	}
	panic(fmt.Sprintf("equalValues: unhandled kind %s", a.Kind()))
}

// frameRoundTrip encodes x as a frame, decodes the frame into a fresh
// value of x's type and requires the two to be the same value.
func frameRoundTrip[T any, PT interface {
	*T
	binDecoder
}](t *testing.T, what string, x T) {
	t.Helper()
	frame, err := any(x).(binAppender).AppendBinary(nil)
	if err != nil {
		t.Fatalf("%s: encode: %v", what, err)
	}
	var got T
	if err := PT(&got).DecodeBinary(frame); err != nil {
		t.Fatalf("%s: decode: %v", what, err)
	}
	if !sameValue(reflect.ValueOf(got), reflect.ValueOf(x)) {
		t.Errorf("%s: frame round trip changed the value", what)
	}
}

// TestFrameCorpusRoundTrip is the differential test of the binary bodies:
// every document of the Fig. 5 corpus, decoded from its JSON, survives a
// frame round trip unchanged, as an upload, a query answer, an owner's
// answer and a stream batch.
func TestFrameCorpusRoundTrip(t *testing.T) {
	var segs []*wavesegment.Segment
	for i, line := range fig5Lines(t, "segments.jsonl") {
		s, err := wavesegment.UnmarshalJSONSegment(line)
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		segs = append(segs, s)
		frameRoundTrip(t, fmt.Sprintf("upload of segment %d", i), uploadReq{Key: "k", Segments: []*wavesegment.Segment{s}})
	}
	frameRoundTrip(t, "upload of the corpus", uploadReq{Key: "key", Segments: segs})
	frameRoundTrip(t, "upload with a nil segment", uploadReq{Segments: []*wavesegment.Segment{nil, segs[0]}})
	frameRoundTrip(t, "empty upload", uploadReq{Segments: []*wavesegment.Segment{}})
	frameRoundTrip(t, "owner's answer", queryOwnResp{Segments: segs})

	var batch stream.Batch
	for i, line := range fig5Lines(t, "query.jsonl") {
		var x queryResp
		if err := json.Unmarshal(line, &x); err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		frameRoundTrip(t, fmt.Sprintf("query body %d", i), x)
		batch.Events = append(batch.Events, stream.Event{
			Kind: stream.KindData, Seq: uint64(i + 1), Cursor: fmt.Sprint(i + 1),
			Contributor: "alice", RuleVersion: uint64(i), Releases: x.Releases,
		})
	}
	batch.Events = append(batch.Events, stream.Event{Kind: stream.KindGap, Dropped: 7}, stream.Event{Kind: stream.KindBye})
	batch.Cursor = "99"
	frameRoundTrip(t, "stream batch", batch)
	frameRoundTrip(t, "empty stream batch", stream.Batch{})
}

// TestUntypedCallerGetsFig5JSON writes every corpus body the way post
// answers a caller: without Accept, or with Accept naming only JSON, it
// is the golden Fig. 5 bytes; only Accept naming the frame gets a frame.
func TestUntypedCallerGetsFig5JSON(t *testing.T) {
	_, bodies := fig5Corpus()
	lines := fig5Lines(t, "query.jsonl")
	for i, body := range bodies {
		for _, accept := range []string{"", "application/json", "*/*"} {
			req := httptest.NewRequest(http.MethodPost, "/api/query", nil)
			if accept != "" {
				req.Header.Set("Accept", accept)
			}
			rec := httptest.NewRecorder()
			writeResp(rec, req, body)
			if got := rec.Body.Bytes(); !bytes.Equal(got, lines[i]) {
				t.Errorf("body %d, Accept %q:\n got %s\nwant %s", i, accept, got, lines[i])
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("body %d, Accept %q: Content-Type %q", i, accept, ct)
			}
		}
		req := httptest.NewRequest(http.MethodPost, "/api/query", nil)
		req.Header.Set("Accept", "application/json;q=0.5, "+binwire.MediaType)
		rec := httptest.NewRecorder()
		writeResp(rec, req, body)
		want, err := body.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if ct := rec.Header().Get("Content-Type"); ct != binwire.MediaType || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("body %d with the frame accepted: Content-Type %q, %d bytes, want %d", i, ct, rec.Body.Len(), len(want))
		}
	}
}

// headerLog records, per path, the request's Content-Type and Accept and
// the answer's Content-Type of every call through it.
type headerLog struct {
	mu   sync.Mutex
	seen map[string][3]string
}

func (l *headerLog) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		l.mu.Lock()
		l.seen[req.URL.Path] = [3]string{req.Header.Get("Content-Type"), req.Header.Get("Accept"), resp.Header.Get("Content-Type")}
		l.mu.Unlock()
	}
	return resp, err
}

// TestTypedClientsNegotiateFrames drives the sample-carrying routes with
// the typed client and checks the headers on the wire: uploads go out as
// frames, query, queryown and stream answers come back as frames, and
// everything else stays JSON. A plain JSON upload and query still work.
func TestTypedClientsNegotiateFrames(t *testing.T) {
	ctx := context.Background()
	d := deploy(t)
	log := &headerLog{seen: map[string][3]string{}}
	sc := &StoreClient{BaseURL: d.storeClient.BaseURL, HTTP: &http.Client{Transport: log, Timeout: 30 * time.Second}}
	alice, err := sc.RegisterCtx(ctx, "alice", "contributor")
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.SetRulesCtx(ctx, alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	bob, err := sc.RegisterCtx(ctx, "Bob", "consumer")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := sc.SubscribeCtx(ctx, bob.Key, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	pkt := streamPacket(t0, 8)
	if n, err := sc.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{pkt}); err != nil || n != 1 {
		t.Fatalf("binary upload: %d records, %v", n, err)
	}
	rels, err := sc.QueryCtx(ctx, bob.Key, &query.Query{})
	if err != nil || len(rels) != 1 || rels[0].Segment.NumSamples() != 8 {
		t.Fatalf("query: %v, %v", rels, err)
	}
	own, err := sc.QueryOwnCtx(ctx, alice.Key, &query.Query{})
	if err != nil || len(own) != 1 || !sameValue(reflect.ValueOf(own[0].Values), reflect.ValueOf(pkt.Values)) {
		t.Fatalf("queryown: %v, %v", own, err)
	}
	batch, err := sc.NextCtx(ctx, bob.Key, sub.ID, "", 5*time.Second)
	if err != nil || len(batch.Events) != 1 || len(batch.Events[0].Releases) != 1 {
		t.Fatalf("stream next: %+v, %v", batch, err)
	}

	frame, js := binwire.MediaType, "application/json"
	for path, want := range map[string][3]string{
		"/api/upload":      {frame, "", js},
		"/api/query":       {js, frame, frame},
		"/api/queryown":    {js, frame, frame},
		"/api/stream/next": {js, frame, frame},
		"/api/rules/set":   {js, "", js},
		"/api/register":    {js, "", js},
	} {
		if got := log.seen[path]; got != want {
			t.Errorf("%s: request Content-Type, Accept, answer Content-Type = %q, want %q", path, got, want)
		}
	}

	// An untyped caller: JSON in, JSON out.
	upload := `{"key":"` + string(alice.Key) + `","segments":[{"contributor":"alice","start_time":"2011-02-16T09:00:00Z","interval_ms":1000,"format":["ECG"],"data":[[1],[2]]}]}`
	resp, body := rawPost(t, sc.BaseURL+"/api/upload", "application/json", "", []byte(upload))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != js || string(body) != "{\"records\":1}\n" {
		t.Errorf("JSON upload: HTTP %d %q %s", resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	resp, body = rawPost(t, sc.BaseURL+"/api/query", "application/json", "", []byte(`{"key":"`+string(bob.Key)+`"}`))
	var qr queryResp
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != js || json.Unmarshal(body, &qr) != nil || len(qr.Releases) != 2 {
		t.Errorf("JSON query: HTTP %d %q %s", resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
}

func rawPost(t *testing.T, url, contentType, accept string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestBadUploadFramesAnswer400 sends upload frames that carry a NaN, a
// hostile count, a truncation or trailing bytes: each is refused with a
// 400 and the JSON error envelope, and nothing is stored.
func TestBadUploadFramesAnswer400(t *testing.T) {
	ctx := context.Background()
	d := deploy(t)
	alice, err := d.storeClient.RegisterCtx(ctx, "alice", "contributor")
	if err != nil {
		t.Fatal(err)
	}
	good, err := uploadReq{Key: alice.Key, Segments: []*wavesegment.Segment{streamPacket(t0, 4)}}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	nan := streamPacket(t0, 4)
	nanFrame := binwire.AppendString(nil, string(alice.Key))
	nanFrame = append(nanFrame, 2, 1) // one segment, present
	if nanFrame, err = nan.AppendBinary(nanFrame); err != nil {
		t.Fatal(err)
	}
	// The first sample is the last 8 bytes before the annotation count.
	copy(nanFrame[len(nanFrame)-1-4*8:], binwire.AppendFloat64(nil, math.NaN()))
	hostile := append(binwire.AppendString(nil, string(alice.Key)), 0xff, 0xff, 0xff, 0xff, 0x0f)

	for _, tc := range []struct {
		name, why string
		body      []byte
	}{
		{"NaN sample", "non-finite", nanFrame},
		{"hostile count", "exceeds", hostile},
		{"truncated samples", "exceeds", good[:len(good)-5]},
		{"truncated tail", "bad uvarint", good[:len(good)-1]},
		{"trailing bytes", "trailing", append(append([]byte(nil), good...), 0)},
		{"JSON as frame", "overruns", []byte(`{"key":"` + string(alice.Key) + `","segments":[]}`)},
	} {
		resp, data := rawPost(t, d.storeClient.BaseURL+"/api/upload", binwire.MediaType, "", tc.body)
		var eb errorBody
		if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("Content-Type") != "application/json" ||
			json.Unmarshal(data, &eb) != nil || !strings.Contains(eb.Error, "bad request frame") || !strings.Contains(eb.Error, tc.why) {
			t.Errorf("%s: HTTP %d %q %s, want 400 with a JSON envelope naming %q", tc.name, resp.StatusCode, resp.Header.Get("Content-Type"), data, tc.why)
		}
	}
	if n, err := d.storeSvc.QueryOwn(alice.Key, &query.Query{}); err != nil || len(n) != 0 {
		t.Fatalf("refused frames stored %d segments (%v)", len(n), err)
	}
	resp, data := rawPost(t, d.storeClient.BaseURL+"/api/upload", binwire.MediaType, "", good)
	if resp.StatusCode != http.StatusOK || string(data) != "{\"records\":1}\n" {
		t.Errorf("good frame: HTTP %d %s", resp.StatusCode, data)
	}
}

// TestEncodeFailureAnswers500 serves a release whose segment holds a NaN,
// which neither encoding can carry: the answer is a 500 with the JSON
// envelope, never an empty 200, and the typed client reports the
// server's error.
func TestEncodeFailureAnswers500(t *testing.T) {
	seg := streamPacket(t0, 2)
	seg.Values[1][0] = math.NaN()
	a := newAPI("store", overload.NewController(overload.StoreDefaults()))
	storeQuery.mount(a, func(context.Context, *queryReq) (queryResp, error) {
		return queryResp{Releases: []*abstraction.Release{{Segment: seg}}}, nil
	})
	srv := httptest.NewServer(a.handler())
	t.Cleanup(srv.Close)

	for _, accept := range []string{"", binwire.MediaType} {
		resp, data := rawPost(t, srv.URL+"/api/query", "application/json", accept, []byte(`{}`))
		var eb errorBody
		if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get("Content-Type") != "application/json" ||
			json.Unmarshal(data, &eb) != nil || !strings.Contains(eb.Error, "encode response") {
			t.Errorf("Accept %q: HTTP %d %q %q, want 500 with the JSON envelope", accept, resp.StatusCode, resp.Header.Get("Content-Type"), data)
		}
	}
	c := &StoreClient{BaseURL: srv.URL, Retry: &resilience.Policy{MaxAttempts: 1}}
	if _, err := c.QueryCtx(context.Background(), "k", &query.Query{}); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("typed client: error %v, want the server's encode error", err)
	}
}

// TestSetRulesBoundsBrokerPush points a store at a broker that never
// answers: SetRules returns within the push deadline, not after the retry
// policy's whole course, and the new rules are in effect.
func TestSetRulesBoundsBrokerPush(t *testing.T) {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(hung.Close)
	t.Cleanup(func() { close(release) })
	svc, err := datastore.New(datastore.Options{Sync: &BrokerClient{BaseURL: hung.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	alice, err := svc.RegisterContributor("alice")
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	if err := svc.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(begin); took >= 10*time.Second {
		t.Errorf("SetRules took %v against a broker that never answers", took)
	}
	st, err := svc.Policy(alice.Key)
	if err != nil || st.RuleVersion != 1 || !strings.Contains(string(st.Rules), "Allow") {
		t.Errorf("policy after SetRules: %+v, %v", st, err)
	}
}

// checkFrameStable decodes data as a T and, when that succeeds, requires
// the value to re-encode and decode to the same value and the same
// bytes: decode → encode → decode is stable.
func checkFrameStable[T any, PT interface {
	*T
	binDecoder
}](t *testing.T, data []byte) {
	var first T
	if PT(&first).DecodeBinary(data) != nil {
		return
	}
	out, err := any(first).(binAppender).AppendBinary(nil)
	if err != nil {
		t.Fatalf("decoded value does not re-encode: %v", err)
	}
	var second T
	if err := PT(&second).DecodeBinary(out); err != nil {
		t.Fatalf("re-encoded frame does not decode: %v", err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("round trip changed %+v into %+v", first, second)
	}
	again, err := any(second).(binAppender).AppendBinary(nil)
	if err != nil || !bytes.Equal(again, out) {
		t.Fatalf("re-encoding is not stable (%v)", err)
	}
}

// addFrameSeeds seeds f with the frames enc makes of the corpus, cut
// short and whole.
func addFrameSeeds(f *testing.F, enc func([]*wavesegment.Segment, []queryResp) [][]byte) {
	segs, bodies := fig5Corpus()
	for _, frame := range enc(segs, bodies) {
		if len(frame) < 1200 { // small seeds keep minimization quick
			f.Add(frame)
			f.Add(frame[:len(frame)/2])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
}

// FuzzUploadFrame: the upload frame decoder never panics, and what it
// accepts round-trips stably.
func FuzzUploadFrame(f *testing.F) {
	addFrameSeeds(f, func(segs []*wavesegment.Segment, _ []queryResp) (out [][]byte) {
		for _, s := range segs {
			frame, err := uploadReq{Key: "k", Segments: []*wavesegment.Segment{s, nil}}.AppendBinary(nil)
			if err != nil {
				f.Fatal(err)
			}
			out = append(out, frame)
		}
		return out
	})
	f.Fuzz(checkFrameStable[uploadReq])
}

// FuzzQueryFrame: the /api/query frame decoder never panics, and what it
// accepts round-trips stably.
func FuzzQueryFrame(f *testing.F) {
	addFrameSeeds(f, func(_ []*wavesegment.Segment, bodies []queryResp) (out [][]byte) {
		for _, body := range bodies {
			frame, err := body.AppendBinary(nil)
			if err != nil {
				f.Fatal(err)
			}
			out = append(out, frame)
		}
		return out
	})
	f.Fuzz(checkFrameStable[queryResp])
}
