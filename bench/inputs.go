package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/inference"
	"sensorsafe/internal/query"
	"sensorsafe/internal/sensors"
	"sensorsafe/internal/wavesegment"
)

// Everything the servers receive is made here, from the seed, before any
// clock starts: annotated packets, rule sets, and op lists.

const (
	batchPackets = 16 // packets per upload batch: 8 chest-band + 8 phone
	// fixtureContributors hold one session each in the store the query
	// workloads read; contributor i gets ruleSetNames[i%4].
	fixtureContributors = 4
	// bulkContributors are the accounts ingest_bulk writes to, half per phone.
	bulkContributors = 8
	pointWindow      = time.Minute
	rangeWindow      = 30 * time.Minute
)

// sessionStart is a Monday 09:30 UTC so that the fig4 rule's weekday
// 9am-6pm window holds during the scripted conversation.
var sessionStart = time.Date(2011, 2, 14, 9, 30, 0, 0, time.UTC)

// campus is where every session starts; the fig4 rule set labels a region
// around it "UCLA".
var campus = geo.Point{Lat: 34.0689, Lon: -118.4452}

var ruleSetNames = [4]string{"allow", "fig4", "wide", "deny"}

// span locates one packet on the time axis for expected-count arithmetic.
type span struct {
	start    time.Time
	interval time.Duration
	rows     int
}

// session is one scripted sensors.DayInTheLife recording (scale 1: 66 min
// at 10 Hz in 64-sample packets, chest band and phone interleaved), run
// through the phone-side annotator. Packets carry no contributor name: the
// store fills in the uploading key's owner, so one session can be uploaded
// for any contributor.
type session struct {
	packets []*wavesegment.Segment
	spans   []span // one per packet, sorted by start
	rows    int
	length  time.Duration
}

func newSession(seed int64) (*session, error) {
	sc := sensors.DayInTheLife(sessionStart, campus, 1)
	sc.Seed = seed
	rec, err := sensors.Generate("", sc)
	if err != nil {
		return nil, err
	}
	s := &session{packets: rec.AllSegments(), length: sc.Duration()}
	ann := &inference.Annotator{}
	inference.ApplyAnnotations(s.packets, ann.Annotate(s.packets))
	for _, p := range s.packets {
		s.spans = append(s.spans, span{p.Start, p.Interval, p.NumSamples()})
		s.rows += p.NumSamples()
	}
	return s, nil
}

func (s *session) batches() int { return (len(s.packets) + batchPackets - 1) / batchPackets }

// batch returns upload batch b shifted later by d. Shifted packets are
// shallow copies that share the sample values with the session.
func (s *session) batch(b int, d time.Duration) []*wavesegment.Segment {
	lo, hi := b*batchPackets, (b+1)*batchPackets
	if hi > len(s.packets) {
		hi = len(s.packets)
	}
	if d == 0 {
		return s.packets[lo:hi]
	}
	out := make([]*wavesegment.Segment, hi-lo)
	for i, p := range s.packets[lo:hi] {
		c := *p
		c.Start = p.Start.Add(d)
		c.Annotations = make([]wavesegment.Annotation, len(p.Annotations))
		for j, a := range p.Annotations {
			c.Annotations[j] = wavesegment.Annotation{Context: a.Context, Start: a.Start.Add(d), End: a.End.Add(d)}
		}
		out[i] = &c
	}
	return out
}

// batchRows counts the sample rows in batch b.
func (s *session) batchRows(b int) int {
	n := 0
	for _, p := range s.batch(b, 0) {
		n += p.NumSamples()
	}
	return n
}

// rowsIn counts the sample rows of the first upTo packets whose instants
// fall in [from, to), the window Segment.Slice releases.
func (s *session) rowsIn(from, to time.Time, upTo int) int {
	n := 0
	for _, sp := range s.spans[:upTo] {
		lo, hi := ceilDiv(from.Sub(sp.start), sp.interval), ceilDiv(to.Sub(sp.start), sp.interval)
		if lo < 0 {
			lo = 0
		}
		if hi > sp.rows {
			hi = sp.rows
		}
		if hi > lo {
			n += hi - lo
		}
	}
	return n
}

func ceilDiv(d, by time.Duration) int {
	if d <= 0 {
		return 0
	}
	return int((d + by - 1) / by)
}

// inputs is everything one run needs, made from the seed.
type inputs struct {
	seed     int64
	sessions [fixtureContributors]*session
	rules    [4][]byte // Fig. 4 JSON per ruleSetNames entry
	place    geo.Region
}

func newInputs(seed int64) (*inputs, error) {
	in := &inputs{seed: seed}
	for i := range in.sessions {
		s, err := newSession(seed*16 + int64(i))
		if err != nil {
			return nil, err
		}
		in.sessions[i] = s
	}
	rect, err := geo.NewRect(geo.Point{Lat: campus.Lat - 0.5, Lon: campus.Lon - 0.5},
		geo.Point{Lat: campus.Lat + 0.5, Lon: campus.Lon + 0.5})
	if err != nil {
		return nil, err
	}
	in.place = geo.Region{Label: "UCLA", Rect: rect}
	for i, name := range ruleSetNames {
		if in.rules[i], err = json.Marshal(ruleSet(name)); err != nil {
			return nil, err
		}
	}
	return in, nil
}

type ruleDoc map[string]any

// agerRule lets carol, the consumer that ages the audit trail, receive
// binary activity labels and nothing else, so that one whole-range query
// records one small audit event per packet.
var agerRule = ruleDoc{"Consumer": []string{"carol"}, "Action": ruleDoc{"Abstraction": ruleDoc{"Activity": "Binary"}}}

// ruleSet builds the named rule set. bob is the consumer the rules name;
// eve is named by none.
func ruleSet(name string) []ruleDoc {
	switch name {
	case "allow":
		return []ruleDoc{{"Consumer": []string{"bob"}, "Action": "Allow"}, agerRule}
	case "fig4":
		// The paper's Fig. 4: at the labeled place, in the weekday window,
		// while in conversation, stress is not shared, so the dependency
		// closure also withholds the raw ECG and respiration it is inferred from.
		return []ruleDoc{
			{"Consumer": []string{"bob"}, "Action": "Allow"},
			{"Consumer": []string{"bob"}, "LocationLabel": []string{"UCLA"},
				"RepeatTime": ruleDoc{"Day": []string{"Mon", "Tue", "Wed", "Thu", "Fri"}, "HourMin": []string{"9:00am", "6:00pm"}},
				"Context":    []string{"Conversation"},
				"Action":     ruleDoc{"Abstraction": ruleDoc{"Stress": "NotShared"}}},
			agerRule,
		}
	case "wide":
		// 50 rules over 40 consumers; bob's data is clamped to zipcode and hour.
		rs := []ruleDoc{
			{"Consumer": []string{"bob"}, "Action": "Allow"},
			{"Consumer": []string{"bob"}, "Action": ruleDoc{"Abstraction": ruleDoc{"Location": "Zipcode", "Time": "Hour"}}},
			agerRule,
		}
		for i := 0; len(rs) < 50; i++ {
			who := []string{fmt.Sprintf("consumer-%02d", i%39)}
			if i%2 == 0 {
				rs = append(rs, ruleDoc{"Consumer": who, "Sensor": []string{"ECG"}, "Action": "Allow"})
			} else {
				rs = append(rs, ruleDoc{"Consumer": who, "Action": ruleDoc{"Abstraction": ruleDoc{"Location": "Zipcode", "Time": "Hour"}}})
			}
		}
		return rs
	case "deny":
		return []ruleDoc{{"Consumer": []string{"mallory"}, "Action": "Allow"}, agerRule}
	}
	panic("unknown rule set " + name)
}

// bobFlip is the rule set live_mixed alternates on contributor A.
func bobFlip(allow bool) []byte {
	action := "Deny"
	if allow {
		action = "Allow"
	}
	b, err := json.Marshal([]ruleDoc{{"Consumer": []string{"bob"}, "Action": action}})
	if err != nil {
		panic(err)
	}
	return b
}

// queryOp is one consumer query of a closed-loop workload and what it must
// return.
type queryOp struct {
	Consumer    string // "bob" or "eve"
	Contributor int    // index into the fixture contributors
	From, To    time.Time
	// Want is the exact number of rows that must come back, or -1 when
	// only the upper bound Max is known without re-implementing the rules.
	Want, Max int
}

func (o *queryOp) query() *query.Query {
	return &query.Query{Contributor: contributorName(o.Contributor), From: o.From, To: o.To}
}

func contributorName(i int) string { return fmt.Sprintf("contrib-%02d", i) }

// queryOps is the endless seeded op list of closed-loop consumer c. Ops come
// in blocks of ten: eight on the two hot contributors (allow, fig4), one on
// wide, one on deny. A read that releases nothing costs a tenth of one that
// does, so the two that release nothing keep fixed places (bob on deny fifth,
// eve on a hot contributor tenth) and only the order of the other eight is
// seeded: a window then holds the same mix wherever it ends.
type queryOps struct {
	in      *inputs
	rng     *rand.Rand
	window  time.Duration
	batches int // how many batches of each session the store holds
	block   []queryOp
	blocks  int // blocks made so far
}

// newQueryOps lists queries of the given window against a store that holds
// the first batches upload batches of every fixture contributor.
func newQueryOps(in *inputs, consumer int, window time.Duration, batches int) *queryOps {
	return &queryOps{in: in, window: window, batches: batches,
		rng: rand.New(rand.NewSource(in.seed*1000 + int64(consumer)))}
}

func (q *queryOps) next() queryOp {
	if len(q.block) == 0 {
		releasing := []int{0, 0, 0, 0, 1, 1, 1, 2}
		q.rng.Shuffle(len(releasing), func(i, j int) { releasing[i], releasing[j] = releasing[j], releasing[i] })
		for _, c := range releasing[:4] {
			q.block = append(q.block, q.make(c))
		}
		q.block = append(q.block, q.make(3))
		for _, c := range releasing[4:] {
			q.block = append(q.block, q.make(c))
		}
		eve := q.make(q.blocks % 2)
		eve.Consumer, eve.Want, eve.Max = "eve", 0, 0
		q.block = append(q.block, eve)
		q.blocks++
	}
	op := q.block[0]
	q.block = q.block[1:]
	return op
}

func (q *queryOps) make(contributor int) queryOp {
	s := q.in.sessions[contributor]
	packets := min(q.batches*batchPackets, len(s.spans))
	stored := s.spans[packets-1].start.Sub(sessionStart)
	// Whole seconds, so the textual query in the audit trail round-trips.
	off := time.Duration(q.rng.Int63n(int64((stored-q.window)/time.Second))) * time.Second
	op := queryOp{Consumer: "bob", Contributor: contributor, From: sessionStart.Add(off)}
	op.To = op.From.Add(q.window)
	op.Max = s.rowsIn(op.From, op.To, packets)
	switch ruleSetNames[contributor%4] {
	case "allow":
		op.Want = op.Max
	case "deny":
		op.Want, op.Max = 0, 0
	default:
		op.Want = -1
	}
	return op
}
