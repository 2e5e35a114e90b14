package datastore

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/audit"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/query"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/stream"
	"sensorsafe/internal/wavesegment"
)

// TestStreamDeliversUploadThroughRules is the end-to-end happy path: a
// consumer subscribed before an upload receives the post-merge segment
// with the contributor's rules applied.
func TestStreamDeliversUploadThroughRules(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, bob := setupAliceBob(t, s)
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	info, err := s.Subscribe(bob.Key, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.UploadCtx(ctx, alice.Key, packetStream("alice", t0, 2)); err != nil {
		t.Fatal(err)
	}
	b, err := s.StreamNext(bob.Key, info.ID, info.Cursor, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != 1 || b.Events[0].Kind != stream.KindData {
		t.Fatalf("events = %+v", b.Events)
	}
	rel := b.Events[0].Releases[0]
	if rel.Segment == nil || rel.Segment.NumSamples() != 128 {
		t.Fatalf("release = %+v", rel)
	}
	// Auth boundaries.
	if _, err := s.Subscribe(alice.Key, "alice", nil); err == nil {
		t.Error("contributor key must not open a consumer subscription")
	}
	if _, err := s.StreamNext(alice.Key, info.ID, "", 0); err == nil {
		t.Error("contributor key must not poll")
	}
	if _, err := s.Subscribe(bob.Key, "nobody", nil); err == nil {
		t.Error("subscribing to an unknown contributor must fail")
	}
}

// TestStreamDeliversUploadsNotTheGrownTail: when an upload extends the
// stored tail, subscribers still receive exactly that upload's merged
// segment, not the record it grew.
func TestStreamDeliversUploadsNotTheGrownTail(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, bob := setupAliceBob(t, s)
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	info, err := s.Subscribe(bob.Key, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	packets := packetStream("alice", t0, 4)
	cursor := info.Cursor
	for i, batch := range [][]*wavesegment.Segment{packets[:2], packets[2:]} {
		if _, err := s.UploadCtx(ctx, alice.Key, batch); err != nil {
			t.Fatal(err)
		}
		b, err := s.StreamNext(bob.Key, info.ID, cursor, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Events) != 1 || len(b.Events[0].Releases) != 1 {
			t.Fatalf("upload %d: events = %+v", i, b.Events)
		}
		seg := b.Events[0].Releases[0].Segment
		if seg == nil || seg.NumSamples() != 128 || !seg.StartTime().Equal(batch[0].StartTime()) {
			t.Fatalf("upload %d delivered %v, want its own 128 samples from %v", i, seg, batch[0].StartTime())
		}
		cursor = b.Cursor
	}
	if s.SegmentCount() != 1 {
		t.Errorf("SegmentCount = %d, want the second upload to extend the first", s.SegmentCount())
	}
}

// TestStreamRuleChangeMidStream drives the rule-edit scenarios from the
// issue: each case uploads under an initial rule set, delivers once, flips
// the rules, uploads again, and checks the next delivery reflects the new
// rules.
func TestStreamRuleChangeMidStream(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name   string
		before string
		after  string
		check  func(t *testing.T, b stream.Batch)
	}{
		{
			name:   "allow then deny suppresses",
			before: `[{"Action":"Allow"}]`,
			after:  `[{"Action":"Deny"}]`,
			check: func(t *testing.T, b stream.Batch) {
				if len(b.Events) != 0 {
					t.Fatalf("post-deny delivery leaked: %+v", b.Events)
				}
				if b.Cursor != "2" {
					t.Fatalf("cursor must advance past suppressed segment, got %s", b.Cursor)
				}
			},
		},
		{
			name:   "allow then city-level location",
			before: `[{"Action":"Allow"}]`,
			after: `[{"Action":"Allow"},
			         {"Action":{"Abstraction":{"Location":"City"}}}]`,
			check: func(t *testing.T, b stream.Batch) {
				if len(b.Events) != 1 || len(b.Events[0].Releases) == 0 {
					t.Fatalf("events = %+v", b.Events)
				}
				for _, rel := range b.Events[0].Releases {
					if rel.Location.Granularity != geo.LocCity || rel.Location.Point != nil {
						t.Fatalf("location not clamped to city: %+v", rel.Location)
					}
				}
			},
		},
		{
			name:   "smoking closure strips respiration",
			before: `[{"Action":"Allow"}]`,
			after: `[{"Action":"Allow"},
			         {"Action":{"Abstraction":{"Smoking":"NotShared"}}}]`,
			check: func(t *testing.T, b stream.Batch) {
				if len(b.Events) != 1 {
					t.Fatalf("events = %+v", b.Events)
				}
				for _, rel := range b.Events[0].Releases {
					if rel.Segment == nil {
						continue
					}
					if rel.Segment.HasChannel(wavesegment.ChannelRespiration) {
						t.Fatal("respiration leaked while smoking is hidden (dependency closure)")
					}
					if !rel.Segment.HasChannel(wavesegment.ChannelECG) {
						t.Fatal("ECG should survive the smoking closure")
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newService(t, Options{})
			alice, bob := setupAliceBob(t, s)
			if err := s.SetRules(alice.Key, []byte(tc.before)); err != nil {
				t.Fatal(err)
			}
			info, err := s.Subscribe(bob.Key, "alice", nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.UploadCtx(ctx, alice.Key, packetStream("alice", t0, 1)); err != nil {
				t.Fatal(err)
			}
			b, err := s.StreamNext(bob.Key, info.ID, info.Cursor, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if len(b.Events) != 1 || b.Events[0].RuleVersion == 0 {
				t.Fatalf("pre-flip delivery = %+v", b.Events)
			}
			preVersion := b.Events[0].RuleVersion

			if err := s.SetRules(alice.Key, []byte(tc.after)); err != nil {
				t.Fatal(err)
			}
			// Upload far enough ahead that the segment cannot coalesce
			// into the first record.
			if _, err := s.UploadCtx(ctx, alice.Key, packetStream("alice", t0.Add(time.Hour), 1)); err != nil {
				t.Fatal(err)
			}
			b2, err := s.StreamNext(bob.Key, info.ID, b.Cursor, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range b2.Events {
				if ev.RuleVersion <= preVersion {
					t.Errorf("rule version not bumped: %d <= %d", ev.RuleVersion, preVersion)
				}
			}
			tc.check(t, b2)
		})
	}
}

// TestStreamRefiltersBufferedSegments delivers one upload, then buffers
// two more and flips the rules to deny BEFORE the consumer polls: the
// buffered, undelivered segments must be filtered by the rules in force
// at delivery time, and the cursor must still move past them.
func TestStreamRefiltersBufferedSegments(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, bob := setupAliceBob(t, s)
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	info, err := s.Subscribe(bob.Key, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.UploadCtx(ctx, alice.Key, packetStream("alice", t0, 1)); err != nil {
		t.Fatal(err)
	}
	b, err := s.StreamNext(bob.Key, info.ID, info.Cursor, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != 1 || b.Events[0].RuleVersion != 1 || b.Events[0].Releases[0].Segment == nil {
		t.Fatalf("pre-flip delivery = %+v", b.Events)
	}
	for i := 1; i <= 2; i++ {
		if _, err := s.UploadCtx(ctx, alice.Key, packetStream("alice", t0.Add(time.Duration(i)*time.Hour), 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Revocation lands while the segments sit undelivered in the buffer.
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Deny"}]`)); err != nil {
		t.Fatal(err)
	}
	b2, err := s.StreamNext(bob.Key, info.ID, b.Cursor, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(b2.Events) != 0 {
		t.Fatalf("buffered segments leaked after revocation: %+v", b2.Events)
	}
	if b2.Cursor != "3" {
		t.Fatalf("cursor must advance past suppressed segments, got %s", b2.Cursor)
	}
}

// TestStreamChannelSubscriptionProjects: a channel-filtered subscription
// receives only its channels, and a segment carrying none of them takes
// no sequence number.
func TestStreamChannelSubscriptionProjects(t *testing.T) {
	ctx := context.Background()
	s := newService(t, Options{})
	alice, bob := setupAliceBob(t, s)
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	info, err := s.Subscribe(bob.Key, "alice", []string{"ECG"})
	if err != nil {
		t.Fatal(err)
	}
	upload := []*wavesegment.Segment{
		packet("alice", t0, 64),
		packet("alice", t0.Add(time.Hour), 64, wavesegment.ChannelMicrophone),
	}
	if _, err := s.UploadCtx(ctx, alice.Key, upload); err != nil {
		t.Fatal(err)
	}
	b, err := s.StreamNext(bob.Key, info.ID, info.Cursor, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != 1 || b.Cursor != "1" {
		t.Fatalf("events = %+v, cursor %s; want one event at cursor 1", b.Events, b.Cursor)
	}
	rel := b.Events[0].Releases[0]
	if rel.Segment == nil || len(rel.Segment.Channels) != 1 || rel.Segment.Channels[0] != "ECG" {
		t.Fatalf("projection wrong: %+v", rel.Segment)
	}
}

// TestStreamReleasesEqualQueryReleases holds the two egresses to one
// release path: for each rule set, a subscription's data event carries
// exactly the releases a query for the same channels over the uploaded
// packet's window returns, and both leave the same audit events but for
// when they happened, the query text and the trace ID.
func TestStreamReleasesEqualQueryReleases(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name   string
		rules  string
		groups []string
	}{
		{"allow-all", `[{"ID":"all","Action":"Allow"}]`, nil},
		{"deny", `[{"ID":"none","Action":"Deny"}]`, nil},
		{"city-level location", `[{"ID":"all","Action":"Allow"},
			{"ID":"city","Action":{"Abstraction":{"Location":"City"}}}]`, nil},
		{"channel-restricted", `[{"ID":"ecg","Sensor":["ECG"],"Action":"Allow"}]`, nil},
		{"group-scoped", `[{"ID":"study","Group":["StressStudy"],"Action":"Allow"}]`, []string{"StressStudy"}},
		{"smoking closure", `[{"ID":"all","Action":"Allow"},
			{"ID":"hide-smoking","Action":{"Abstraction":{"Smoking":"NotShared"}}}]`, nil},
	}
	for _, tc := range cases {
		for _, channels := range [][]string{nil, {"ECG"}} {
			t.Run(fmt.Sprintf("%s/channels=%v", tc.name, channels), func(t *testing.T) {
				s := newService(t, Options{})
				alice, bob := setupAliceBob(t, s)
				if err := s.SetRules(alice.Key, []byte(tc.rules)); err != nil {
					t.Fatal(err)
				}
				if tc.groups != nil {
					if err := s.AssignConsumerGroups(alice.Key, "Bob", tc.groups); err != nil {
						t.Fatal(err)
					}
				}
				info, err := s.Subscribe(bob.Key, "alice", channels)
				if err != nil {
					t.Fatal(err)
				}
				p := packet("alice", t0, 600)
				_ = p.Annotate(rules.CtxSmoking, t0.Add(20*time.Second), t0.Add(40*time.Second))
				if _, err := s.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{p}); err != nil {
					t.Fatal(err)
				}
				b, err := s.StreamNext(bob.Key, info.ID, info.Cursor, 50*time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				var streamed []*abstraction.Release
				for _, ev := range b.Events {
					streamed = append(streamed, ev.Releases...)
				}
				streamAudit, err := s.Audit(alice.Key, audit.Filter{})
				if err != nil {
					t.Fatal(err)
				}

				q := &query.Query{Channels: channels, From: p.StartTime(), To: p.EndTime()}
				queried, err := s.QueryCtx(ctx, bob.Key, q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(streamed, queried) {
					t.Fatalf("stream released %d, query %d:\nstream %+v\nquery  %+v", len(streamed), len(queried), streamed, queried)
				}
				all, err := s.Audit(alice.Key, audit.Filter{})
				if err != nil {
					t.Fatal(err)
				}
				queryAudit := all[:len(all)-len(streamAudit)]
				if len(streamAudit) == 0 || len(streamAudit) != len(queryAudit) {
					t.Fatalf("audit events: stream %d, query %d", len(streamAudit), len(queryAudit))
				}
				for i := range streamAudit {
					se, qe := streamAudit[i], queryAudit[i]
					if se.Query != "stream "+(&query.Query{Channels: channels}).String() || se.TraceID != "" {
						t.Errorf("stream event labelled %q, trace %q", se.Query, se.TraceID)
					}
					if se.RuleVersion == 0 {
						t.Errorf("stream event carries no rule version: %+v", se)
					}
					se.At, se.Query, se.TraceID = qe.At, qe.Query, qe.TraceID
					if !reflect.DeepEqual(se, qe) {
						t.Errorf("audit event %d differs:\nstream %+v\nquery  %+v", i, se, qe)
					}
				}
			})
		}
	}
}

// TestStreamSubscriptionsSurviveRestart checks the durable-cursor contract:
// registrations and acked cursors persist in state.json; segments that were
// buffered but unacked at shutdown surface as a gap after reopen.
func TestStreamSubscriptionsSurviveRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := newService(t, Options{Dir: dir})
	alice, bob := setupAliceBob(t, s)
	if err := s.SetRules(alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	info, err := s.Subscribe(bob.Key, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.UploadCtx(ctx, alice.Key, packetStream("alice", t0, 1)); err != nil {
		t.Fatal(err)
	}
	b, err := s.StreamNext(bob.Key, info.ID, info.Cursor, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != 1 {
		t.Fatalf("events = %+v", b.Events)
	}
	if err := s.StreamAck(bob.Key, info.ID, b.Cursor); err != nil {
		t.Fatal(err)
	}
	// One more upload the consumer never sees before the store goes down.
	if _, err := s.UploadCtx(ctx, alice.Key, packetStream("alice", t0.Add(time.Hour), 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newService(t, Options{Dir: dir})
	again, err := s2.Subscribe(bob.Key, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Resumed || again.ID != info.ID || again.Cursor != b.Cursor {
		t.Fatalf("restored subscription = %+v (want resumed at cursor %s)", again, b.Cursor)
	}
	b2, err := s2.StreamNext(bob.Key, again.ID, again.Cursor, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(b2.Events) != 1 || b2.Events[0].Kind != stream.KindGap || b2.Events[0].Dropped != 1 {
		t.Fatalf("restart gap = %+v", b2.Events)
	}
}
