package datastore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/audit"
	"sensorsafe/internal/query"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/segstore"
	"sensorsafe/internal/storage"
	"sensorsafe/internal/wavesegment"
)

// aliasRules are the rule shapes the aliasing property draws from: each
// one makes enforcement rewrite a release differently (re-based or
// coarsened timestamps, coarse location, channels withheld by the
// dependency closure, a time-conditioned rule that cuts a segment into
// spans).
var aliasRules = []string{
	`{"Action":"Allow"}`,
	`{"Action":{"Abstraction":{"Time":"NotShared"}}}`,
	`{"Action":{"Abstraction":{"Time":"Hour"}}}`,
	`{"Action":{"Abstraction":{"Location":"City"}}}`,
	`{"Action":{"Abstraction":{"Stress":"NotShared"}}}`,
	`{"Action":{"Abstraction":{"Activity":"NotShared","Time":"Minute"}}}`,
	`{"RepeatTime":{"Day":["Wed"],"HourMin":["10:20am","11:40am"]},"Action":{"Abstraction":{"Time":"NotShared","Smoking":"NotShared"}}}`,
}

var (
	aliasChannels = []string{
		wavesegment.ChannelECG, wavesegment.ChannelRespiration, wavesegment.ChannelSkinTemp,
		wavesegment.ChannelAccelX, wavesegment.ChannelAccelY, wavesegment.ChannelAccelZ,
		wavesegment.ChannelLatitude, wavesegment.ChannelLongitude, wavesegment.ChannelMicrophone,
	}
	aliasContexts = []string{rules.CtxDrive, rules.CtxWalk, rules.CtxStressed, rules.CtxSmoking, rules.CtxConversation}
)

// pick returns a random non-empty subset of from, in from's order.
func pick(rng *rand.Rand, from []string) []string {
	var out []string
	for len(out) == 0 {
		for _, s := range from {
			if rng.Intn(2) == 0 {
				out = append(out, s)
			}
		}
	}
	return out
}

// aliasSegment draws one uploadable segment starting at start: uniform or
// per-sample timestamped, with up to three annotation spans.
func aliasSegment(rng *rand.Rand, start time.Time) *wavesegment.Segment {
	seg := &wavesegment.Segment{Contributor: "alice", Start: start, Location: ucla, Channels: pick(rng, aliasChannels)}
	n := 1 + rng.Intn(300)
	at := start
	timestamped := rng.Intn(2) == 0
	if !timestamped {
		seg.Interval = time.Duration(50+rng.Intn(950)) * time.Millisecond
	}
	for i := 0; i < n; i++ {
		row := make([]float64, len(seg.Channels))
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		seg.Values = append(seg.Values, row)
		if timestamped {
			seg.Timestamps = append(seg.Timestamps, at)
			at = at.Add(time.Duration(1+rng.Intn(20_000)) * time.Millisecond)
		}
	}
	span := seg.EndTime().Sub(seg.StartTime())
	for a := rng.Intn(4); a > 0; a-- {
		from := seg.StartTime().Add(time.Duration(rng.Int63n(int64(span))))
		to := from.Add(time.Duration(1 + rng.Int63n(int64(span))))
		_ = seg.Annotate(aliasContexts[rng.Intn(len(aliasContexts))], from, to)
	}
	return seg
}

// aliasQuery draws a consumer query: an optional window over [lo, hi),
// an optional channel filter and an optional context filter.
func aliasQuery(rng *rand.Rand, lo, hi time.Time) *query.Query {
	q := &query.Query{}
	if rng.Intn(3) > 0 {
		q.From = lo.Add(time.Duration(rng.Int63n(int64(hi.Sub(lo)))))
		q.To = q.From.Add(time.Duration(1 + rng.Int63n(int64(hi.Sub(q.From)))))
	}
	if rng.Intn(3) == 0 {
		q.Channels = pick(rng, aliasChannels)
	}
	if rng.Intn(4) == 0 {
		q.Contexts = pick(rng, aliasContexts)
	}
	return q
}

// storedBytes encodes every stored record, keyed by record ID.
func storedBytes(t *testing.T, s *Service) map[storage.ID][]byte {
	t.Helper()
	results, err := s.store.ScanRefs(storage.Query{})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[storage.ID][]byte, len(results))
	for _, r := range results {
		b, err := wavesegment.MarshalBinary(r.Segment)
		if err != nil {
			t.Fatal(err)
		}
		out[r.ID] = b
	}
	return out
}

// answerFromClones answers q the way QueryCtx does, but from a Clone of
// the segment each matching record was uploaded as (clones, by record
// ID), so nothing it releases can share memory with the store or with
// what was uploaded.
func answerFromClones(t *testing.T, s *Service, consumer string, q *query.Query, clones map[storage.ID]*wavesegment.Segment) []*abstraction.Release {
	t.Helper()
	results, err := s.store.ScanRefs(q.Storage())
	if err != nil {
		t.Fatal(err)
	}
	var out []*abstraction.Release
	for _, r := range results {
		seg := clones[r.ID].Clone()
		if !q.From.IsZero() || !q.To.IsZero() {
			if seg = seg.Slice(q.From, q.To); seg == nil {
				continue
			}
		}
		rels, _, _, err := s.release(audit.Event{Consumer: consumer}, seg.Clone(), q, nil, s.contributorOf(normName(seg.Contributor)))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rels...)
	}
	return out
}

func releasesJSON(t *testing.T, rels []*abstraction.Release) string {
	t.Helper()
	var b []byte
	for _, rel := range rels {
		js, err := json.Marshal(rel)
		if err != nil {
			t.Fatal(err)
		}
		b = append(append(b, js...), '\n')
	}
	return string(b)
}

// TestReleasesLeaveStoredRecordsIntact is the property behind the shared
// read and write paths: an upload hands its segments over to the
// optimizer, the store and the stream hub without a copy, and Slice and
// Project share sample rows with stored records instead of copying them,
// so no layer may write into a segment it was handed, and sharing must
// not change what a consumer receives. Over random segments (uniform and
// timestamped, annotated) uploaded with a subscriber attached, random
// rule sets and random queries, on the in-memory engine and on segstore
// with the data in its memtable and on disk, every stored record encodes
// to the bytes of a Clone taken before its upload, before and after the
// reads, and every answer and stream delivery equals the one computed
// from that clone.
func TestReleasesLeaveStoredRecordsIntact(t *testing.T) {
	ctx := context.Background()
	configs := []struct {
		name       string
		persistent bool
		flush      bool
	}{{"memory", false, false}, {"memtable", true, false}, {"flushed", true, true}}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			for trial := int64(1); trial <= 8; trial++ {
				rng := rand.New(rand.NewSource(trial))
				opts := Options{}
				if cfg.persistent {
					opts.Dir = t.TempDir()
				}
				s := newService(t, opts)
				alice, bob := setupAliceBob(t, s)
				sub, err := s.Subscribe(bob.Key, "alice", nil)
				if err != nil {
					t.Fatal(err)
				}
				var clones []*wavesegment.Segment
				for i, n := 0, 1+rng.Intn(4); i < n; i++ {
					seg := aliasSegment(rng, t0.Add(time.Duration(i)*2*time.Hour+time.Duration(rng.Intn(3600))*time.Second))
					clones = append(clones, seg.Clone())
					if _, err := s.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{seg}); err != nil {
						t.Fatal(err)
					}
				}
				if cfg.flush {
					if err := s.store.(*segstore.Store).Flush(); err != nil {
						t.Fatal(err)
					}
				}
				var ruleSet []string
				for _, i := range rng.Perm(len(aliasRules))[:1+rng.Intn(3)] {
					ruleSet = append(ruleSet, aliasRules[i])
				}
				if err := s.SetRules(alice.Key, []byte("["+strings.Join(ruleSet, ",")+"]")); err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("trial %d, rules %v", trial, ruleSet)
				// Each upload is one record: record IDs follow upload order.
				records := storedBytes(t, s)
				if len(records) != len(clones) {
					t.Fatalf("%s: %d uploads made %d records", where, len(clones), len(records))
				}
				ids := make([]storage.ID, 0, len(records))
				for id := range records {
					ids = append(ids, id)
				}
				slices.Sort(ids)
				byID := make(map[storage.ID]*wavesegment.Segment, len(ids))
				for i, id := range ids {
					byID[id] = clones[i]
				}
				checkRecords := func(when string, got map[storage.ID][]byte) {
					t.Helper()
					if len(got) != len(byID) {
						t.Fatalf("%s: %d records %s, %d uploaded", where, len(got), when, len(byID))
					}
					for id, clone := range byID {
						want, err := wavesegment.MarshalBinary(clone)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got[id], want) {
							t.Fatalf("%s: record %d %s differs from its upload", where, id, when)
						}
					}
				}
				checkRecords("after the uploads", records)

				lo, hi := clones[0].StartTime(), clones[len(clones)-1].EndTime()
				for i := 0; i < 12; i++ {
					q := aliasQuery(rng, lo, hi)
					want := releasesJSON(t, answerFromClones(t, s, bob.Name, q, byID))
					got, err := s.QueryCtx(ctx, bob.Key, q)
					if err != nil {
						t.Fatal(err)
					}
					if g := releasesJSON(t, got); g != want {
						t.Fatalf("%s: query %q answered\n%s\nwant (from clones)\n%s", where, q, g, want)
					}
				}

				// Each upload was one publish, so event seq i+1 carries
				// upload i; a replayed poll must deliver the same bytes.
				want := make(map[uint64]string)
				for i, clone := range clones {
					rels, _, _, err := s.StreamRelease(bob.Name, nil, clone.Clone())
					if err != nil {
						t.Fatal(err)
					}
					if len(rels) > 0 {
						want[uint64(i+1)] = releasesJSON(t, rels)
					}
				}
				for poll := 0; poll < 2; poll++ {
					b, err := s.StreamNext(bob.Key, sub.ID, "", 0)
					if err != nil {
						t.Fatal(err)
					}
					if len(b.Events) != len(want) {
						t.Fatalf("%s: poll %d delivered %d events, want %d", where, poll, len(b.Events), len(want))
					}
					for _, ev := range b.Events {
						if g := releasesJSON(t, ev.Releases); g != want[ev.Seq] {
							t.Fatalf("%s: poll %d event %d delivered\n%s\nwant (from a clone)\n%s", where, poll, ev.Seq, g, want[ev.Seq])
						}
					}
				}

				checkRecords("after the reads", storedBytes(t, s))
			}
		})
	}
}
