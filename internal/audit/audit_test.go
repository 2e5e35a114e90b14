package audit

import (
	"testing"
	"time"
)

var t0 = time.Date(2011, 2, 16, 10, 0, 0, 0, time.UTC)

func event(consumer string, at time.Time, o Outcome, spanMin int) Event {
	return Event{
		At: at, Contributor: "alice", Consumer: consumer, Outcome: o,
		SpanStart: t0, SpanEnd: t0.Add(time.Duration(spanMin) * time.Minute),
	}
}

func TestRecordAndLen(t *testing.T) {
	tr := NewTrail(0)
	if tr.Len() != 0 {
		t.Fatal("new trail not empty")
	}
	tr.Record(event("bob", t0, OutcomeRaw, 1))
	tr.Record(event("bob", t0.Add(time.Minute), OutcomeWithheld, 0))
	if tr.Len() != 2 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestRecordStampsTime(t *testing.T) {
	tr := NewTrail(0)
	tr.Record(Event{Contributor: "alice", Consumer: "bob"})
	got := tr.Events(Filter{})
	if len(got) != 1 || got[0].At.IsZero() {
		t.Errorf("event not stamped: %+v", got)
	}
}

func TestEviction(t *testing.T) {
	tr := NewTrail(3)
	for i := 0; i < 5; i++ {
		tr.Record(event("bob", t0.Add(time.Duration(i)*time.Minute), OutcomeRaw, 1))
	}
	if tr.Len() != 3 {
		t.Fatalf("Len after eviction = %d", tr.Len())
	}
	got := tr.Events(Filter{})
	// Newest first; oldest retained event is t0+2m.
	if !got[0].At.Equal(t0.Add(4*time.Minute)) || !got[2].At.Equal(t0.Add(2*time.Minute)) {
		t.Errorf("eviction kept wrong events: %v .. %v", got[0].At, got[2].At)
	}

	// Wrap more than once with a limit that does not divide the count:
	// after every append the trail holds exactly the newest min(n, limit)
	// events, newest first, and Limit and Summarize see the same window.
	const limit, total = 7, 30
	tr = NewTrail(limit)
	for n := 1; n <= total; n++ {
		tr.Record(event("bob", t0.Add(time.Duration(n)*time.Minute), OutcomeRaw, 1))
		want := min(n, limit)
		got := tr.Events(Filter{})
		if tr.Len() != want || len(got) != want {
			t.Fatalf("after %d records: Len = %d, %d events, want %d", n, tr.Len(), len(got), want)
		}
		for i, e := range got {
			if !e.At.Equal(t0.Add(time.Duration(n-i) * time.Minute)) {
				t.Fatalf("after %d records: event %d at %v, want t0+%dm", n, i, e.At, n-i)
			}
		}
		if newest := tr.Events(Filter{Limit: 2}); !newest[0].At.Equal(got[0].At) || len(newest) != min(n, 2) {
			t.Fatalf("after %d records: Limit 2 = %v", n, newest)
		}
		sum := tr.Summarize("alice")
		if len(sum) != 1 || sum[0].Accesses != want ||
			!sum[0].First.Equal(got[want-1].At) || !sum[0].Last.Equal(got[0].At) {
			t.Fatalf("after %d records: summary %+v", n, sum)
		}
	}
}

// BenchmarkRecordFull appends to a trail that starts empty and to one
// already holding DefaultLimit events: the ring makes the second cost the
// same order as the first, not a copy of the whole trail per event.
func BenchmarkRecordFull(b *testing.B) {
	e := event("bob", t0, OutcomeRaw, 1)
	for _, start := range []struct {
		name string
		n    int
	}{{"empty", 0}, {"full", DefaultLimit}} {
		b.Run(start.name, func(b *testing.B) {
			tr := NewTrail(0)
			for i := 0; i < start.n; i++ {
				tr.Record(e)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Record(e)
			}
		})
	}
}

func TestEventsFilter(t *testing.T) {
	tr := NewTrail(0)
	tr.Record(event("bob", t0, OutcomeRaw, 1))
	tr.Record(event("eve", t0.Add(time.Minute), OutcomeWithheld, 0))
	tr.Record(event("bob", t0.Add(2*time.Minute), OutcomeAbstracted, 2))

	if got := tr.Events(Filter{Consumer: "BOB"}); len(got) != 2 {
		t.Errorf("consumer filter = %d events", len(got))
	}
	if got := tr.Events(Filter{Contributor: "nobody"}); len(got) != 0 {
		t.Errorf("contributor filter = %d events", len(got))
	}
	if got := tr.Events(Filter{Since: t0.Add(time.Minute)}); len(got) != 2 {
		t.Errorf("since filter = %d events", len(got))
	}
	withheld := OutcomeWithheld
	if got := tr.Events(Filter{Outcome: &withheld}); len(got) != 1 || got[0].Consumer != "eve" {
		t.Errorf("outcome filter = %v", got)
	}
	if got := tr.Events(Filter{Limit: 1}); len(got) != 1 || !got[0].At.Equal(t0.Add(2*time.Minute)) {
		t.Errorf("limit should keep newest: %v", got)
	}
}

func TestEventsNewestFirst(t *testing.T) {
	tr := NewTrail(0)
	for i := 0; i < 4; i++ {
		tr.Record(event("bob", t0.Add(time.Duration(i)*time.Minute), OutcomeRaw, 1))
	}
	got := tr.Events(Filter{})
	for i := 1; i < len(got); i++ {
		if got[i].At.After(got[i-1].At) {
			t.Fatal("events not newest-first")
		}
	}
}

func TestSummarize(t *testing.T) {
	tr := NewTrail(0)
	tr.Record(event("bob", t0, OutcomeRaw, 10))
	tr.Record(event("bob", t0.Add(time.Hour), OutcomeAbstracted, 5))
	tr.Record(event("bob", t0.Add(2*time.Hour), OutcomeWithheld, 0))
	tr.Record(event("eve", t0, OutcomeWithheld, 0))
	// Another contributor's event must not leak into alice's summary.
	other := event("bob", t0, OutcomeRaw, 60)
	other.Contributor = "carol"
	tr.Record(other)

	got := tr.Summarize("ALICE")
	if len(got) != 2 {
		t.Fatalf("summaries = %+v", got)
	}
	bob := got[0]
	if bob.Consumer != "bob" || bob.Accesses != 3 || bob.Raw != 1 || bob.Abstracted != 1 || bob.Withheld != 1 {
		t.Errorf("bob summary = %+v", bob)
	}
	if bob.DataSpan != 15*time.Minute {
		t.Errorf("bob data span = %v, want 15m (withheld spans excluded)", bob.DataSpan)
	}
	if !bob.First.Equal(t0) || !bob.Last.Equal(t0.Add(2*time.Hour)) {
		t.Errorf("bob first/last = %v/%v", bob.First, bob.Last)
	}
	eve := got[1]
	if eve.Consumer != "eve" || eve.Withheld != 1 || eve.DataSpan != 0 {
		t.Errorf("eve summary = %+v", eve)
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeRaw.String() != "raw" || OutcomeAbstracted.String() != "abstracted" || OutcomeWithheld.String() != "withheld" {
		t.Error("outcome strings wrong")
	}
}
