package segstore

import (
	"container/heap"
	"sort"
	"time"

	"sensorsafe/internal/storage"
)

// Read path: a scan snapshots its sources under the lock — the
// memtables' sorted runs plus a retained reader per overlapping segment
// file — and then k-way-merges them outside the lock, in (start, id)
// order, skipping tombstoned IDs. Retaining readers lets compaction
// unlink files mid-scan without pulling data out from under us.

// mergeSorted flattens several (start, id)-sorted runs into one.
func mergeSorted(sources [][]rec) []rec {
	total := 0
	for _, s := range sources {
		total += len(s)
	}
	out := make([]rec, 0, total)
	for _, s := range sources {
		out = append(out, s...)
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := out[i].seg.StartTime().UnixNano(), out[j].seg.StartTime().UnixNano()
		if si != sj {
			return si < sj
		}
		return out[i].id < out[j].id
	})
	return out
}

// recIterator yields records in (start, id) order.
type recIterator interface {
	// next returns the following record; ok is false when exhausted.
	next() (r rec, ok bool, err error)
}

// sliceIter iterates an already-sorted in-memory run.
type sliceIter struct {
	recs []rec
	pos  int
}

func (it *sliceIter) next() (rec, bool, error) {
	if it.pos >= len(it.recs) {
		return rec{}, false, nil
	}
	r := it.recs[it.pos]
	it.pos++
	return r, true, nil
}

// diskIter streams one contributor's block run from one segment file,
// pruning blocks outside [from, to) via the sparse footer index. While
// the merge loop drains one block, the next block decompresses on a
// prefetch goroutine — a k-way merge runs tens of these iterators, so
// decode work spreads across cores instead of serializing into the
// consumer.
type diskIter struct {
	r        *segReader
	blockIdx []int // footer indexes of this contributor's blocks, file order
	pos      int   // next block to arm
	cur      []rec
	curPos   int
	fromNano int64 // 0 = unbounded
	toNano   int64 // 0 = unbounded

	started bool
	pre     chan prefetched // nil when no block is in flight

	// scan counts decoded blocks in the scan work counters; compaction's
	// iterators leave it false.
	scan bool
}

type prefetched struct {
	recs []rec
	err  error
}

func newDiskIter(r *segReader, contributor string, from, to time.Time) *diskIter {
	it := &diskIter{r: r, blockIdx: r.byContrib[contributor]}
	if !from.IsZero() {
		it.fromNano = from.UnixNano()
	}
	if !to.IsZero() {
		it.toNano = to.UnixNano()
	}
	return it
}

// newScanIter is newDiskIter for a read, counted in the scan work
// counters.
func newScanIter(r *segReader, contributor string, from, to time.Time) *diskIter {
	it := newDiskIter(r, contributor, from, to)
	it.scan = true
	return it
}

// nextBlock advances pos past pruned blocks and returns the next footer
// index to decode, or -1 when the run is exhausted (or provably out of
// the window).
func (it *diskIter) nextBlock() int {
	for it.pos < len(it.blockIdx) {
		bi := it.blockIdx[it.pos]
		it.pos++
		b := it.r.blocks[bi]
		if it.fromNano != 0 && b.maxEnd <= it.fromNano {
			continue // every record ends before the window
		}
		if it.toNano != 0 && b.minStart >= it.toNano {
			// Blocks are start-ordered per contributor; nothing later
			// can re-enter the window.
			it.pos = len(it.blockIdx)
			return -1
		}
		return bi
	}
	return -1
}

// arm starts decoding the next live block in the background. The send
// never blocks (cap-1 channel), so an abandoned scan leaks nothing.
func (it *diskIter) arm() {
	bi := it.nextBlock()
	if bi < 0 {
		it.pre = nil
		return
	}
	ch := make(chan prefetched, 1)
	it.pre = ch
	go func() {
		recs, err := it.r.readBlock(bi)
		if err == nil && it.scan {
			metricScanBlocks.Inc()
			metricScanInflated.Add(float64(it.r.blocks[bi].rawBytes))
		}
		ch <- prefetched{recs: recs, err: err}
	}()
}

func (it *diskIter) next() (rec, bool, error) {
	for {
		if it.curPos < len(it.cur) {
			r := it.cur[it.curPos]
			it.curPos++
			return r, true, nil
		}
		if !it.started {
			it.started = true
			it.arm() // lazy first block
		}
		if it.pre == nil {
			return rec{}, false, nil
		}
		p := <-it.pre
		if p.err != nil {
			it.pre = nil
			return rec{}, false, p.err
		}
		it.arm() // pipeline the following block
		it.cur, it.curPos = p.recs, 0
	}
}

// mergeHeap orders iterator heads by (start, id).
type mergeHead struct {
	it recIterator
	r  rec
}

type mergeHeap []mergeHead

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	si, sj := h[i].r.seg.StartTime().UnixNano(), h[j].r.seg.StartTime().UnixNano()
	if si != sj {
		return si < sj
	}
	return h[i].r.id < h[j].r.id
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeHead)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// scanSnapshot is everything a scan needs, captured under the lock.
type scanSnapshot struct {
	mems    [][]rec
	readers []*segReader
	tomb    map[storage.ID]bool
}

func (sn *scanSnapshot) release() { releaseAll(sn.readers) }

// snapshot captures the scan sources for q. The returned readers are
// retained; callers must release them.
func (s *Store) snapshot(q *storage.Query) (*scanSnapshot, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, storage.ErrClosed
	}
	sn := &scanSnapshot{tomb: make(map[storage.ID]bool, len(s.tombstones))}
	// The active memtable mutates under us after the lock drops; copy
	// its run. Sealed memtables are immutable until dropped by flush,
	// and the flushed file joins the manifest under the same lock, so
	// each record is visible from exactly one source.
	sn.mems = append(sn.mems, append([]rec(nil), s.active.sorted()...))
	for _, m := range s.sealed {
		sn.mems = append(sn.mems, m.sorted())
	}
	for _, r := range s.readers {
		if !r.meta.overlaps(q.From, q.To) {
			continue
		}
		if q.Contributor != "" {
			if _, ok := r.byContrib[q.Contributor]; !ok {
				continue
			}
		}
		r.retain()
		sn.readers = append(sn.readers, r)
	}
	for id := range s.tombstones {
		sn.tomb[id] = true
	}
	return sn, nil
}

// iterators builds the merge sources for q from a snapshot.
func (sn *scanSnapshot) iterators(q *storage.Query) []recIterator {
	var its []recIterator
	for _, run := range sn.mems {
		if len(run) > 0 {
			its = append(its, &sliceIter{recs: run})
		}
	}
	for _, r := range sn.readers {
		if q.Contributor != "" {
			its = append(its, newScanIter(r, q.Contributor, q.From, q.To))
			continue
		}
		for c := range r.byContrib {
			its = append(its, newScanIter(r, c, q.From, q.To))
		}
	}
	return its
}

// ScanRefs returns matching segments ordered by start time. Memtable
// records are shared with the store and disk records are fresh per-scan
// decodes; both are read-only (see wavesegment.Segment), so callers
// slice and project them without a copy and Clone one to write into it.
func (s *Store) ScanRefs(q storage.Query) ([]storage.Result, error) {
	sn, err := s.snapshot(&q)
	if err != nil {
		return nil, err
	}
	defer sn.release()

	h := make(mergeHeap, 0, 8)
	for _, it := range sn.iterators(&q) {
		r, ok, err := it.next()
		if err != nil {
			return nil, err
		}
		if ok {
			h = append(h, mergeHead{it: it, r: r})
		}
	}
	heap.Init(&h)
	toNano := int64(0)
	if !q.To.IsZero() {
		toNano = q.To.UnixNano()
	}
	var out []storage.Result
	for h.Len() > 0 {
		head := h[0]
		r := head.r
		// Globally start-ordered: once past q.To nothing else matches.
		if toNano != 0 && r.seg.StartTime().UnixNano() >= toNano {
			break
		}
		nr, ok, err := head.it.next()
		if err != nil {
			return nil, err
		}
		if ok {
			h[0] = mergeHead{it: head.it, r: nr}
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
		if sn.tomb[r.id] || !q.Matches(r.seg) {
			continue
		}
		out = append(out, storage.Result{ID: r.id, Segment: r.seg})
		if q.Limit > 0 && len(out) >= q.Limit {
			break
		}
	}
	return out, nil
}
