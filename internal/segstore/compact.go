package segstore

import (
	"container/heap"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sensorsafe/internal/obs"
	"sensorsafe/internal/obs/trace"
	"sensorsafe/internal/storage"
	"sensorsafe/internal/wavesegment"
)

// targetFileBytes rolls compaction output files.
const targetFileBytes = 4 << 20

// Compaction: the background process that keeps the file set tiered and
// small. One round picks the accumulated L0 files (plus any L1 files
// overlapping their time range, so a record's neighbors end up adjacent)
// or, absent L0 pressure, files holding tombstoned records; k-way-merges
// their contributor runs in (start, id) order; runs the paper's
// wave-segment merge (§5.1, E2) continuously on adjacent same-stream
// records; physically drops tombstoned records; and rolls the merged
// stream into L1 files capped at targetFileBytes. The new manifest
// generation is the commit point — a crash at any earlier moment leaves
// the previous generation intact, and the orphaned half-written outputs
// are removed at the next open.

// compactOnce runs one compaction round. force bypasses the L0/tombstone
// thresholds (the manual Compact entry point).
func (s *Store) compactOnce(force bool) error {
	s.maintenanceMu.Lock()
	defer s.maintenanceMu.Unlock()
	//sslint:ignore ctxpropagate background maintenance is a call-tree root with no request context
	_, span, stop := obs.Span(context.Background(), "segstore.compact")
	//sslint:ignore lockorder maintenanceMu is a single-op latch, not a data guard: it serializes whole maintenance rounds by design, and the receive is from the iterator's own prefetch goroutine
	merged, reclaimed, err := s.compactRound(force)
	span.SetAttr(trace.Int("merged", merged), trace.Int("reclaimed", reclaimed))
	stop(err)
	return err
}

// compactRound does the work; callers hold maintenanceMu.
func (s *Store) compactRound(force bool) (mergedAway, reclaimed int, err error) {
	started := time.Now()

	// Pick inputs under the lock and retain their readers.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return 0, 0, storage.ErrClosed
	}
	var l0, inputs, others []fileMeta
	for _, fm := range s.man.Files {
		if fm.Level == 0 {
			l0 = append(l0, fm)
		}
	}
	tombSet := make(map[storage.ID]bool, len(s.tombstones))
	for id := range s.tombstones {
		tombSet[id] = true
	}
	coversTombstone := func(fm fileMeta) bool {
		for id := range tombSet {
			if uint64(id) >= fm.MinID && uint64(id) <= fm.MaxID {
				return true
			}
		}
		return false
	}
	pick := make(map[string]bool)
	if len(l0) >= s.opts.L0CompactThreshold || (force && len(l0) > 0) {
		lo, hi := l0[0].MinTime, l0[0].MaxTime
		for _, fm := range l0 {
			pick[fm.Name] = true
			if fm.MinTime < lo {
				lo = fm.MinTime
			}
			if fm.MaxTime > hi {
				hi = fm.MaxTime
			}
		}
		for _, fm := range s.man.Files {
			if fm.Level != 0 && fm.MinTime < hi && fm.MaxTime > lo {
				pick[fm.Name] = true
			}
		}
	}
	// Tombstone-only rounds reclaim deletes even without L0 pressure.
	for _, fm := range s.man.Files {
		if !pick[fm.Name] && coversTombstone(fm) {
			pick[fm.Name] = true
		}
	}
	for _, fm := range s.man.Files {
		if pick[fm.Name] {
			inputs = append(inputs, fm)
		} else {
			others = append(others, fm)
		}
	}
	// A single L1 file with nothing to reclaim would be rewritten
	// verbatim; skip.
	if len(inputs) == 0 || (len(inputs) == 1 && inputs[0].Level == 1 && !coversTombstone(inputs[0])) {
		s.mu.RUnlock()
		return 0, 0, nil
	}
	var readers []*segReader
	for _, fm := range inputs {
		if r, ok := s.readers[fm.Name]; ok {
			r.retain()
			readers = append(readers, r)
		}
	}
	fileSeq := s.man.NextFile
	s.mu.RUnlock()
	defer releaseAll(readers)

	if err := s.hook("compact.begin"); err != nil {
		return 0, 0, err
	}

	// Merge every contributor run across the inputs in (start, id)
	// order; adjacent same-stream records flow through the wave-segment
	// optimizer; tombstoned records are dropped.
	h := make(mergeHeap, 0, len(readers)*2)
	for _, r := range readers {
		for c := range r.byContrib {
			it := newDiskIter(r, c, time.Time{}, time.Time{})
			rc, ok, err := it.next()
			if err != nil {
				return 0, 0, err
			}
			if ok {
				h = append(h, mergeHead{it: it, r: rc})
			}
		}
	}
	heap.Init(&h)

	var (
		outputs []fileMeta
		writer  *segWriter
		pending = make(map[string]rec) // per-contributor wave-merge buffer
		dropped []storage.ID
	)
	abortAll := func() {
		if writer != nil {
			writer.abort()
		}
		for _, m := range outputs {
			_ = os.Remove(filepath.Join(s.dir, m.Name))
		}
	}
	emit := func(rc rec) error {
		if writer == nil {
			fileSeq++
			var werr error
			writer, werr = newSegWriter(s.dir, segFileName(fileSeq), 1)
			if werr != nil {
				return werr
			}
		}
		if err := writer.add(rc); err != nil {
			return err
		}
		if int64(writer.off) >= targetFileBytes {
			meta, err := writer.finish()
			writer = nil
			if err != nil {
				return err
			}
			outputs = append(outputs, meta)
		}
		return nil
	}
	for h.Len() > 0 {
		head := h[0]
		rc := head.r
		nr, ok, err := head.it.next()
		if err != nil {
			abortAll()
			return 0, 0, err
		}
		if ok {
			h[0] = mergeHead{it: head.it, r: nr}
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
		if tombSet[rc.id] {
			dropped = append(dropped, rc.id)
			continue
		}
		c := rc.seg.Contributor
		cur, ok2 := pending[c]
		if !ok2 {
			pending[c] = rc
			continue
		}
		if joined, ok := wavesegment.Extend(cur.seg, rc.seg, s.opts.MaxSegmentSamples); ok {
			// The merged record keeps the earlier record's ID.
			pending[c] = rec{id: cur.id, seg: joined}
			mergedAway++
			continue
		}
		if err := emit(cur); err != nil {
			abortAll()
			return 0, 0, err
		}
		pending[c] = rc
	}
	// Flush the per-contributor tails. mergeSorted keeps the output
	// deterministic (and per-contributor order correct if several tails
	// share a contributor — they cannot, but cheap insurance).
	var tails []rec
	for _, rc := range pending {
		tails = append(tails, rc)
	}
	for _, rc := range mergeSorted([][]rec{tails}) {
		if err := emit(rc); err != nil {
			abortAll()
			return 0, 0, err
		}
	}
	if writer != nil {
		meta, err := writer.finish()
		writer = nil
		if err != nil {
			abortAll()
			return 0, 0, err
		}
		outputs = append(outputs, meta)
	}
	if err := s.hook("compact.files"); err != nil {
		abortAll()
		return 0, 0, err
	}

	// Commit: the next manifest generation swaps inputs for outputs and
	// forgets reclaimed tombstones.
	droppedSet := make(map[storage.ID]bool, len(dropped))
	for _, id := range dropped {
		droppedSet[id] = true
	}
	s.mu.Lock()
	next := *s.man
	next.Files = append(append([]fileMeta(nil), others...), outputs...)
	next.NextFile = fileSeq
	next.NextID = uint64(s.nextID)
	next.Tombstones = nil
	for id := range s.tombstones {
		if !droppedSet[id] {
			next.Tombstones = append(next.Tombstones, uint64(id))
		}
	}
	s.mu.Unlock()
	if err := saveManifest(s.dir, &next); err != nil {
		s.skipGeneration(&next)
		return 0, 0, err
	}
	if err := s.hook("compact.manifest"); err != nil {
		return 0, 0, err
	}

	// Swap in the committed state, then unlink the inputs. Readers
	// retained by in-flight scans keep their descriptors; the data
	// stays readable until the last release.
	outReaders := make([]*segReader, 0, len(outputs))
	for _, m := range outputs {
		r, err := openSegReader(s.dir, m)
		if err != nil {
			return 0, 0, fmt.Errorf("segstore: reopen compacted file: %w", err)
		}
		outReaders = append(outReaders, r)
	}
	var obsolete []*segReader
	s.mu.Lock()
	s.man = &next
	for _, fm := range inputs {
		if r, ok := s.readers[fm.Name]; ok {
			delete(s.readers, fm.Name)
			obsolete = append(obsolete, r)
		}
	}
	for _, r := range outReaders {
		s.readers[r.meta.Name] = r
	}
	for id := range droppedSet {
		delete(s.tombstones, id)
	}
	s.liveCount -= mergedAway
	s.publishGauges()
	s.mu.Unlock()
	for _, r := range obsolete {
		r.markObsolete()
		_ = os.Remove(filepath.Join(s.dir, r.meta.Name))
	}
	if err := syncDir(s.dir); err != nil {
		return 0, 0, err
	}
	if err := s.hook("compact.done"); err != nil {
		return 0, 0, err
	}

	reclaimed = len(dropped)
	metricCompactions.Inc()
	metricMerged.Add(float64(mergedAway))
	metricReclaimed.Add(float64(reclaimed))
	s.statsMu.Lock()
	s.compactions++
	s.mergedRecords += uint64(mergedAway)
	s.reclaimed += uint64(reclaimed)
	s.lastCompaction = time.Now()
	s.lastCompactDur = time.Since(started)
	s.statsMu.Unlock()
	return mergedAway, reclaimed, nil
}
