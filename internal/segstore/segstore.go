// Package segstore is the persistent columnar segment store: an
// LSM-style engine that replaces the flat in-memory index + monolithic
// WAL with a bounded hot tail and immutable on-disk segment files.
//
// Write path: every Put/Delete appends to a write-ahead log, then lands
// in the active memtable (sorted hot tail). A Put that continues its
// stream's newest memtable record extends that record, and the log holds
// only the new packet. When the memtable exceeds its byte budget a
// background flusher seals it, writes one immutable, sorted, columnar L0
// segment file (see segfile.go), and commits it by writing a new manifest
// generation; sealed WAL files whose sequences the manifest covers are
// then garbage-collected, so restart replays only the WAL tail.
//
// Read path: scans k-way-merge the memtables with the per-contributor
// block runs of every overlapping segment file (the same merge
// discipline internal/federation uses across stores), skipping
// tombstoned IDs.
//
// A background compactor (see compact.go) merges L0 files into larger
// L1 files, running the paper's wave-segment merge (§5.1, E2)
// continuously and physically reclaiming tombstoned records.
//
// Memory holds only the hot tail plus per-file footers (sparse block
// indexes); restart is manifest load + footer reads + WAL-tail replay.
package segstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"sensorsafe/internal/obs"
	"sensorsafe/internal/storage"
	"sensorsafe/internal/wavesegment"
)

// Options tune the engine; zero values get defaults.
type Options struct {
	// Dir is the segstore directory (WAL, segment files, manifests).
	Dir string
	// MemtableBytes bounds the hot tail; crossing it triggers a flush.
	// Default 4 MiB.
	MemtableBytes int64
	// CompactInterval is the background compaction period; 0 disables
	// the background compactor (Compact still works when called).
	CompactInterval time.Duration
	// MaxSegmentSamples bounds wave-merged records, both as Put extends a
	// stream's tail and during compaction (default
	// wavesegment.DefaultMaxSamples).
	MaxSegmentSamples int
}

// l0CompactThreshold is how many L0 files accumulate before the
// background compactor merges them into L1.
const l0CompactThreshold = 4

func (o Options) withDefaults() Options {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.MaxSegmentSamples <= 0 {
		o.MaxSegmentSamples = wavesegment.DefaultMaxSamples
	}
	return o
}

var (
	metricFlushes      = obs.NewCounter("sensorsafe_segstore_flushes_total", "Memtable flushes to L0 segment files.")
	metricCompactions  = obs.NewCounter("sensorsafe_segstore_compactions_total", "Background compaction runs completed.")
	metricMerged       = obs.NewCounter("sensorsafe_segstore_merged_records_total", "Records merged away by the wave-segment optimizer during compaction.")
	metricReclaimed    = obs.NewCounter("sensorsafe_segstore_reclaimed_records_total", "Tombstoned records physically dropped by compaction.")
	metricWALReplayed  = obs.NewCounter("sensorsafe_segstore_wal_replayed_total", "WAL-tail records replayed at open.")
	metricFiles        = obs.NewGaugeVec("sensorsafe_segstore_files", "Live segment files by LSM level.", "level")
	metricMemBytes     = obs.NewGauge("sensorsafe_segstore_memtable_bytes", "Bytes held in the active memtable.")
	metricTombstones   = obs.NewGauge("sensorsafe_segstore_tombstones", "Deleted IDs awaiting physical reclamation.")
	metricMaintErr     = obs.NewCounter("sensorsafe_segstore_maintenance_errors_total", "Background flush/compaction failures.")
	metricWriteStalls  = obs.NewCounter("sensorsafe_segstore_write_stalls_total", "Puts that waited for a running flush because the active memtable was half full.")
	metricScanBlocks   = obs.NewCounter("sensorsafe_segstore_scan_blocks_total", "Segment-file blocks decoded by reads (compaction and Get excluded).")
	metricScanInflated = obs.NewCounter("sensorsafe_segstore_scan_inflated_bytes_total", "Decompressed bytes of the blocks reads decoded (compaction and Get excluded).")
)

// Store is the engine. All exported methods are safe for concurrent
// use. It satisfies storage.Engine.
type Store struct {
	opts Options
	dir  string

	mu         sync.RWMutex
	active     *memtable             // guarded by mu
	sealed     []*memtable           // guarded by mu; awaiting flush, oldest first
	man        *manifest             // guarded by mu
	readers    map[string]*segReader // guarded by mu; by file name
	tombstones map[storage.ID]bool   // guarded by mu; deleted IDs in sealed memtables or files
	nextID     storage.ID            // guarded by mu
	nextSeq    uint64                // guarded by mu
	wal        *wal                  // guarded by mu
	liveCount  int                   // guarded by mu
	closed     bool                  // guarded by mu
	flushing   bool                  // guarded by mu; a flush is writing sealed memtables
	flushDone  *sync.Cond            // on mu; broadcast when a flush ends

	// maintenanceMu serializes flush and compaction; each holds it for
	// the whole file-writing protocol so manifest generations advance
	// one at a time.
	maintenanceMu sync.Mutex

	flushCh chan struct{}
	stopCh  chan struct{}
	wg      sync.WaitGroup

	// crashHook, when set (tests only, before concurrent use), is
	// called at named points of the flush/compaction protocols; a
	// non-nil return aborts the operation there, simulating a crash.
	crashHook func(stage string) error

	statsMu        sync.Mutex
	walReplayed    int           // guarded by statsMu
	flushes        uint64        // guarded by statsMu
	compactions    uint64        // guarded by statsMu
	mergedRecords  uint64        // guarded by statsMu
	reclaimed      uint64        // guarded by statsMu
	lastCompaction time.Time     // guarded by statsMu
	lastCompactDur time.Duration // guarded by statsMu
	lastError      string        // guarded by statsMu
}

var _ storage.Engine = (*Store)(nil)

// Open loads (or creates) a store in opts.Dir: newest valid manifest,
// segment-file footers, then the WAL tail (records with sequence beyond
// the manifest's flushed point) into the memtable.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("segstore: Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("segstore: create dir: %w", err)
	}
	man, err := loadManifest(opts.Dir)
	if err != nil {
		return nil, err
	}
	removeOrphans(opts.Dir, man)
	s := &Store{
		opts:       opts,
		dir:        opts.Dir,
		active:     newMemtable(),
		readers:    make(map[string]*segReader),
		tombstones: make(map[storage.ID]bool),
		nextID:     1,
		flushCh:    make(chan struct{}, 1),
		stopCh:     make(chan struct{}),
	}
	s.flushDone = sync.NewCond(&s.mu)
	// The store is not shared yet; the lock is held across recovery so
	// the guarded fields are mutated under their advertised discipline.
	s.mu.Lock()
	defer s.mu.Unlock()
	if man == nil {
		man = &manifest{}
	}
	s.man = man
	for _, fm := range man.Files {
		r, err := openSegReader(s.dir, fm)
		if err != nil {
			s.closeReadersLocked()
			return nil, err
		}
		s.readers[fm.Name] = r
		s.liveCount += fm.Records
	}
	for _, id := range man.Tombstones {
		s.tombstones[storage.ID(id)] = true
	}
	s.liveCount -= len(man.Tombstones)
	if man.NextID > 0 {
		s.nextID = storage.ID(man.NextID)
	}

	// Replay the WAL tail: only records beyond the manifest's flushed
	// sequence mutate state; earlier ones are already in segment files.
	walFiles, err := listWALFiles(s.dir)
	if err != nil {
		s.closeReadersLocked()
		return nil, err
	}
	maxSeq := man.FlushedSeq
	replayed := 0
	for i := range walFiles {
		wf := &walFiles[i]
		last := i == len(walFiles)-1
		err := replayWALFile(s.dir, wf, last, func(r walRecord) error {
			if r.seq > maxSeq {
				maxSeq = r.seq
			}
			if r.id >= s.nextID {
				s.nextID = r.id + 1
			}
			if r.seq <= man.FlushedSeq {
				return nil // already flushed into a segment file
			}
			replayed++
			switch r.typ {
			case walRecPut:
				if _, inMemtable := s.active.byID[r.id]; inMemtable || s.tombstones[r.id] || s.onDiskLocked(r.id) {
					return fmt.Errorf("segstore: wal put of record %d, which already exists", r.id)
				}
				s.active.put(r.id, r.seg, r.seq, r.size)
				s.liveCount++
			case walRecAppend:
				// By ID, not by tail: replay folds several WAL files into
				// one memtable, so its tails need not match Put's. No
				// sample cap either: the append passed the one in force.
				old, ok := s.active.byID[r.id]
				if !ok {
					return fmt.Errorf("segstore: wal append to record %d, which is not in the memtable", r.id)
				}
				joined, ok := wavesegment.Extend(old, r.seg, 0)
				if !ok {
					return fmt.Errorf("segstore: wal append does not continue record %d", r.id)
				}
				s.active.extend(r.id, joined, r.seq, r.size)
			case walRecDelete:
				if s.active.delete(r.id, r.seq) {
					s.liveCount--
				} else if !s.tombstones[r.id] {
					// A delete of a disk-resident record; verify it still
					// exists (compaction may have already reclaimed it
					// before the crash) so liveCount stays exact.
					if s.onDiskLocked(r.id) {
						s.tombstones[r.id] = true
						s.liveCount--
					}
				}
			}
			return nil
		})
		if err != nil {
			s.closeReadersLocked()
			return nil, err
		}
	}
	s.statsMu.Lock()
	s.walReplayed = replayed
	s.statsMu.Unlock()
	metricWALReplayed.Add(float64(replayed))
	s.nextSeq = maxSeq + 1

	// Drop replayed files that hold no committed records (a crash
	// artifact); keeping them could collide with the new active file.
	kept := walFiles[:0]
	for _, wf := range walFiles {
		if wf.maxSeq == 0 {
			_ = os.Remove(s.walPath(wf.name))
			continue
		}
		kept = append(kept, wf)
	}
	w, err := newWAL(s.dir, s.nextSeq, kept)
	if err != nil {
		s.closeReadersLocked()
		return nil, err
	}
	s.wal = w
	s.publishGauges()

	s.wg.Add(1)
	go s.flushLoop()
	if opts.CompactInterval > 0 {
		s.wg.Add(1)
		go s.compactLoop()
	}
	return s, nil
}

func (s *Store) walPath(name string) string { return s.dir + string(os.PathSeparator) + name }

// closeReadersLocked force-closes every reader during failed Open.
// Callers hold no locks; the store is not yet shared.
func (s *Store) closeReadersLocked() {
	for _, r := range s.readers {
		r.markObsolete()
	}
}

// publishGauges refreshes the observable gauges. Callers hold mu or
// have exclusive access.
func (s *Store) publishGauges() {
	metricMemBytes.Set(float64(s.active.bytes))
	metricTombstones.Set(float64(len(s.tombstones)))
	counts := map[int]int{}
	for _, fm := range s.man.Files {
		counts[fm.Level]++
	}
	for _, lvl := range []int{0, 1} {
		metricFiles.With(fmt.Sprintf("L%d", lvl)).Set(float64(counts[lvl]))
	}
}

// Put validates and stores a segment, returning the ID of the record that
// holds it. A segment that continues its stream's newest record in the
// active memtable extends that record (the WAL logs only the new packet);
// anything else becomes a new record. The memtable keeps seg itself, so
// the caller hands it over (see wavesegment.Segment).
func (s *Store) Put(seg *wavesegment.Segment) (storage.ID, error) {
	if seg == nil {
		return 0, fmt.Errorf("segstore: nil segment")
	}
	if err := seg.Validate(); err != nil {
		return 0, err
	}
	blob, err := wavesegment.MarshalBinary(seg)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	// Write stall: while a flush is writing, the active memtable takes at
	// most half its budget. Ingest cannot outrun the flusher, so the hot
	// tail stays within one and a half budgets of memory.
	stalled := func() bool {
		return s.flushing && !s.closed && s.active.bytes >= s.opts.MemtableBytes/2
	}
	if stalled() {
		metricWriteStalls.Inc()
		for stalled() {
			s.flushDone.Wait()
		}
	}
	if s.closed {
		s.mu.Unlock()
		return 0, storage.ErrClosed
	}
	typ := byte(walRecAppend)
	id, joined, extends := s.active.extension(seg, s.opts.MaxSegmentSamples)
	if !extends {
		typ, id = walRecPut, s.nextID
		s.nextID++
	}
	seq := s.nextSeq
	s.nextSeq++
	if err := s.wal.append(typ, seq, id, blob); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	if extends {
		s.active.extend(id, joined, seq, len(blob))
	} else {
		s.active.put(id, seg, seq, len(blob))
		s.liveCount++
	}
	needFlush := s.active.bytes >= s.opts.MemtableBytes
	metricMemBytes.Set(float64(s.active.bytes))
	s.mu.Unlock()
	if needFlush {
		s.kickFlush()
	}
	return id, nil
}

// kickFlush nudges the background flusher without blocking.
func (s *Store) kickFlush() {
	select {
	case s.flushCh <- struct{}{}:
	default:
	}
}

// Get returns a copy of the stored segment.
func (s *Store) Get(id storage.ID) (*wavesegment.Segment, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, storage.ErrClosed
	}
	if s.tombstones[id] {
		s.mu.RUnlock()
		return nil, fmt.Errorf("%w: id %d", storage.ErrNotFound, id)
	}
	if seg, ok := s.active.byID[id]; ok {
		s.mu.RUnlock()
		return seg.Clone(), nil
	}
	for _, m := range s.sealed {
		if seg, ok := m.byID[id]; ok {
			s.mu.RUnlock()
			return seg.Clone(), nil
		}
	}
	// Disk search: retain candidate readers, then read outside the lock.
	readers := s.retainReadersForIDLocked(id)
	s.mu.RUnlock()
	defer releaseAll(readers)
	for _, r := range readers {
		if seg, ok := findInReader(r, id); ok {
			return seg, nil
		}
	}
	return nil, fmt.Errorf("%w: id %d", storage.ErrNotFound, id)
}

// retainReadersForIDLocked retains every reader whose ID range covers
// id. Callers hold mu.
func (s *Store) retainReadersForIDLocked(id storage.ID) []*segReader {
	var out []*segReader
	for _, r := range s.readers {
		if uint64(id) >= r.meta.MinID && uint64(id) <= r.meta.MaxID {
			r.retain()
			out = append(out, r)
		}
	}
	return out
}

func releaseAll(readers []*segReader) {
	for _, r := range readers {
		r.release()
	}
}

// findInReader block-searches one file for id.
func findInReader(r *segReader, id storage.ID) (*wavesegment.Segment, bool) {
	for i, b := range r.blocks {
		if uint64(id) < b.minID || uint64(id) > b.maxID {
			continue
		}
		recs, err := r.readBlock(i)
		if err != nil {
			continue
		}
		for _, rc := range recs {
			if rc.id == id {
				return rc.seg, true
			}
		}
	}
	return nil, false
}

// onDiskLocked reports whether id exists in a segment file. Callers hold
// mu (or, during Open, have exclusive access).
func (s *Store) onDiskLocked(id storage.ID) bool {
	for _, r := range s.readers {
		if uint64(id) < r.meta.MinID || uint64(id) > r.meta.MaxID {
			continue
		}
		if _, ok := findInReader(r, id); ok {
			return true
		}
	}
	return false
}

// Delete removes a segment. Memtable-resident records are removed in
// place; sealed or disk-resident ones get a tombstone that compaction
// later reclaims physically.
func (s *Store) Delete(id storage.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return storage.ErrClosed
	}
	if s.tombstones[id] {
		return fmt.Errorf("%w: id %d", storage.ErrNotFound, id)
	}
	inSealed := false
	for _, m := range s.sealed {
		if _, ok := m.byID[id]; ok {
			inSealed = true
			break
		}
	}
	_, inActive := s.active.byID[id]
	if !inActive && !inSealed {
		// Disk check holds the write lock; deletes are rare
		// (rule-revocation reclamation), reads dominate.
		if !s.onDiskLocked(id) {
			return fmt.Errorf("%w: id %d", storage.ErrNotFound, id)
		}
	}
	seq := s.nextSeq
	s.nextSeq++
	if err := s.wal.append(walRecDelete, seq, id, nil); err != nil {
		return err
	}
	if inActive {
		s.active.delete(id, seq)
	} else {
		s.tombstones[id] = true
		metricTombstones.Set(float64(len(s.tombstones)))
	}
	s.liveCount--
	return nil
}

// Count returns the number of live segments.
func (s *Store) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.liveCount
}

// Compact forces a full maintenance cycle: flush the hot tail, then run
// one compaction round regardless of thresholds.
func (s *Store) Compact() error {
	if err := s.Flush(); err != nil {
		return err
	}
	return s.compactOnce(true)
}

// Flush synchronously seals the memtable and writes it to an L0 file.
func (s *Store) Flush() error {
	return s.flushOnce()
}

// Close stops background work, flushes the hot tail to a final segment
// file (making the next open near-instant), and releases every file.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	close(s.stopCh)
	s.wg.Wait()

	flushErr := s.flushOnce()

	s.mu.Lock()
	s.closed = true
	err := s.wal.close()
	if flushErr != nil && err == nil {
		err = flushErr
	}
	readers := make([]*segReader, 0, len(s.readers))
	for _, r := range s.readers {
		readers = append(readers, r)
	}
	s.readers = make(map[string]*segReader)
	s.mu.Unlock()
	for _, r := range readers {
		r.markObsolete()
	}
	return err
}

// flushLoop is the background flusher; it wakes on memtable pressure.
func (s *Store) flushLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.flushCh:
			s.noteMaintenanceErr("flush", s.flushOnce())
		}
	}
}

// compactLoop runs compaction on a timer.
func (s *Store) compactLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			s.noteMaintenanceErr("compact", s.compactOnce(false))
		}
	}
}

// noteMaintenanceErr surfaces background flush/compaction failures via
// the error counter and Stats; background loops have nobody to return
// errors to.
func (s *Store) noteMaintenanceErr(op string, err error) {
	if err == nil || errors.Is(err, storage.ErrClosed) {
		return
	}
	metricMaintErr.Inc()
	s.statsMu.Lock()
	s.lastError = op + ": " + err.Error()
	s.statsMu.Unlock()
}

func (s *Store) hook(stage string) error {
	if s.crashHook == nil {
		return nil
	}
	return s.crashHook(stage)
}

// SetCrashHook installs a failpoint for crash-safety tests such as
// TestKillDuringCompaction: fn is invoked at named points of the flush and
// compaction protocols ("flush.begin", "flush.file", "flush.manifest",
// "flush.done", "compact.begin", "compact.files", "compact.manifest",
// "compact.done"), and a non-nil return aborts the operation there,
// leaving the on-disk state a real crash would. The store must be
// reopened afterwards; the aborted instance's in-memory view is stale
// by design. Never set on a production store.
func (s *Store) SetCrashHook(fn func(stage string) error) {
	// The hook is only read with maintenanceMu held, so taking it here
	// makes the swap safe against a concurrent flush or compaction.
	s.maintenanceMu.Lock()
	s.crashHook = fn
	s.maintenanceMu.Unlock()
}

// skipGeneration handles a failed save of next. The save may have failed
// after its rename (a failed directory sync), so disk may hold next while
// memory keeps serving the generation before it. Nothing is rolled back
// or deleted, so both keep their files, and next's generation and file
// numbers are never issued again, so no later write changes a file next
// names. The next open removes the files its manifest does not name.
func (s *Store) skipGeneration(next *manifest) {
	s.mu.Lock()
	cur := *s.man
	cur.Generation, cur.NextFile = next.Generation, next.NextFile
	s.man = &cur
	s.mu.Unlock()
}

// flushOnce seals the active memtable and writes every sealed memtable
// into one L0 segment file. The manifest write is the commit point;
// after it, covered WAL files are garbage-collected.
func (s *Store) flushOnce() error {
	s.maintenanceMu.Lock()
	defer s.maintenanceMu.Unlock()
	//sslint:ignore ctxpropagate background maintenance is a call-tree root with no request context
	_, _, stop := obs.Span(context.Background(), "segstore.flush")
	err := s.flushLocked()
	stop(err)
	return err
}

// flushLocked is flushOnce minus locking; callers hold maintenanceMu.
func (s *Store) flushLocked() error {
	if err := s.hook("flush.begin"); err != nil {
		return err
	}
	// Seal: rotate the WAL and move the active memtable aside.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return storage.ErrClosed
	}
	if s.active.len() > 0 {
		if err := s.wal.rotate(s.nextSeq); err != nil {
			s.mu.Unlock()
			return err
		}
		s.sealed = append(s.sealed, s.active)
		s.active = newMemtable()
		metricMemBytes.Set(0)
	}
	if len(s.sealed) == 0 {
		s.mu.Unlock()
		return nil
	}
	s.flushing = true
	defer func() {
		s.mu.Lock()
		s.flushing = false
		s.flushDone.Broadcast()
		s.mu.Unlock()
	}()
	mems := make([]*memtable, len(s.sealed))
	copy(mems, s.sealed)
	skip := make(map[storage.ID]bool, len(s.tombstones))
	for id := range s.tombstones {
		skip[id] = true
	}
	fileSeq := s.man.NextFile + 1
	s.mu.Unlock()

	// Gather the sealed records in (start, id) order, skipping ones
	// already tombstoned — those never reach disk.
	var sources [][]rec
	flushedSeq := uint64(0)
	total := 0
	for _, m := range mems {
		sources = append(sources, m.sorted())
		if m.lastSeq > flushedSeq {
			flushedSeq = m.lastSeq
		}
		total += m.len()
	}
	merged := mergeSorted(sources)
	consumed := make(map[storage.ID]bool)
	var meta fileMeta
	wrote := false
	if total > 0 {
		w, err := newSegWriter(s.dir, segFileName(fileSeq), 0)
		if err != nil {
			return err
		}
		for _, rc := range merged {
			if skip[rc.id] {
				consumed[rc.id] = true
				continue
			}
			if err := w.add(rc); err != nil {
				w.abort()
				return err
			}
			wrote = true
		}
		if wrote {
			meta, err = w.finish()
			if err != nil {
				return err
			}
		} else {
			w.abort()
		}
	}
	if err := s.hook("flush.file"); err != nil {
		return err
	}

	// Commit: next manifest generation references the new file and
	// advances the flushed sequence.
	s.mu.Lock()
	next := *s.man
	next.Files = append([]fileMeta(nil), s.man.Files...)
	if wrote {
		next.Files = append(next.Files, meta)
		next.NextFile = fileSeq
	}
	if flushedSeq > next.FlushedSeq {
		next.FlushedSeq = flushedSeq
	}
	next.NextID = uint64(s.nextID)
	next.Tombstones = nil
	for id := range s.tombstones {
		if !consumed[id] {
			next.Tombstones = append(next.Tombstones, uint64(id))
		}
	}
	s.mu.Unlock()
	if err := saveManifest(s.dir, &next); err != nil {
		s.skipGeneration(&next)
		return err
	}
	if err := s.hook("flush.manifest"); err != nil {
		return err
	}

	// Swap in the committed state.
	var reader *segReader
	if wrote {
		var err error
		reader, err = openSegReader(s.dir, meta)
		if err != nil {
			return fmt.Errorf("segstore: reopen flushed file: %w", err)
		}
	}
	s.mu.Lock()
	s.man = &next
	if reader != nil {
		s.readers[meta.Name] = reader
	}
	// Drop exactly the memtables we flushed; new ones may have been
	// sealed meanwhile.
	remaining := s.sealed[:0]
	flushedSet := make(map[*memtable]bool, len(mems))
	for _, m := range mems {
		flushedSet[m] = true
	}
	for _, m := range s.sealed {
		if !flushedSet[m] {
			remaining = append(remaining, m)
		}
	}
	s.sealed = remaining
	for id := range consumed {
		delete(s.tombstones, id)
	}
	// Replay skips frames at or below FlushedSeq, so a WAL file whose
	// removal was not made durable does no harm; the error still reaches
	// the caller.
	gcErr := s.wal.gc(next.FlushedSeq)
	s.publishGauges()
	s.mu.Unlock()

	metricFlushes.Inc()
	s.statsMu.Lock()
	s.flushes++
	s.statsMu.Unlock()
	if gcErr != nil {
		return gcErr
	}
	return s.hook("flush.done")
}
