package segstore

import "time"

// LevelStats summarizes one LSM level of the file set.
type LevelStats struct {
	Level   int   `json:"level"`
	Files   int   `json:"files"`
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`
	// RawBytes is the pre-compression size of the level's blocks.
	RawBytes int64 `json:"rawBytes"`
}

// Stats is a point-in-time snapshot of the engine, served by the
// store's /debug/segstore endpoint and `consumercli storestats`.
type Stats struct {
	Dir             string `json:"dir"`
	MemtableRecords int    `json:"memtableRecords"`
	MemtableBytes   int64  `json:"memtableBytes"`
	// MemtableBudget is Options.MemtableBytes — the flush trigger — so
	// backlog consumers (the overload controller's pressure sources) can
	// normalize MemtableBytes without knowing the engine's configuration.
	MemtableBudget  int64 `json:"memtableBudget"`
	SealedMemtables int   `json:"sealedMemtables"`
	// L0Threshold is l0CompactThreshold, the L0 file count that
	// triggers compaction; L0 files beyond it are compaction debt.
	L0Threshold    int          `json:"l0Threshold"`
	WALFiles       int          `json:"walFiles"`
	WALBytes       int64        `json:"walBytes"`
	WALReplayed    int          `json:"walReplayed"` // records replayed at open
	Levels         []LevelStats `json:"levels"`
	LiveRecords    int          `json:"liveRecords"`
	DiskRecords    int          `json:"diskRecords"`
	Tombstones     int          `json:"tombstones"` // dead records awaiting reclamation
	Flushes        uint64       `json:"flushes"`
	Compactions    uint64       `json:"compactions"`
	MergedRecords  uint64       `json:"mergedRecords"`    // wave-merged away, lifetime
	ReclaimedTombs uint64       `json:"reclaimedRecords"` // tombstones purged, lifetime
	LastCompaction time.Time    `json:"lastCompaction,omitempty"`
	LastCompactMS  int64        `json:"lastCompactionMillis"`
	LastError      string       `json:"lastError,omitempty"`
}

// Stats snapshots the engine.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	st := Stats{
		Dir:             s.dir,
		MemtableRecords: s.active.len(),
		MemtableBytes:   s.active.bytes,
		MemtableBudget:  s.opts.MemtableBytes,
		SealedMemtables: len(s.sealed),
		L0Threshold:     l0CompactThreshold,
		LiveRecords:     s.liveCount,
		Tombstones:      len(s.tombstones),
	}
	byLevel := make(map[int]*LevelStats)
	for _, fm := range s.man.Files {
		ls := byLevel[fm.Level]
		if ls == nil {
			ls = &LevelStats{Level: fm.Level}
			byLevel[fm.Level] = ls
		}
		ls.Files++
		ls.Records += fm.Records
		ls.Bytes += fm.Bytes
		ls.RawBytes += fm.RawBytes
		st.DiskRecords += fm.Records
	}
	for lvl := 0; lvl <= 8; lvl++ {
		if ls, ok := byLevel[lvl]; ok {
			st.Levels = append(st.Levels, *ls)
		}
	}
	st.WALFiles = 1 + len(s.wal.sealed)
	st.WALBytes = s.wal.active.bytes
	for _, wf := range s.wal.sealed {
		st.WALBytes += wf.bytes
	}
	s.mu.RUnlock()

	s.statsMu.Lock()
	st.WALReplayed = s.walReplayed
	st.Flushes = s.flushes
	st.Compactions = s.compactions
	st.MergedRecords = s.mergedRecords
	st.ReclaimedTombs = s.reclaimed
	st.LastCompaction = s.lastCompaction
	st.LastCompactMS = s.lastCompactDur.Milliseconds()
	st.LastError = s.lastError
	s.statsMu.Unlock()
	return st
}
