package experiments

import (
	"errors"
	"fmt"
	"os"
	"time"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/segstore"
	"sensorsafe/internal/storage"
	"sensorsafe/internal/wavesegment"
)

// E12 measures the persistent columnar segment store (internal/segstore)
// on the three properties the storage redesign promised:
//
//  1. Cold restart reads manifests and footers, not data: reopening a
//     store holding >= 100k segments must take seconds.
//  2. Range scans over the columnar files stay within a small factor of
//     the in-memory engine (the price of durability + bounded memory).
//  3. A kill at any stage of background compaction loses nothing and
//     duplicates nothing (chaos via segstore.SetCrashHook failpoints).

// E12Config parameterizes the storage-engine benchmark.
type E12Config struct {
	// Records is the store population (the acceptance floor is 100k).
	Records int
	// Contributors spreads the records over this many streams.
	Contributors int
	// SamplesPerRecord sizes each wave segment.
	SamplesPerRecord int
	// ScanRounds full-range scans per engine; the fastest round counts.
	ScanRounds int
	// RestartTargetSeconds is the cold-open budget.
	RestartTargetSeconds float64
	// ScanRatioTarget caps segstore scan time relative to in-memory.
	ScanRatioTarget float64
	// ChaosRecords sizes each kill-during-compaction round.
	ChaosRecords int
}

// DefaultE12 matches the documented E12 configuration.
func DefaultE12() E12Config {
	return E12Config{
		Records:              100_000,
		Contributors:         20,
		SamplesPerRecord:     4,
		ScanRounds:           3,
		RestartTargetSeconds: 5,
		ScanRatioTarget:      2,
		ChaosRecords:         1_200,
	}
}

// E12Result is the BENCH_7.json shape CI archives.
type E12Result struct {
	Experiment       string  `json:"experiment"`
	Description      string  `json:"description"`
	Records          int     `json:"records"`
	IngestMS         float64 `json:"ingest_ms"`
	RestartSegstMS   float64 `json:"restart_segstore_ms"`
	RestartTargetSec float64 `json:"restart_target_sec"`
	ScanDiskMS       float64 `json:"scan_disk_ms"`
	ScanMemoryMS     float64 `json:"scan_memory_ms"`
	ScanRatio        float64 `json:"scan_ratio"`
	ScanRatioTarget  float64 `json:"scan_ratio_target"`
	ChaosKills       int     `json:"chaos_kills"`
	ChaosSurvived    int     `json:"chaos_survived"`
	Pass             bool    `json:"pass"`
}

// e12Seg builds one benchmark segment. Records within a contributor are
// deliberately non-contiguous (10 s stride, shorter span) so compaction
// keeps the record count at the configured scale instead of wave-merging
// the population away.
func e12Seg(contributor string, idx, samples int) *wavesegment.Segment {
	base := time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)
	s := &wavesegment.Segment{
		Contributor: contributor,
		Start:       base.Add(time.Duration(idx*10) * time.Second),
		Interval:    time.Second,
		Location:    geo.Point{Lat: 34.07, Lon: -118.45},
		Channels:    []string{"ECG", "GSR"},
	}
	for i := 0; i < samples; i++ {
		s.Values = append(s.Values, []float64{float64(idx%97) + float64(i)/10, 0.5})
	}
	return s
}

func e12Fill(eng storage.Engine, cfg E12Config) error {
	perContrib := cfg.Records / cfg.Contributors
	for c := 0; c < cfg.Contributors; c++ {
		name := fmt.Sprintf("contrib-%02d", c)
		for i := 0; i < perContrib; i++ {
			if _, err := eng.Put(e12Seg(name, i, cfg.SamplesPerRecord)); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunE12 runs the storage-engine benchmark and chaos check.
func RunE12(cfg E12Config) (*E12Result, *Table, error) {
	segDir, err := os.MkdirTemp("", "e12-segstore-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(segDir)

	total := (cfg.Records / cfg.Contributors) * cfg.Contributors

	// Populate the segstore, compacting into its steady state, and the
	// in-memory engine with identical data.
	seg, err := segstore.Open(segstore.Options{Dir: segDir})
	if err != nil {
		return nil, nil, err
	}
	ingestStart := time.Now()
	if err := e12Fill(seg, cfg); err != nil {
		return nil, nil, err
	}
	ingestMS := float64(time.Since(ingestStart).Microseconds()) / 1000
	if err := seg.Compact(); err != nil {
		return nil, nil, err
	}
	if err := seg.Close(); err != nil {
		return nil, nil, err
	}
	mem := storage.NewMemory(0)
	defer mem.Close()
	if err := e12Fill(mem, cfg); err != nil {
		return nil, nil, err
	}

	// Cold restart: the segstore reads manifests + footers + WAL tail.
	restartStart := time.Now()
	seg2, err := segstore.Open(segstore.Options{Dir: segDir})
	if err != nil {
		return nil, nil, err
	}
	restartSegMS := float64(time.Since(restartStart).Microseconds()) / 1000
	defer seg2.Close()
	if got := seg2.Count(); got != total {
		return nil, nil, fmt.Errorf("e12: segstore reopened with %d records, want %d", got, total)
	}

	// Range-scan throughput: full-range Scan (the consumer query path,
	// results cloned) on the file-backed engine vs the in-memory index.
	scanAll := func(eng storage.Engine) (time.Duration, error) {
		var best time.Duration
		for r := 0; r < cfg.ScanRounds; r++ {
			start := time.Now()
			res, err := eng.Scan(storage.Query{})
			if err != nil {
				return 0, err
			}
			if len(res) != total {
				return 0, fmt.Errorf("e12: scan returned %d records, want %d", len(res), total)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}
	diskDur, err := scanAll(seg2)
	if err != nil {
		return nil, nil, err
	}
	memDur, err := scanAll(mem)
	if err != nil {
		return nil, nil, err
	}
	ratio := diskDur.Seconds() / memDur.Seconds()

	// Chaos: kill compaction at every protocol stage; each kill must
	// lose nothing and duplicate nothing.
	stages := []string{"compact.begin", "compact.files", "compact.manifest", "compact.done"}
	survived := 0
	for _, stage := range stages {
		if err := e12ChaosRound(cfg, stage); err != nil {
			return nil, nil, fmt.Errorf("e12: kill at %s: %w", stage, err)
		}
		survived++
	}

	res := &E12Result{
		Experiment:       "E12",
		Description:      "persistent columnar segment store: cold-restart time, range-scan throughput vs in-memory baseline, kill-during-compaction chaos",
		Records:          total,
		IngestMS:         ingestMS,
		RestartSegstMS:   restartSegMS,
		RestartTargetSec: cfg.RestartTargetSeconds,
		ScanDiskMS:       float64(diskDur.Microseconds()) / 1000,
		ScanMemoryMS:     float64(memDur.Microseconds()) / 1000,
		ScanRatio:        ratio,
		ScanRatioTarget:  cfg.ScanRatioTarget,
		ChaosKills:       len(stages),
		ChaosSurvived:    survived,
	}
	res.Pass = restartSegMS < cfg.RestartTargetSeconds*1000 &&
		ratio <= cfg.ScanRatioTarget &&
		survived == len(stages)

	restartVerdict := "PASS"
	if restartSegMS >= cfg.RestartTargetSeconds*1000 {
		restartVerdict = fmt.Sprintf("FAIL: %.0fms >= %.0fs budget", restartSegMS, cfg.RestartTargetSeconds)
	}
	scanVerdict := "PASS"
	if ratio > cfg.ScanRatioTarget {
		scanVerdict = fmt.Sprintf("FAIL: %.2fx > %.0fx budget", ratio, cfg.ScanRatioTarget)
	}
	chaosVerdict := "PASS"
	if survived != len(stages) {
		chaosVerdict = fmt.Sprintf("FAIL: %d/%d", survived, len(stages))
	}

	t := &Table{
		ID:      "E12",
		Caption: fmt.Sprintf("persistent segment store vs in-memory engine (%d records, %d contributors)", total, cfg.Contributors),
		Headers: []string{"measure", "segstore", "in-memory", "verdict"},
		Notes: []string{
			"restart: segstore reads manifest + file footers + WAL tail, not data",
			fmt.Sprintf("scan: full-range Scan with cloned results, best of %d rounds; budget %.0fx the in-memory engine", cfg.ScanRounds, cfg.ScanRatioTarget),
			"chaos: segstore.SetCrashHook aborts compaction at each protocol stage; the reopened store must match the pre-kill scan exactly (zero loss, zero duplicates)",
		},
	}
	t.AddRow("cold restart", fmt.Sprintf("%.0f ms", restartSegMS), "n/a", restartVerdict)
	t.AddRow("full-range scan", fmt.Sprintf("%.0f ms", res.ScanDiskMS), fmt.Sprintf("%.0f ms", res.ScanMemoryMS), scanVerdict)
	t.AddRow("kill during compaction", fmt.Sprintf("%d/%d survived", survived, len(stages)), "n/a", chaosVerdict)
	return res, t, nil
}

// e12ChaosRound builds a small multi-file store with tombstones, kills
// compaction at the named stage, reopens, and verifies the surviving
// record set is exactly the pre-kill one.
func e12ChaosRound(cfg E12Config, stage string) error {
	dir, err := os.MkdirTemp("", "e12-chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := segstore.Open(segstore.Options{Dir: dir})
	if err != nil {
		return err
	}
	var ids []storage.ID
	perFile := cfg.ChaosRecords / 3
	for f := 0; f < 3; f++ {
		for i := 0; i < perFile; i++ {
			id, err := s.Put(e12Seg("chaos", f*perFile+i, cfg.SamplesPerRecord))
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
		if err := s.Flush(); err != nil {
			return err
		}
	}
	for i := 0; i < len(ids); i += 7 {
		if err := s.Delete(ids[i]); err != nil {
			return err
		}
	}
	want, err := e12Snapshot(s)
	if err != nil {
		return err
	}

	boom := errors.New("injected kill")
	s.SetCrashHook(func(st string) error {
		if st == stage {
			return boom
		}
		return nil
	})
	if err := s.Compact(); !errors.Is(err, boom) {
		return fmt.Errorf("compaction did not hit the failpoint: %v", err)
	}
	// Abandon the killed instance (its in-memory view is stale by
	// design) and recover from disk alone.
	s.SetCrashHook(nil)
	if err := s.Close(); err != nil {
		return err
	}
	s2, err := segstore.Open(segstore.Options{Dir: dir})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer s2.Close()
	got, err := e12Snapshot(s2)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("recovered %d live records, want %d", len(got), len(want))
	}
	for id, b := range want {
		if got[id] != b {
			return fmt.Errorf("record %d lost or corrupted", id)
		}
	}
	// The store must remain fully operational: a clean compaction on the
	// recovered state converges and changes nothing.
	if err := s2.Compact(); err != nil {
		return fmt.Errorf("compact after recovery: %w", err)
	}
	after, err := e12Snapshot(s2)
	if err != nil {
		return err
	}
	if len(after) != len(want) {
		return fmt.Errorf("post-recovery compaction changed the record count: %d != %d", len(after), len(want))
	}
	return nil
}

// e12Snapshot maps every live record ID to its encoded payload, erroring
// on duplicates (a record visible from two sources at once).
func e12Snapshot(s *segstore.Store) (map[storage.ID]string, error) {
	res, err := s.Scan(storage.Query{})
	if err != nil {
		return nil, err
	}
	out := make(map[storage.ID]string, len(res))
	for _, r := range res {
		if _, dup := out[r.ID]; dup {
			return nil, fmt.Errorf("record %d returned twice", r.ID)
		}
		b, err := wavesegment.MarshalBinary(r.Segment)
		if err != nil {
			return nil, err
		}
		out[r.ID] = string(b)
	}
	return out, nil
}
