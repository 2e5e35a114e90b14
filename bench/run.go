package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sensorsafe/internal/query"
	"sensorsafe/internal/segstore"
)

// value is one measured metric.
type value struct {
	Value float64
	Unit  string
	N     int // observations behind the value
}

// result is what one run of one workload found.
type result struct {
	Workload  string
	Seed      int64
	Trace     bool
	Attempted int
	Failed    int
	Correct   bool
	// Invalid marks a run whose load generator was itself the bottleneck
	// (more than 60 % of one core, or more than 50 ms late at p95); its
	// numbers are printed but not compared.
	Invalid bool
	Metrics map[string]value
	// Counts repeat exactly for a seed on the closed-loop workloads' fixed
	// parts; they are printed for the reader, not compared.
	Counts map[string]int64
	Notes  []string
}

func (r *result) set(name string, v float64, n int) {
	spec, ok := specOf(name)
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	r.Metrics[name] = value{Value: v, Unit: spec.Unit, N: n}
}

// runWorkload performs one run: set-up (several times), the measurement
// window, kill-and-restart recovery (several times), verification, and a
// graceful stop to size the store directory. Given a tracer it also
// records the bench's own spans, polls the servers' debug endpoints, and
// runs the in-process layer ladder.
func runWorkload(ctx context.Context, e *env, in *inputs, workload string, d time.Duration, tr *tracer) (*result, error) {
	traced := tr != nil
	res := &result{Workload: workload, Seed: in.seed, Trace: traced, Metrics: map[string]value{}, Counts: map[string]int64{}}

	// The servers' logs are appended to across the restarts of one run, and
	// start empty with each run.
	for _, proc := range []string{"store", "broker"} {
		_ = os.Remove(filepath.Join(e.outDir, workload+"."+proc+".log")) // absent on a first run
	}

	setups := setupsPerRun
	if traced {
		setups = 1 // setup_s is an end-to-end metric; the traced run spends the time on the ladder
	}
	var st *stack
	var setupS []float64
	for i := 0; i < setups; i++ {
		if st != nil {
			st.close()
		}
		begin := time.Now()
		var err error
		if st, err = setup(ctx, e, in, workload, i); err != nil {
			return nil, fmt.Errorf("bench: %s set-up: %w", workload, err)
		}
		setupS = append(setupS, time.Since(begin).Seconds())
	}
	defer st.close()

	var ob *observer
	if traced {
		tr.workload = workload
		var err error
		if ob, err = startObserver(ctx, st); err != nil {
			return nil, err
		}
	}
	storeBefore, err := readProc(st.store.pid())
	if err != nil {
		return nil, err
	}
	genBefore, logBefore := selfCPU(), fileBytes(st.store.logPath)

	m := measure(ctx, st, in, d, tr)

	genCPU := selfCPU() - genBefore
	storeAfter, err := readProc(st.store.pid())
	if err != nil {
		if exit := st.store.exited(); exit != nil {
			return nil, exit
		}
		return nil, err
	}
	logBytes := fileBytes(st.store.logPath) - logBefore
	if ob != nil {
		if err := ob.stop(ctx); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("bench: %s interrupted or over its wall cap: %w", workload, err)
	}

	if workload == "ingest_bulk" || workload == "live_mixed" {
		if err := st.settle(ctx, in); err != nil {
			return nil, err
		}
	}
	recoveryS, walReplayed, verifyErr := st.recoverAndVerify(ctx, in)
	st.store.stop()
	diskBytes, err := dirBytes(st.dir)
	if err != nil {
		return nil, err
	}

	// Accounting.
	var lat, upLat, qLat, delLat, searchLat, late []float64
	rowsMoved, sheds, eveRows, wrong := okRows(m.ops), 0, 0, 0
	for _, op := range m.ops {
		sheds += op.sheds
		if op.wrong {
			wrong++
		}
		if op.eve {
			eveRows += op.rows
		}
		if op.kind != opDelivery {
			res.Attempted++
			late = append(late, ms(op.late))
		}
		if !op.ok {
			res.Failed++
			continue
		}
		switch op.kind {
		case opUpload:
			upLat = append(upLat, ms(op.lat))
		case opQuery:
			qLat = append(qLat, ms(op.lat))
		case opSearch:
			searchLat = append(searchLat, ms(op.lat))
		case opDelivery:
			delLat = append(delLat, ms(op.lat))
			continue // a delivery is a consequence of an upload, not an op of its own
		}
		lat = append(lat, ms(op.lat))
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("bench: %s measured no op in %v", workload, d)
	}
	rowsStored := 0
	for c := range st.owners {
		rowsStored += timelineTotal(in, c, st.ackedBatches(c))
	}
	res.Counts["ops_attempted"] = int64(res.Attempted)
	res.Counts["rows_moved"] = int64(rowsMoved)
	res.Counts["rows_stored"] = int64(rowsStored)
	res.Counts["wire_bytes"] = m.wireBytes
	res.Counts["eve_rows"] = int64(eveRows)
	res.Counts["revocation_violations"] = int64(m.violations)

	res.Counts["wrong_answers"] = int64(wrong)
	// An op that came back with an error has failed; only a wrong answer
	// makes the run incorrect.
	res.Correct = wrong == 0 && verifyErr == nil && m.violations == 0 && eveRows == 0
	if verifyErr != nil {
		res.Notes = append(res.Notes, "verification after kill-restart failed: "+verifyErr.Error())
	}
	res.Notes = append(res.Notes, fmt.Sprintf("recovery_s per kill: %.4f", recoveryS))
	res.Notes = append(res.Notes, "recovery is kill-restart (SIGKILL, page cache intact), not power loss: the WAL is not fsynced per write by default")

	storeCPU := storeAfter.cpu() - storeBefore.cpu()
	li := layerInputs{
		lat: lat, upLat: upLat, qLat: qLat, delLat: delLat, searchLat: searchLat, late: late,
		sheds: sheds, rowsMoved: rowsMoved, walReplayed: walReplayed, logBytes: logBytes,
		genCPU: genCPU, store: [2]procSample{storeBefore, storeAfter}, recoveryS: recoveryS,
	}
	res.client(m, li)
	if traced {
		if err := res.layers(ctx, e, st, in, m, ob, tr, li); err != nil {
			return nil, fmt.Errorf("bench: %s per-layer report: %w", workload, err)
		}
	} else {
		res.set("setup_s", median(setupS), len(setupS))
		res.set("op_p50_ms", median(lat), len(lat))
		res.set("op_p90_ms", quantileOf(lat, 0.90), len(lat))
		res.set("samples_per_s", m.rowsPerS, rowsMoved)
		res.set("server_cpu_ms_per_op", ms(storeCPU)/float64(res.Attempted), res.Attempted)
		res.set("wire_bytes_per_sample", float64(m.wireBytes)/float64(max(rowsMoved, 1)), rowsMoved)
		res.set("disk_bytes_per_sample", float64(diskBytes)/float64(max(rowsStored, 1)), rowsStored)
	}
	// The generator must not be the bottleneck it is measuring.
	// (In the closed loops the clients' encoding and decoding is part of the
	// path being measured, so only the open loop is judged.)
	if workload == "live_mixed" && (genCPU.Seconds() > 0.6*m.elapsed.Seconds() || quantileOf(late, 0.95) > 50) {
		res.Invalid = true
		res.Notes = append(res.Notes, fmt.Sprintf("invalid: generator used %.2f s CPU in %.2f s, send lateness p95 %.1f ms",
			genCPU.Seconds(), m.elapsed.Seconds(), quantileOf(late, 0.95)))
	}
	return res, nil
}

// recoverAndVerify kills the store with SIGKILL and restarts it on the same
// directory recoveriesPerRun times, timing each from the kill until the
// restarted store answers /healthz (the WAL tail is replayed before it
// listens) and has acknowledged one more upload. Reads are not part of the
// timing: after a write burst the restarted store sheds them until its 30 s
// compaction timer fires. The read-back is checked afterwards, on a
// compacted directory: every contributor must read exactly the rows the
// store acknowledged.
func (st *stack) recoverAndVerify(ctx context.Context, in *inputs) (seconds []float64, walReplayed float64, err error) {
	for i := 0; i < recoveriesPerRun; i++ {
		begin := time.Now()
		st.store.kill()
		if err := st.restart(ctx); err != nil {
			return nil, 0, err
		}
		sc, _ := newStoreClient(st.store.addr)
		if _, err := sc.UploadCtx(ctx, st.owners[0].Key, timelineBatch(in, 0, st.ackedBatches(0))); err != nil {
			return nil, 0, fmt.Errorf("bench: first upload after restart: %w", err)
		}
		seconds = append(seconds, time.Since(begin).Seconds())
		st.ack(0)
		if i == 0 {
			if data, err := httpGet(ctx, st.store.addr+"/debug/segstore"); err == nil {
				var stats segstore.Stats
				if json.Unmarshal(data, &stats) == nil {
					walReplayed = float64(stats.WALReplayed)
				}
			}
		}
	}
	if err := st.restartCompacted(ctx); err != nil {
		return seconds, walReplayed, err
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sc, _ := newStoreClient(st.store.addr)
			for c := p; c < len(st.owners); c += 2 {
				want := timelineTotal(in, c, st.ackedBatches(c))
				segs, err := sc.QueryOwnCtx(ctx, st.owners[c].Key, &query.Query{})
				if err != nil {
					errs[p] = err
					return
				}
				got := 0
				for _, s := range segs {
					got += s.NumSamples()
				}
				if got != want {
					errs[p] = fmt.Errorf("%s reads back %d rows, acknowledged %d", contributorName(c), got, want)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	return seconds, walReplayed, errors.Join(errs...)
}
