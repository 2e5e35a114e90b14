package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/broker"
	"sensorsafe/internal/httpapi"
	"sensorsafe/internal/query"
	"sensorsafe/internal/stream"
)

// measured is what one measurement window produced.
type measured struct {
	ops     []opRec
	elapsed time.Duration // first op sent to last op answered
	// rowsPerS is the sample rows moved per second. In a closed loop it is
	// the clients' own rates added up, each over the time until that
	// client's last answer, so that the client that finishes first is not
	// counted as idle while the other ends its last op.
	rowsPerS  float64
	wireBytes int64 // request + response bodies of the measured ops
	sentBytes int64 // the request bodies among them
	// uploadedValueBytes is the raw size of the uploaded samples: 8 bytes
	// per value, the base of the store's write amplification.
	uploadedValueBytes int64
	gaps               int // live_mixed: gap events the subscriber saw
	violations         int // live_mixed: rows bob received from A while denied
	polls              int // live_mixed: stream long-polls answered
	pollSheds          int // live_mixed: stream long-polls shed
}

// measure runs the workload's load for d against st.
func measure(ctx context.Context, st *stack, in *inputs, d time.Duration, tr *tracer) measured {
	switch st.workload {
	case "ingest_bulk":
		return closedLoop(ctx, st, d, tr, func(p int, sc *httpapi.StoreClient) func(int) opRec {
			return func(i int) opRec {
				// Phone p feeds contributors 4p..4p+3 in turn, so all of
				// them grow together.
				c := p*bulkContributors/2 + i%(bulkContributors/2)
				segs := timelineBatch(in, c, i/(bulkContributors/2))
				rows := 0
				for _, s := range segs {
					rows += s.NumSamples()
				}
				rec := opRec{kind: opUpload, start: time.Now(), rows: rows}
				_, err := sc.UploadCtx(ctx, st.owners[c].Key, segs)
				rec.lat = time.Since(rec.start)
				if rec.ok = err == nil; rec.ok {
					st.ack(c)
				}
				return rec
			}
		})
	case "query_point", "query_range":
		window := pointWindow
		if st.workload == "query_range" {
			window = rangeWindow
		}
		return closedLoop(ctx, st, d, tr, func(p int, sc *httpapi.StoreClient) func(int) opRec {
			ops := newQueryOps(in, p, window, in.sessions[0].batches())
			return func(int) opRec {
				op := ops.next()
				key := st.bob
				if op.Consumer == "eve" {
					key = st.eve
				}
				rec := opRec{kind: opQuery, start: time.Now(), eve: op.Consumer == "eve"}
				rels, err := sc.QueryCtx(ctx, key, op.query())
				rec.lat = time.Since(rec.start)
				rec.rows = releasedRows(rels)
				rec.ok = err == nil && rec.rows <= op.Max && (op.Want < 0 || rec.rows == op.Want)
				rec.wrong = err == nil && !rec.ok
				return rec
			}
		})
	case "live_mixed":
		return liveMixed(ctx, st, in, d, tr)
	}
	panic("unknown workload " + st.workload)
}

// okRows counts the sample rows the successful ops moved over the wire:
// uploaded, released to a query, or delivered to the subscriber.
func okRows(ops []opRec) int {
	n := 0
	for _, op := range ops {
		if op.ok {
			n += op.rows
		}
	}
	return n
}

// valueBytes is the raw size of the samples the successful uploads carried.
// A batch is half chest-band packets (2 channels) and half phone packets
// (6 channels), so a row averages 4 values of 8 bytes.
func valueBytes(ops []opRec) int64 {
	var rows int64
	for _, op := range ops {
		if op.kind == opUpload && op.ok {
			rows += int64(op.rows)
		}
	}
	return rows * 4 * 8
}

// closedLoop runs two clients, each with its own connection, each sending
// its next op when the previous one has been answered, until d has passed.
func closedLoop(ctx context.Context, st *stack, d time.Duration, tr *tracer,
	client func(p int, sc *httpapi.StoreClient) func(i int) opRec) measured {
	const clients = 2
	var m measured
	var wires [clients]*wire
	var ops [clients][]opRec
	var took [clients]time.Duration
	var steps [clients]func(int) opRec
	for p := 0; p < clients; p++ {
		sc, w := newStoreClient(st.store.addr)
		_, _ = sc.HealthCtx(ctx) // opens the connection before the clock starts
		w.sent.Store(0)
		w.received.Store(0)
		wires[p], steps[p] = w, client(p, sc)
	}
	begin := time.Now()
	deadline := begin.Add(d)
	var wg sync.WaitGroup
	for p := 0; p < clients; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				rec := steps[p](i)
				tr.op(rec)
				ops[p] = append(ops[p], rec)
			}
			took[p] = time.Since(begin)
		}(p)
	}
	wg.Wait()
	m.elapsed = time.Since(begin)
	for p := 0; p < clients; p++ {
		m.ops = append(m.ops, ops[p]...)
		m.rowsPerS += float64(okRows(ops[p])) / took[p].Seconds()
		m.wireBytes += wires[p].sent.Load() + wires[p].received.Load()
		m.sentBytes += wires[p].sent.Load()
	}
	m.uploadedValueBytes = valueBytes(m.ops)
	return m
}

// Open-loop rates of live_mixed.
const (
	liveUploadEvery = 80 * time.Millisecond  // alternating contributors A and B
	liveQueryEvery  = 100 * time.Millisecond // one minute of the newest data, alternating A and B
	liveFlipEvery   = 2 * time.Second        // A: bob allow <-> deny
	liveSearchEvery = time.Second            // broker search
	livePollWait    = 500 * time.Millisecond // subscriber's long-poll
	liveShedPause   = 100 * time.Millisecond // before re-sending a shed request
)

// liveOp is one entry of the open-loop schedule.
type liveOp struct {
	kind  opKind
	due   time.Duration // offset from the start of the window
	c     int           // contributor: 0 = A, 1 = B
	retry time.Duration // offset before which a shed op is not re-sent
	first time.Duration // offset at which it was first sent
	sheds int
}

// liveSchedule lists every op of a window of length d, ordered by due time.
// Offsets are staggered so that no two ops fall due together.
func liveSchedule(d time.Duration) []liveOp {
	var ops []liveOp
	for i, t := 0, time.Duration(0); t < d; i, t = i+1, t+liveUploadEvery {
		ops = append(ops, liveOp{kind: opUpload, due: t, c: i % 2})
	}
	for i, t := 0, 25*time.Millisecond; t < d; i, t = i+1, t+liveQueryEvery {
		ops = append(ops, liveOp{kind: opQuery, due: t, c: i % 2})
	}
	for t := liveFlipEvery/2 + 10*time.Millisecond; t < d; t += liveFlipEvery {
		ops = append(ops, liveOp{kind: opSetRules, due: t})
	}
	for t := liveSearchEvery/2 + 35*time.Millisecond; t < d; t += liveSearchEvery {
		ops = append(ops, liveOp{kind: opSearch, due: t})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// liveMixed is the open loop: goroutine A works through one schedule,
// timing each op from its due time and re-sending shed ops; goroutine B
// long-polls bob's subscription on contributor B.
func liveMixed(ctx context.Context, st *stack, in *inputs, d time.Duration, tr *tracer) measured {
	var m measured
	sc, w := newStoreClient(st.store.addr)
	subSC, subW := newStoreClient(st.store.addr)
	bc := newBrokerClient(st.broker.addr)
	_, _ = sc.HealthCtx(ctx) // open the connections before the clock starts
	_, _ = subSC.HealthCtx(ctx)
	_, _ = bc.HealthCtx(ctx)
	w.sent.Store(0)
	w.received.Store(0)
	subW.sent.Store(0)
	subW.received.Store(0)

	sched := liveSchedule(d)
	begin := time.Now()

	// uploadDue maps the first instant (Unix ns) of every packet B uploads to
	// the due time of the upload that carries it, for delivery latency.
	uploadDue := make(map[int64]time.Time)
	sent := [2]int{}
	for _, op := range sched {
		if op.kind == opUpload {
			if op.c == 1 {
				for _, p := range timelineBatch(in, 1, sent[1]) {
					uploadDue[p.Start.UnixNano()] = begin.Add(op.due)
				}
			}
			sent[op.c]++
		}
	}

	// A rule change and a stream acknowledgement are never in flight
	// together: both make the store rewrite its state file through one fixed
	// temporary name, and when they coincide the loser's rename finds no file
	// (README, "First findings"). A lost SetRules is answered 400, which would
	// be a failed op on a workload chosen so that none fails.
	var stateFile sync.Mutex

	stopSub := make(chan struct{})
	var deliveries []opRec
	var subDone sync.WaitGroup
	subDone.Add(1)
	go func() {
		defer subDone.Done()
		deliveries = subscriber(ctx, st, subSC, uploadDue, stopSub, &stateFile, &m)
	}()

	// What A's rules say about bob as far as the bench can know: a flip that
	// came back with an error may or may not have taken effect.
	const (
		allows = iota
		denies
		unknown
	)
	aRules, nextAllow := allows, false
	var retries []liveOp
	next := 0
	for (next < len(sched) || len(retries) > 0) && ctx.Err() == nil {
		// The next thing to do is the earlier of the next scheduled op and
		// the oldest shed op whose pause has passed.
		var op liveOp
		fromRetry := len(retries) > 0 && (next >= len(sched) || retries[0].retry <= sched[next].due)
		if fromRetry {
			op, retries = retries[0], retries[1:]
		} else {
			op, next = sched[next], next+1
		}
		at := op.due
		if fromRetry {
			at = op.retry
		}
		if wait := time.Until(begin.Add(at)); wait > 0 {
			time.Sleep(wait)
		}
		if !fromRetry {
			op.first = time.Since(begin)
		}
		rec := opRec{kind: op.kind, start: begin.Add(op.due), late: op.first - op.due, sheds: op.sheds}
		var err error
		switch op.kind {
		case opUpload:
			k := st.ackedBatches(op.c)
			segs := timelineBatch(in, op.c, k)
			for _, s := range segs {
				rec.rows += s.NumSamples()
			}
			if _, err = sc.UploadCtx(ctx, st.owners[op.c].Key, segs); err == nil {
				st.ack(op.c)
			}
			rec.ok = err == nil
		case opQuery:
			k := st.ackedBatches(op.c)
			if k == 0 {
				continue // nothing stored yet; only possible if the first upload failed
			}
			to := timelineEnd(in, op.c, k)
			from := to.Add(-pointWindow)
			var rels []*abstraction.Release
			rels, err = sc.QueryCtx(ctx, st.bob, &query.Query{Contributor: contributorName(op.c), From: from, To: to})
			rec.rows = releasedRows(rels)
			want := timelineRows(in, op.c, k, from, to)
			switch {
			case op.c == 0 && aRules == denies:
				want = 0
				m.violations += rec.rows
			case op.c == 0 && aRules == unknown && rec.rows == 0:
				want = 0
			}
			rec.ok = err == nil && rec.rows == want
			rec.wrong = err == nil && !rec.ok
		case opSetRules:
			// No read is in flight during the call, so the deny period ends
			// when the allow is sent and begins when the deny is acknowledged.
			stateFile.Lock()
			err = sc.SetRulesCtx(ctx, st.owners[0].Key, bobFlip(nextAllow))
			stateFile.Unlock()
			switch {
			case isShed(err): // not applied; re-sent below
			case err != nil:
				aRules, nextAllow = unknown, !nextAllow
			case nextAllow:
				aRules, nextAllow = allows, false
			default:
				aRules, nextAllow = denies, true
			}
			rec.ok = err == nil
		case opSearch:
			_, err = bc.SearchCtx(ctx, st.brokerBob, &broker.SearchQuery{Sensors: []string{"ECG"}, Reference: sessionStart})
			rec.ok = err == nil
		}
		if isShed(err) {
			op.sheds++
			op.retry = time.Since(begin) + liveShedPause
			retries = append(retries, op)
			continue
		}
		rec.lat = time.Since(rec.start)
		tr.op(rec)
		m.ops = append(m.ops, rec)
	}
	m.elapsed = time.Since(begin)
	// Let the last uploads reach the subscriber before it is stopped.
	time.Sleep(livePollWait / 2)
	close(stopSub)
	subDone.Wait()
	for _, r := range deliveries {
		tr.op(r)
	}
	m.ops = append(m.ops, deliveries...)
	m.rowsPerS = float64(okRows(m.ops)) / m.elapsed.Seconds()
	m.sentBytes = w.sent.Load() + subW.sent.Load()
	m.wireBytes = m.sentBytes + w.received.Load() + subW.received.Load()
	m.uploadedValueBytes = valueBytes(m.ops)
	return m
}

// subscriber long-polls bob's subscription until stopped and returns one
// record per delivered segment, timed from the due time of its upload.
func subscriber(ctx context.Context, st *stack, sc *httpapi.StoreClient, uploadDue map[int64]time.Time,
	stop <-chan struct{}, stateFile *sync.Mutex, m *measured) []opRec {
	var out []opRec
	cursor := ""
	for {
		select {
		case <-stop:
			return out
		default:
		}
		batch, err := sc.NextCtx(ctx, st.bob, st.subID, cursor, livePollWait)
		if err != nil {
			if isShed(err) {
				m.pollSheds++
			}
			select {
			case <-stop:
				return out
			case <-ctx.Done():
				return out
			case <-time.After(liveShedPause):
			}
			continue
		}
		m.polls++
		now := time.Now()
		for _, ev := range batch.Events {
			if ev.Kind == stream.KindGap {
				m.gaps++
			}
			if ev.Kind != stream.KindData || len(ev.Releases) == 0 {
				continue
			}
			rec := opRec{kind: opDelivery, rows: releasedRows(ev.Releases)}
			// A delivered segment starts where one of its batch's packets
			// starts, and each batch was due at a known time.
			if due, known := uploadDue[ev.Releases[0].Start.UnixNano()]; known {
				rec.start, rec.lat, rec.ok = due, now.Sub(due), true
			} else {
				rec.wrong = true
			}
			out = append(out, rec)
		}
		if batch.Cursor != cursor {
			cursor = batch.Cursor
			stateFile.Lock()
			_ = sc.AckStreamCtx(ctx, st.bob, st.subID, cursor) // the next poll acknowledges again
			stateFile.Unlock()
		}
	}
}
