package main

import (
	"encoding/json"
	"sync"
	"time"

	"sensorsafe/internal/resilience"
)

// spanRec is one recorded span. Spans of one op share its Op id; Parent is
// the index of the op's root span in the file, or -1 for a root.
type spanRec struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Op       int    `json:"op"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"` // since the tracer was created
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps the bench's own spans in memory until the process ends. A
// nil tracer records nothing, which is how the end-to-end run keeps them off.
type tracer struct {
	t0       time.Time
	workload string // set between runs, when nothing else records
	mu       sync.Mutex
	spans    []spanRec // guarded by mu
	ops      int       // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates an op id.
func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// add records one span and returns its index.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{t.workload, name, op, parent, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// begin opens a span whose end is set later by end.
func (t *tracer) begin(name string, op, parent int) int {
	now := time.Now()
	return t.add(name, op, parent, now, now)
}

// end closes a span opened by begin and returns its duration.
func (t *tracer) end(i int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].EndNS = now
	return time.Duration(now - t.spans[i].StartNS)
}

// op records a measured end-to-end op as a root span.
func (t *tracer) op(r opRec) {
	if t == nil {
		return
	}
	t.add("e2e."+opKindNames[r.kind], t.newOp(), -1, r.start, r.start.Add(r.lat))
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return resilience.WriteFileAtomic(path, data, 0o644)
}
