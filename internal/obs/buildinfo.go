package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// Version is the build's version string, stamped at link time:
//
//	go build -ldflags "-X sensorsafe/internal/obs.Version=v1.2.3" ./cmd/...
//
// It defaults to "dev" for plain `go build`/`go test` binaries.
var Version = "dev"

var (
	buildInfo = NewGaugeVec("sensorsafe_build_info",
		"Constant 1, labeled with the build's version and Go toolchain — join "+
			"other series against it to slice dashboards by deployed version.",
		"version", "go_version")
	uptimeSeconds = NewGauge("sensorsafe_process_uptime_seconds",
		"Seconds since this process registered its build info (scrape-time).")
)

var (
	processStart  time.Time
	buildInfoOnce sync.Once
)

// stampBuildInfo publishes the build-info gauge and starts the uptime
// clock; first call wins, later calls only refresh uptime. It is invoked
// from every /metrics render, so scrapes always see a fresh uptime
// without a background ticker.
func stampBuildInfo() {
	buildInfoOnce.Do(func() {
		processStart = time.Now()
		buildInfo.With(Version, runtime.Version()).Set(1)
	})
	uptimeSeconds.Set(time.Since(processStart).Seconds())
}

// The Go runtime's own health, read from runtime/metrics per scrape like
// the uptime gauge above: an allocation-rate question (bytes per request
// between two scrapes) and a memory question (live heap after the last
// GC) answered from outside the process.
var (
	goHeapAllocBytes = NewCounter("sensorsafe_go_heap_alloc_bytes_total",
		"Bytes allocated on the Go heap since the process started (scrape-time).")
	goGCCycles = NewCounter("sensorsafe_go_gc_cycles_total",
		"Completed Go garbage-collection cycles since the process started (scrape-time).")
	goHeapLiveBytes = NewGauge("sensorsafe_go_heap_live_bytes",
		"Heap bytes the last Go garbage collection marked live (scrape-time).")
	goGoroutines = NewGauge("sensorsafe_go_goroutines",
		"Live goroutines (scrape-time).")
)

// runtimeMetrics pairs each runtime/metrics name with what a scrape
// stamps it into.
var runtimeMetrics = []struct {
	name  string
	stamp func(float64)
}{
	{"/gc/heap/allocs:bytes", goHeapAllocBytes.raiseTo},
	{"/gc/cycles/total:gc-cycles", goGCCycles.raiseTo},
	{"/gc/heap/live:bytes", goHeapLiveBytes.Set},
	{"/sched/goroutines:goroutines", goGoroutines.Set},
}

// stampRuntime refreshes the Go runtime series; every /metrics render
// calls it, so no background reader runs.
func stampRuntime() {
	samples := make([]metrics.Sample, len(runtimeMetrics))
	for i, m := range runtimeMetrics {
		samples[i].Name = m.name
	}
	metrics.Read(samples)
	for i, m := range runtimeMetrics {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			m.stamp(float64(samples[i].Value.Uint64()))
		}
	}
}

// raiseTo sets a counter that mirrors a cumulative total kept elsewhere.
// It never moves back, so two scrapes that read the total concurrently
// cannot make it decrease.
func (c *Counter) raiseTo(v float64) {
	for {
		old := c.bits.Load()
		if math.Float64frombits(old) >= v || c.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
