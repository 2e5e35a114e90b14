package obs

import (
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// scrape renders /metrics from the Default registry and returns the
// value of each unlabeled series.
func scrape(t *testing.T) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := make(map[string]float64)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("series %s: %v", name, err)
		}
		out[name] = v
	}
	return out
}

var sink []byte

// TestScrapeReadsGoRuntime: each scrape refreshes the runtime series, so
// the allocation and GC counters rise between two scrapes that bracket
// allocation and a collection.
func TestScrapeReadsGoRuntime(t *testing.T) {
	first := scrape(t)
	for i := 0; i < 64; i++ {
		sink = make([]byte, 64<<10)
	}
	runtime.GC()
	second := scrape(t)
	for _, name := range []string{"sensorsafe_go_heap_alloc_bytes_total", "sensorsafe_go_gc_cycles_total"} {
		if second[name] <= first[name] {
			t.Errorf("%s went %v -> %v across 4 MiB of allocation and a GC", name, first[name], second[name])
		}
	}
	if d := second["sensorsafe_go_heap_alloc_bytes_total"] - first["sensorsafe_go_heap_alloc_bytes_total"]; d < 64*64<<10 {
		t.Errorf("heap allocation counter rose %v bytes, want at least the 4 MiB allocated", d)
	}
	for _, name := range []string{"sensorsafe_go_heap_live_bytes", "sensorsafe_go_goroutines"} {
		if second[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, second[name])
		}
	}
}
