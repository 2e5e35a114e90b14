// Package obs is SensorSafe's observability layer: a concurrency-safe
// metrics registry exported in Prometheus text exposition format, a
// log/slog-based structured logger with per-request correlation IDs, and
// span-style timing helpers that feed latency histograms. It depends only
// on the standard library so every other package — broker, datastore,
// auth, httpapi, the cmd binaries — can instrument its hot paths without
// pulling in external dependencies.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ExpositionContentType is the Content-Type of /metrics responses
// (Prometheus text exposition format, version 0.0.4).
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// DefBuckets are the default latency histogram bounds in seconds. They
// extend Prometheus's defaults downward because rule evaluation and
// segment scans complete in well under a millisecond.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// addFloat atomically adds v to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Counter is a monotonically increasing value.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas panic.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("obs: counter cannot decrease")
	}
	addFloat(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the value by v (negative allowed).
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	upper  []float64 // sorted upper bounds, +Inf implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if i := sort.SearchFloat64s(h.upper, v); i < len(h.counts) {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	addFloat(&h.sum, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// family is one named metric with a fixed label schema.
type family struct {
	name       string
	help       string
	kind       kind
	labelNames []string
	buckets    []float64

	mu       sync.RWMutex
	children map[string]any      // label-values key → *Counter | *Gauge | *Histogram; guarded by mu
	labels   map[string][]string // guarded by mu
}

// childKeySep joins label values into a map key; it cannot appear in
// UTF-8 text.
const childKeySep = "\xff"

func (f *family) child(values []string) any {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := strings.Join(values, childKeySep)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	switch f.kind {
	case counterKind:
		c = &Counter{}
	case gaugeKind:
		c = &Gauge{}
	case histogramKind:
		h := &Histogram{upper: f.buckets, counts: make([]atomic.Uint64, len(f.buckets))}
		c = h
	}
	f.children[key] = c
	f.labels[key] = append([]string(nil), values...)
	return c
}

// Registry holds metric families. Safe for concurrent use; the zero value
// is not usable — call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry that package-level constructors and
// Handler use.
var Default = NewRegistry()

// getFamily returns the family with the given schema, creating it on
// first use. Re-registering a name with a different kind or label set is
// a programming error and panics.
func (r *Registry) getFamily(name, help string, k kind, labelNames []string, buckets []float64) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if f, ok = r.families[name]; !ok {
			f = &family{
				name:       name,
				help:       help,
				kind:       k,
				labelNames: append([]string(nil), labelNames...),
				buckets:    append([]float64(nil), buckets...),
				children:   make(map[string]any),
				labels:     make(map[string][]string),
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != k || len(f.labelNames) != len(labelNames) {
		panic(fmt.Sprintf("obs: metric %s re-registered with a different schema", name))
	}
	for i := range labelNames {
		if f.labelNames[i] != labelNames[i] {
			panic(fmt.Sprintf("obs: metric %s re-registered with different labels", name))
		}
	}
	return f
}

// CounterVec is a counter family with labels.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter { return v.fam.child(values).(*Counter) }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.fam.child(values).(*Gauge) }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.fam.child(values).(*Histogram) }

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.getFamily(name, help, counterKind, nil, nil).child(nil).(*Counter)
}

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.getFamily(name, help, counterKind, labelNames, nil)}
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.getFamily(name, help, gaugeKind, nil, nil).child(nil).(*Gauge)
}

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.getFamily(name, help, gaugeKind, labelNames, nil)}
}

// Histogram registers (or finds) an unlabeled histogram with the given
// bucket upper bounds (DefBuckets if nil).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.getFamily(name, help, histogramKind, nil, buckets).child(nil).(*Histogram)
}

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{r.getFamily(name, help, histogramKind, labelNames, buckets)}
}

// Package-level constructors on the Default registry.

// NewCounter registers an unlabeled counter on Default.
func NewCounter(name, help string) *Counter { return Default.Counter(name, help) }

// NewCounterVec registers a labeled counter family on Default.
func NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	return Default.CounterVec(name, help, labelNames...)
}

// NewGauge registers an unlabeled gauge on Default.
func NewGauge(name, help string) *Gauge { return Default.Gauge(name, help) }

// NewGaugeVec registers a labeled gauge family on Default.
func NewGaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return Default.GaugeVec(name, help, labelNames...)
}

// NewHistogram registers an unlabeled histogram on Default.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return Default.Histogram(name, help, buckets)
}

// NewHistogramVec registers a labeled histogram family on Default.
func NewHistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return Default.HistogramVec(name, help, buckets, labelNames...)
}

// escapeLabel escapes a label value for exposition.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {a="x",b="y"}; extra appends one more pair (used
// for histogram le labels). Empty when there are no labels.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, escapeLabel(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus writes every family in text exposition format, sorted
// by metric name and label values for stable output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	for _, f := range fams {
		help := strings.ReplaceAll(f.help, "\n", " ")
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, help, f.name, f.kind); err != nil {
			return err
		}
		f.mu.RLock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			child := f.children[k]
			values := f.labels[k]
			var err error
			switch m := child.(type) {
			case *Counter:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labelNames, values, "", ""), formatFloat(m.Value()))
			case *Gauge:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labelNames, values, "", ""), formatFloat(m.Value()))
			case *Histogram:
				var cum uint64
				for i, upper := range m.upper {
					cum += m.counts[i].Load()
					if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
						labelString(f.labelNames, values, "le", formatFloat(upper)), cum); err != nil {
						break
					}
				}
				// The +Inf bucket and _count must never read below the
				// finite buckets' cumulative sum: Observe bumps the bucket
				// before the total, so a concurrent scrape could otherwise
				// see a non-monotone series.
				total := m.Count()
				if cum > total {
					total = cum
				}
				if err == nil {
					_, err = fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
						labelString(f.labelNames, values, "le", "+Inf"), total)
				}
				if err == nil {
					_, err = fmt.Fprintf(w, "%s_sum%s %s\n", f.name,
						labelString(f.labelNames, values, "", ""), formatFloat(m.Sum()))
				}
				if err == nil {
					_, err = fmt.Fprintf(w, "%s_count%s %d\n", f.name,
						labelString(f.labelNames, values, "", ""), total)
				}
			}
			if err != nil {
				f.mu.RUnlock()
				return err
			}
		}
		f.mu.RUnlock()
	}
	return nil
}

// Handler serves the registry in Prometheus text exposition format.
// Build info, process uptime and the Go runtime series are (re)stamped
// per scrape so none of them goes stale.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		stampBuildInfo()
		stampRuntime()
		w.Header().Set("Content-Type", ExpositionContentType)
		_ = r.WritePrometheus(w)
	})
}

// Handler serves the Default registry.
func Handler() http.Handler { return Default.Handler() }
