// Package overload is SensorSafe's server-side overload-protection layer:
// an admission controller (per-principal token-bucket rate limits plus
// bounded per-class concurrency gates with queue-wait deadlines), ordered
// priority classes so load shedding degrades the least critical traffic
// first, a degradation state machine (healthy → degraded → overloaded) fed
// by live pressure signals.
//
// The design inverts the paper's trust obligation: SensorSafe's store must
// keep *accepting sensory uploads and enforcing privacy rules* no matter
// how hard consumers hammer it (§5's always-on ingest pipeline). Overload
// therefore sheds in strict class order — stream delivery first, then
// consumer queries, then broker directory traffic — while phone ingest and
// rule mutations are effectively never shed: they are exempt from state
// brownout and rate limits and only fail when even their own oversized
// gate overflows a generous queue-wait deadline.
//
// Shed requests are answered with HTTP 429 plus a computed Retry-After,
// which the internal/resilience retry engine already honors, so the whole
// fleet backs off instead of amplifying load with retries and hedges.
//
// Like obs and resilience, the package depends only on the standard
// library (plus obs for metrics) so every server can mount it.
package overload

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sensorsafe/internal/obs"
)

// Class orders request priorities from most sheddable to least. The
// numeric order IS the shedding order: under degradation the controller
// sheds every class <= the brownout line.
type Class int

const (
	// ClassStream is live-sharing delivery (long-poll). Shed first:
	// subscribers hold durable cursors and resume with exact-count gap
	// events, so dropped delivery loses nothing.
	ClassStream Class = iota
	// ClassQuery is consumer reads: enforced queries, audit, recommend.
	ClassQuery
	// ClassDirectory is broker control-plane traffic: directory, connect,
	// search, lists, studies. Shed only by gate overflow, never by state.
	ClassDirectory
	// ClassIngest is phone uploads and rule mutations — the paper's trust
	// anchor. Exempt from brownout and rate limits; only its own oversized
	// gate can reject it, after a generous queue wait.
	ClassIngest

	// NumClasses bounds per-class arrays.
	NumClasses int = iota
)

// String names the class for metrics and logs.
func (c Class) String() string {
	switch c {
	case ClassStream:
		return "stream"
	case ClassQuery:
		return "query"
	case ClassDirectory:
		return "directory"
	case ClassIngest:
		return "ingest"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// State is the degradation state machine's position.
type State int

const (
	// StateHealthy sheds nothing by state; only rate limits and gate
	// overflow reject requests.
	StateHealthy State = iota
	// StateDegraded sheds ClassStream.
	StateDegraded
	// StateOverloaded sheds ClassStream and ClassQuery.
	StateOverloaded
)

// String names the state for /healthz, metrics, and span attributes.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateOverloaded:
		return "overloaded"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// shedByState reports whether class is browned out in state.
func shedByState(s State, c Class) bool {
	switch s {
	case StateDegraded:
		return c == ClassStream
	case StateOverloaded:
		return c <= ClassQuery
	}
	return false
}

// Admission metrics (README catalog: Overload protection).
var (
	metricAdmitted = obs.NewCounterVec("sensorsafe_overload_admitted_total",
		"Requests admitted past the overload controller, by component and class.",
		"component", "class")
	metricShed = obs.NewCounterVec("sensorsafe_overload_shed_total",
		"Requests shed by the overload controller, by component, class, and reason.",
		"component", "class", "reason")
	metricQueueWait = obs.NewHistogramVec("sensorsafe_overload_queue_wait_seconds",
		"Time requests waited for a concurrency-gate slot, by component and class.",
		obs.DefBuckets, "component", "class")
	metricState = obs.NewGaugeVec("sensorsafe_overload_state",
		"Degradation state (0 healthy, 1 degraded, 2 overloaded), by component.",
		"component")
	metricStateChanges = obs.NewCounterVec("sensorsafe_overload_state_changes_total",
		"Degradation state transitions, by component and new state.",
		"component", "state")
	metricPressure = obs.NewGaugeVec("sensorsafe_overload_pressure",
		"Live pressure signals in [0,1+], by component and signal.",
		"component", "signal")
	metricInFlight = obs.NewGaugeVec("sensorsafe_overload_in_flight",
		"Requests currently holding a gate slot, by component and class.",
		"component", "class")
	metricRateLimited = obs.NewCounterVec("sensorsafe_overload_ratelimited_total",
		"Requests rejected by the per-principal token bucket, by component.",
		"component")
)

// Config tunes a Controller; zero values take the documented defaults.
type Config struct {
	// Component labels this controller's metrics ("store", "broker").
	Component string
	// Capacity bounds concurrently admitted requests per class.
	// Defaults: stream 256, query 128, directory 128, ingest 512.
	Capacity [NumClasses]int
	// QueueWait is how long an arriving request may wait for a gate slot
	// before being shed. Defaults: stream 100ms, query 250ms, directory
	// 500ms, ingest 5s — the deadline grows with priority, so critical
	// traffic queues where sheddable traffic fails fast.
	QueueWait [NumClasses]time.Duration
	// RatePerPrincipal is the sustained per-principal request rate
	// (tokens/second) for non-ingest classes; 0 disables rate limiting.
	RatePerPrincipal float64
	// RateBurst is the bucket depth (default 2× RatePerPrincipal, min 10).
	RateBurst float64
	// RecomputeEvery rate-limits pressure recomputation (default 250ms).
	// Recomputation is lazy — driven by Admit/State/Pressure calls — so
	// an idle controller costs nothing.
	RecomputeEvery time.Duration
	// Now is a test seam for the clock (default time.Now).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	defCap := [NumClasses]int{ClassStream: 256, ClassQuery: 128, ClassDirectory: 128, ClassIngest: 512}
	defWait := [NumClasses]time.Duration{
		ClassStream:    100 * time.Millisecond,
		ClassQuery:     250 * time.Millisecond,
		ClassDirectory: 500 * time.Millisecond,
		ClassIngest:    5 * time.Second,
	}
	for i := 0; i < NumClasses; i++ {
		if c.Capacity[i] <= 0 {
			c.Capacity[i] = defCap[i]
		}
		if c.QueueWait[i] <= 0 {
			c.QueueWait[i] = defWait[i]
		}
	}
	if c.RateBurst <= 0 {
		c.RateBurst = 2 * c.RatePerPrincipal
		if c.RateBurst < 10 {
			c.RateBurst = 10
		}
	}
	if c.RecomputeEvery <= 0 {
		c.RecomputeEvery = 250 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// StoreDefaults is the store server's production configuration.
func StoreDefaults() Config { return Config{Component: "store"}.withDefaults() }

// BrokerDefaults is the broker server's production configuration. The
// broker has no stream tier, and its directory tier carries most traffic.
func BrokerDefaults() Config {
	c := Config{Component: "broker"}
	c.Capacity[ClassDirectory] = 256
	return c.withDefaults()
}

// Rejection explains a shed request. The HTTP layer maps it to
// 429 Too Many Requests with a Retry-After header.
type Rejection struct {
	// Class is the request's priority class.
	Class Class
	// Reason is "brownout" (shed by degradation state), "ratelimit"
	// (per-principal token bucket dry), or "capacity" (gate full past the
	// queue-wait deadline).
	Reason string
	// State is the degradation state at rejection time.
	State State
	// RetryAfter is the server's computed backoff hint.
	RetryAfter time.Duration
}

// Error renders the rejection as a client-facing message.
func (r *Rejection) Error() string {
	return fmt.Sprintf("overload: %s request shed (%s, state %s); retry after %s",
		r.Class, r.Reason, r.State, r.RetryAfter)
}

// bucket is one principal's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// maxPrincipals bounds the bucket map. Past the bound the whole map is
// dropped — coarse, but it guarantees a principal-cardinality attack
// cannot grow server memory without bound, and refilling from empty only
// briefly over-admits.
const maxPrincipals = 8192

// ewmaAlpha weights the newest queue-wait observation.
const ewmaAlpha = 0.2

// degradedAt and overloadedAt are the pressure thresholds for entering
// each state. Leaving a state additionally requires pressure below
// threshold − recoverMargin.
const (
	degradedAt   = 0.75
	overloadedAt = 0.92
)

// recoverMargin is the hysteresis below a state's entry threshold that
// pressure must reach before the controller leaves that state, so it does
// not flap at the boundary.
const recoverMargin = 0.10

// Controller is one server's admission controller. Safe for concurrent
// use. Create with NewController.
type Controller struct {
	cfg   Config
	gates [NumClasses]chan struct{}

	inFlightG  [NumClasses]*obs.Gauge
	queueWaitH [NumClasses]*obs.Histogram

	mu            sync.Mutex
	sources       []namedSource       // external pressure sources; guarded by mu
	buckets       map[string]*bucket  // per-principal token buckets; guarded by mu
	state         State               // degradation state; guarded by mu
	pressure      float64             // last composite pressure; guarded by mu
	lastRecompute time.Time           // guarded by mu
	waitFrac      [NumClasses]float64 // EWMA of queue wait / deadline; guarded by mu
	inFlight      [NumClasses]int     // gate slots held; guarded by mu
}

type namedSource struct {
	name string
	fn   func() float64
}

// NewController builds a controller from cfg (zero fields defaulted).
func NewController(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg, buckets: make(map[string]*bucket)}
	for i := 0; i < NumClasses; i++ {
		c.gates[i] = make(chan struct{}, cfg.Capacity[i])
		c.inFlightG[i] = metricInFlight.With(cfg.Component, Class(i).String())
		c.queueWaitH[i] = metricQueueWait.With(cfg.Component, Class(i).String())
	}
	metricState.With(cfg.Component).Set(float64(StateHealthy))
	return c
}

// AddSource registers a named external pressure source returning a value
// in [0, 1+] (1 = at the resource's budget). The composite pressure is the
// max over all sources plus the controller's two internal signals
// (queue-wait fraction and gate utilization) — bottleneck semantics: the
// most stressed resource sets the state.
func (c *Controller) AddSource(name string, fn func() float64) {
	c.mu.Lock()
	c.sources = append(c.sources, namedSource{name: name, fn: fn})
	c.mu.Unlock()
}

// Admit asks to run one request of the given class on behalf of a
// principal (client identity — typically the remote host). On admission it
// returns a release func the caller MUST invoke when the request
// completes; on rejection it returns a *Rejection (release is nil).
func (c *Controller) Admit(ctx context.Context, class Class, principal string) (release func(), rej *Rejection) {
	if class < 0 || int(class) >= NumClasses {
		class = ClassQuery
	}
	now := c.cfg.Now()
	c.maybeRecompute(now)

	c.mu.Lock()
	st := c.state
	c.mu.Unlock()

	// 1. Brownout: the state machine sheds whole classes. Ingest and
	// directory are never browned out (see shedByState).
	if shedByState(st, class) {
		return nil, c.reject(class, "brownout", st, c.stateRetryAfter(st))
	}

	// 2. Per-principal token bucket. Ingest is exempt: a phone flushing
	// its outbox after a blackout must not be rate-limited into data loss.
	if class != ClassIngest && c.cfg.RatePerPrincipal > 0 {
		if wait := c.takeToken(principal, now); wait > 0 {
			metricRateLimited.With(c.cfg.Component).Inc()
			return nil, c.reject(class, "ratelimit", st, wait)
		}
	}

	// 3. Concurrency gate with a class-scaled queue-wait deadline.
	gate := c.gates[class]
	waited := time.Duration(0)
	select {
	case gate <- struct{}{}:
	default:
		timer := time.NewTimer(c.cfg.QueueWait[class])
		start := c.cfg.Now()
		select {
		case gate <- struct{}{}:
			timer.Stop()
			waited = c.cfg.Now().Sub(start)
		case <-timer.C:
			c.recordWait(class, c.cfg.QueueWait[class])
			return nil, c.reject(class, "capacity", st, c.stateRetryAfter(st))
		case <-ctx.Done():
			timer.Stop()
			// The caller is gone; report it as a shed so the arithmetic
			// attempted = admitted + shed still balances.
			return nil, c.reject(class, "canceled", st, c.stateRetryAfter(st))
		}
	}
	c.recordWait(class, waited)
	metricAdmitted.With(c.cfg.Component, class.String()).Inc()
	c.inFlightG[class].Inc()
	c.mu.Lock()
	c.inFlight[class]++
	c.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			<-gate
			c.inFlightG[class].Dec()
			c.mu.Lock()
			c.inFlight[class]--
			c.mu.Unlock()
		})
	}, nil
}

// reject records the shed and builds the Rejection.
func (c *Controller) reject(class Class, reason string, st State, retryAfter time.Duration) *Rejection {
	metricShed.With(c.cfg.Component, class.String(), reason).Inc()
	if retryAfter < time.Second {
		// Retry-After travels as whole delta-seconds on the wire; a
		// sub-second hint would round down to "retry immediately".
		retryAfter = time.Second
	}
	return &Rejection{Class: class, Reason: reason, State: st, RetryAfter: retryAfter}
}

// stateRetryAfter scales the backoff hint with how stressed the server is:
// the deeper the degradation, the longer clients should stay away.
func (c *Controller) stateRetryAfter(st State) time.Duration {
	switch st {
	case StateOverloaded:
		return 5 * time.Second
	case StateDegraded:
		return 2 * time.Second
	}
	return time.Second
}

// recordWait folds one gate wait into the class's EWMA and histogram.
func (c *Controller) recordWait(class Class, waited time.Duration) {
	c.queueWaitH[class].Observe(waited.Seconds())
	frac := float64(waited) / float64(c.cfg.QueueWait[class])
	c.mu.Lock()
	c.waitFrac[class] = (1-ewmaAlpha)*c.waitFrac[class] + ewmaAlpha*frac
	c.mu.Unlock()
}

// takeToken draws one token from the principal's bucket, returning 0 on
// success or the wait until the next token accrues.
func (c *Controller) takeToken(principal string, now time.Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.buckets) >= maxPrincipals {
		c.buckets = make(map[string]*bucket)
	}
	b := c.buckets[principal]
	if b == nil {
		b = &bucket{tokens: c.cfg.RateBurst, last: now}
		c.buckets[principal] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * c.cfg.RatePerPrincipal
		if b.tokens > c.cfg.RateBurst {
			b.tokens = c.cfg.RateBurst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0
	}
	return time.Duration((1 - b.tokens) / c.cfg.RatePerPrincipal * float64(time.Second))
}

// State returns the current degradation state (recomputing pressure first
// when the recompute interval has elapsed).
func (c *Controller) State() State {
	c.maybeRecompute(c.cfg.Now())
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Pressure returns the last composite pressure value.
func (c *Controller) Pressure() float64 {
	c.maybeRecompute(c.cfg.Now())
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pressure
}

// Snapshot is the controller's health-report shape.
type Snapshot struct {
	State    string             `json:"state"`
	Pressure float64            `json:"pressure"`
	InFlight map[string]int     `json:"inFlight,omitempty"`
	Signals  map[string]float64 `json:"signals,omitempty"`
}

// Snapshot reports state, pressure, and per-class in-flight counts for
// /healthz.
func (c *Controller) Snapshot() Snapshot {
	c.maybeRecompute(c.cfg.Now())
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		State:    c.state.String(),
		Pressure: c.pressure,
		InFlight: make(map[string]int, NumClasses),
	}
	for i := 0; i < NumClasses; i++ {
		if c.inFlight[i] > 0 {
			s.InFlight[Class(i).String()] = c.inFlight[i]
		}
	}
	return s
}

// maybeRecompute refreshes pressure and the state machine at most once per
// RecomputeEvery. External sources run outside the controller lock — they
// may take their own (e.g. the segment store's stats lock).
func (c *Controller) maybeRecompute(now time.Time) {
	c.mu.Lock()
	if now.Sub(c.lastRecompute) < c.cfg.RecomputeEvery && !c.lastRecompute.IsZero() {
		c.mu.Unlock()
		return
	}
	c.lastRecompute = now
	sources := make([]namedSource, len(c.sources))
	copy(sources, c.sources)
	// Internal signal 1: worst queue-wait fraction across classes.
	waitSig := 0.0
	for i := 0; i < NumClasses; i++ {
		if c.waitFrac[i] > waitSig {
			waitSig = c.waitFrac[i]
		}
	}
	// Internal signal 2: overall gate utilization.
	used, capTotal := 0, 0
	for i := 0; i < NumClasses; i++ {
		used += c.inFlight[i]
		capTotal += c.cfg.Capacity[i]
	}
	c.mu.Unlock()

	utilSig := float64(used) / float64(capTotal)
	pressure := waitSig
	if utilSig > pressure {
		pressure = utilSig
	}
	metricPressure.With(c.cfg.Component, "queue_wait").Set(waitSig)
	metricPressure.With(c.cfg.Component, "gate_utilization").Set(utilSig)
	for _, s := range sources {
		v := s.fn()
		metricPressure.With(c.cfg.Component, s.name).Set(v)
		if v > pressure {
			pressure = v
		}
	}

	c.mu.Lock()
	old := c.state
	next := c.nextStateLocked(pressure)
	c.state = next
	c.pressure = pressure
	c.mu.Unlock()
	if next != old {
		metricState.With(c.cfg.Component).Set(float64(next))
		metricStateChanges.With(c.cfg.Component, next.String()).Inc()
	}
}

// nextStateLocked applies thresholds with hysteresis. Callers hold mu.
func (c *Controller) nextStateLocked(p float64) State {
	switch c.state {
	case StateHealthy:
		if p >= overloadedAt {
			return StateOverloaded
		}
		if p >= degradedAt {
			return StateDegraded
		}
	case StateDegraded:
		if p >= overloadedAt {
			return StateOverloaded
		}
		if p < degradedAt-recoverMargin {
			return StateHealthy
		}
	case StateOverloaded:
		if p < overloadedAt-recoverMargin {
			if p >= degradedAt {
				return StateDegraded
			}
			if p < degradedAt-recoverMargin {
				return StateHealthy
			}
			return StateDegraded
		}
	}
	return c.state
}
