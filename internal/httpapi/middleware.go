package httpapi

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"sensorsafe/internal/obs"
	"sensorsafe/internal/obs/trace"
	"sensorsafe/internal/resilience"
)

// requestIDHeader carries the correlation ID between SensorSafe services;
// the middleware generates one when absent and always echoes it back.
const requestIDHeader = "X-Request-ID"

// idempotencyKeyHeader marks a mutating request as one logical operation:
// the client keeps the key stable across retries and the server replays
// the recorded outcome instead of re-executing the mutation.
const idempotencyKeyHeader = "X-Idempotency-Key"

// idempotencyReplayHeader is set on responses served from the idempotency
// cache rather than by re-executing the handler.
const idempotencyReplayHeader = "X-Idempotency-Replay"

// HTTP-layer metrics, shared by both servers and split by component.
var (
	metricHTTPRequests = obs.NewCounterVec("sensorsafe_http_requests_total",
		"HTTP requests served, by component, method, route, and status.",
		"component", "method", "route", "status")
	metricHTTPLatency = obs.NewHistogramVec("sensorsafe_http_request_seconds",
		"HTTP request latency in seconds, by component and route.",
		obs.DefBuckets, "component", "route")
	metricHTTPInFlight = obs.NewGaugeVec("sensorsafe_http_in_flight_requests",
		"HTTP requests currently being served, by component.", "component")
	metricIdemReplays = obs.NewCounterVec("sensorsafe_http_idempotent_replays_total",
		"Mutating requests answered from the idempotency cache, by component.",
		"component")
)

// logDest is where request logs are written (test seam; servers log to
// stderr).
var logDest io.Writer = os.Stderr

// statusWriter records the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// recordingWriter tees a handler's status and body so the outcome can be
// cached for idempotent replay.
type recordingWriter struct {
	http.ResponseWriter
	status int
	buf    bytes.Buffer
}

func (w *recordingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

// idempotent dedupes keyed POSTs to one mutating route: the first
// execution's outcome is recorded in a bounded LRU, under the route and
// the X-Idempotency-Key, and replayed byte-for-byte for retries of the
// same logical call, giving retried mutations exactly-once application.
// Transient outcomes (5xx, 429) are not cached — a retry after those must
// re-execute, not replay the failure.
func idempotent(component, path string, cache *resilience.IdemCache, next http.Handler) http.Handler {
	replays := metricIdemReplays.With(component)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get(idempotencyKeyHeader)
		if key == "" || r.Method != http.MethodPost {
			next.ServeHTTP(w, r)
			return
		}
		key = path + " " + key
		if cached, ok := cache.Get(key); ok {
			replays.Inc()
			if cached.ContentType != "" {
				w.Header().Set("Content-Type", cached.ContentType)
			}
			w.Header().Set(idempotencyReplayHeader, "true")
			w.WriteHeader(cached.Status)
			w.Write(cached.Body)
			return
		}
		rw := &recordingWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rw, r)
		if rw.status < 500 && rw.status != http.StatusTooManyRequests {
			cache.Put(key, resilience.CachedResponse{
				Status:      rw.status,
				Body:        append([]byte(nil), rw.buf.Bytes()...),
				ContentType: rw.Header().Get("Content-Type"),
			})
		}
	})
}

// methodLabel is the method label of sensorsafe_http_requests_total:
// the standard methods by name, any other as "other", so a client cannot
// add series by inventing methods.
func methodLabel(method string) string {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch,
		http.MethodDelete, http.MethodConnect, http.MethodOptions, http.MethodTrace:
		return method
	}
	return "other"
}

// withObs wraps a server's mux with the observability middleware:
// method/route/status counters, an in-flight gauge, latency histograms,
// an http.server span, request logging, and X-Request-ID generation +
// propagation. Routes are taken from the mux's registered patterns and
// methods are folded by methodLabel, so metric cardinality stays bounded
// no matter what clients send.
func withObs(component string, mux *http.ServeMux) http.Handler {
	logger := obs.NewLogger(component, logDest)
	inFlight := metricHTTPInFlight.With(component)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(requestIDHeader)
		if id == "" {
			id = obs.NewRequestID()
		}
		ctx := obs.WithRequestID(r.Context(), id)
		w.Header().Set(requestIDHeader, id)

		route := "unmatched"
		if _, pattern := mux.Handler(r); pattern != "" {
			route = pattern
		}
		method := methodLabel(r.Method)

		// Join the caller's trace when the request carries a traceparent
		// header, then open this hop's server span; handlers see the span
		// through the request context, so their child spans nest under it.
		ctx = trace.WithRemoteParent(ctx, r.Header.Get(trace.Header))
		ctx, span, stop := obs.Span(ctx, "http.server")
		span.SetAttr(
			trace.String("component", component),
			trace.String("method", method),
			trace.String("route", route))

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		inFlight.Inc()
		mux.ServeHTTP(sw, r.WithContext(ctx))
		inFlight.Dec()

		span.SetAttr(trace.Int("status", sw.status))
		var failed error
		if sw.status >= http.StatusInternalServerError {
			failed = fmt.Errorf("HTTP %d", sw.status)
		}
		stop(failed)

		elapsed := time.Since(start)
		metricHTTPRequests.With(component, method, route, strconv.Itoa(sw.status)).Inc()
		metricHTTPLatency.With(component, route).Observe(elapsed.Seconds())
		logArgs := []any{
			"request_id", id,
			"method", method,
			"route", route,
			"status", sw.status,
			"duration_ms", float64(elapsed.Microseconds()) / 1000,
		}
		if tid := span.TraceIDString(); tid != "" {
			logArgs = append(logArgs, "trace_id", tid)
		}
		logger.Info("request", logArgs...)
	})
}
