package httpapi

import (
	"encoding/json"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sensorsafe/internal/obs/trace"
	"sensorsafe/internal/overload"
)

// retryAfterHeader carries the server's backoff hint on 429 responses;
// the resilience clients already parse it (delta-seconds or HTTP-date).
const retryAfterHeader = "Retry-After"

// classifier maps a mux route pattern to its priority class; gated=false
// bypasses admission entirely (health, metrics, debug).
type classifier func(route string) (class overload.Class, gated bool)

// storeRouteClass assigns store routes: ingest (uploads, rule and account
// mutations — the paper's never-shed tier), stream (live delivery, shed
// first), query (consumer reads). Unmatched paths 404 cheaply; admitting
// them would let scanners occupy gate slots.
func storeRouteClass(route string) (overload.Class, bool) {
	switch {
	case route == "/api/upload",
		route == "/api/register",
		route == "/api/rotate",
		route == "/api/password",
		route == "/api/login",
		route == "/api/groups/assign",
		strings.HasPrefix(route, "/api/rules/"),
		strings.HasPrefix(route, "/api/places/"):
		return overload.ClassIngest, true
	case strings.HasPrefix(route, "/api/stream/"):
		return overload.ClassStream, true
	case route == "/api/query",
		route == "/api/queryown",
		route == "/api/recommend",
		strings.HasPrefix(route, "/api/audit/"):
		return overload.ClassQuery, true
	}
	return 0, false
}

// brokerRouteClass assigns broker routes: store-originated sync plus
// registrations are ingest; every other API call is directory traffic
// (shed only by gate overflow, never by brownout).
func brokerRouteClass(route string) (overload.Class, bool) {
	switch {
	case route == "/api/sync",
		route == "/api/sync/digest",
		route == "/api/contributors/register",
		route == "/api/consumers/register":
		return overload.ClassIngest, true
	case strings.HasPrefix(route, "/api/"):
		return overload.ClassDirectory, true
	}
	return 0, false
}

// principalOf identifies the client for per-principal rate limiting: the
// remote IP without the ephemeral port, so one client's connections share
// one token bucket.
func principalOf(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// withOverload mounts the admission controller between withObs and the
// idempotency layer: shed requests answer 429 + Retry-After without
// touching handlers (or the idempotency cache, which never stores 429s),
// and admitted ones release their gate slot when the handler returns.
func withOverload(ctrl *overload.Controller, classify classifier, mux *http.ServeMux, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := "unmatched"
		if _, pattern := mux.Handler(r); pattern != "" {
			route = pattern
		}
		class, gated := classify(route)
		if !gated {
			next.ServeHTTP(w, r)
			return
		}
		span := trace.FromContext(r.Context())
		release, rej := ctrl.Admit(r.Context(), class, principalOf(r))
		if rej != nil {
			span.AddEvent("overload.shed",
				trace.String("class", rej.Class.String()),
				trace.String("reason", rej.Reason),
				trace.String("state", rej.State.String()))
			writeShed(w, rej)
			return
		}
		defer release()
		span.SetAttr(
			trace.String("overload.class", class.String()),
			trace.String("overload.state", ctrl.State().String()))
		next.ServeHTTP(w, r)
	})
}

// writeShed answers a rejected request: 429, Retry-After in whole seconds
// (rounded up — a truncated 0 would mean "retry immediately"), and the
// uniform error envelope so typed clients surface the message.
func writeShed(w http.ResponseWriter, rej *overload.Rejection) {
	secs := int64((rej.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set(retryAfterHeader, strconv.FormatInt(secs, 10))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	_ = json.NewEncoder(w).Encode(errorBody{Error: rej.Error()})
}
