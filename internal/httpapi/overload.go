package httpapi

import (
	"encoding/json"
	"net"
	"net/http"
	"strconv"
	"time"

	"sensorsafe/internal/obs/trace"
	"sensorsafe/internal/overload"
)

// retryAfterHeader carries the server's backoff hint on 429 responses;
// the resilience clients already parse it (delta-seconds or HTTP-date).
const retryAfterHeader = "Retry-After"

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

// admit gates next behind the admission controller's class: a shed
// request answers 429 + Retry-After without reaching next (or the
// idempotency cache behind it, which never stores 429s), and an admitted
// one releases its gate slot when next returns.
func admit(ctrl *overload.Controller, class overload.Class, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
