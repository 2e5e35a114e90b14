// Package httpapi exposes the remote data store and the broker over
// HTTP(S) JSON APIs and provides the matching typed clients. Following the
// paper (§5.4), API keys travel in the body of POST requests — never in
// URLs — so that TLS protects them and they stay out of server logs; the
// servers also expose a minimal HTML status page standing in for the
// paper's web user interface (Fig. 3), whose output is the same rule JSON
// the API accepts.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/broker"
	"sensorsafe/internal/datastore"
	"sensorsafe/internal/resilience"
	"sensorsafe/internal/stream"
)

// maxBodyBytes bounds request and response bodies (64 MiB covers large
// upload batches). A longer body is refused by name: 413 on the server,
// a terminal error naming the cap on the client.
const maxBodyBytes = 64 << 20

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// errMethodNotAllowed marks non-POST calls on POST-only API endpoints.
var errMethodNotAllowed = errors.New("httpapi: method not allowed")

// jsonAppender is a body that writes its own JSON, byte for byte what
// encoding/json writes for it.
type jsonAppender interface {
	AppendJSON(b []byte) ([]byte, error)
}

// jsonDecoder is a body that decodes its own JSON, accepting exactly what
// json.Unmarshal accepts.
type jsonDecoder interface {
	DecodeJSON(data []byte) error
}

// bodyBufs recycles the buffers self-appending bodies are written into,
// so a large response is not regrown from nothing every time.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody is the largest buffer bodyBufs keeps.
const maxPooledBody = 16 << 20

// writeJSON encodes a 200 response, as json.Encoder does: compact, HTML
// escaped, newline-terminated.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if a, ok := v.(jsonAppender); ok {
		buf := bodyBufs.Get().(*[]byte)
		b, err := a.AppendJSON((*buf)[:0])
		if err == nil {
			w.Write(append(b, '\n'))
		}
		// On an error, write nothing, as json.Encoder does: the client
		// sees an empty body, not a truncated one.
		if cap(b) <= maxPooledBody {
			*buf = b
			bodyBufs.Put(buf)
		}
		return
	}
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for a status change; the connection will show the
		// truncated body.
		return
	}
}

// writeError maps service errors to HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, auth.ErrBadKey),
		errors.Is(err, auth.ErrBadLogin),
		errors.Is(err, auth.ErrSessionExpired):
		status = http.StatusUnauthorized
	case errors.Is(err, datastore.ErrNotContributor),
		errors.Is(err, datastore.ErrNotConsumer),
		errors.Is(err, stream.ErrNotOwner):
		status = http.StatusForbidden
	case errors.Is(err, auth.ErrUnknownUser),
		errors.Is(err, datastore.ErrUnknownUser),
		errors.Is(err, stream.ErrUnknownSubscription),
		errors.Is(err, broker.ErrUnknownContributor),
		errors.Is(err, broker.ErrUnknownStore),
		errors.Is(err, broker.ErrUnknownList),
		errors.Is(err, broker.ErrUnknownStudy):
		status = http.StatusNotFound
	case errors.Is(err, auth.ErrDuplicateUser),
		errors.Is(err, resilience.ErrStaleVersion):
		// 409 round-trips the stale-version sentinel: the client-side
		// StatusError unwraps a 409 back to resilience.ErrStaleVersion.
		status = http.StatusConflict
	case errors.Is(err, errMethodNotAllowed):
		status = http.StatusMethodNotAllowed
	case errors.As(err, new(*http.MaxBytesError)):
		status = http.StatusRequestEntityTooLarge
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

// post wraps a JSON-in/JSON-out handler: decodes the request body into req
// and writes whatever handle returns. The request context (carrying the
// middleware's request ID) is passed through so handlers can correlate
// spans and outbound service-to-service calls.
func post[Req any, Resp any](handle func(context.Context, *Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, fmt.Errorf("%w: %s", errMethodNotAllowed, r.Method))
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			writeError(w, fmt.Errorf("httpapi: reading body (cap %d MiB): %w", maxBodyBytes>>20, err))
			return
		}
		var req Req
		if len(body) > 0 {
			if err := json.Unmarshal(body, &req); err != nil {
				writeError(w, fmt.Errorf("httpapi: bad request JSON: %w", err))
				return
			}
		}
		resp, err := handle(r.Context(), &req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, resp)
	}
}

// okResp is the empty success envelope.
type okResp struct {
	OK bool `json:"ok"`
}

// Health is the JSON shape of both servers' /healthz endpoints; the
// store fills Name/Segments/Users, the broker Contributors/Consumers.
type Health struct {
	Status       string  `json:"status"`
	UptimeS      float64 `json:"uptime_s"`
	Name         string  `json:"name,omitempty"`
	Segments     int     `json:"segments,omitempty"`
	Users        int     `json:"users,omitempty"`
	Contributors int     `json:"contributors,omitempty"`
	Consumers    int     `json:"consumers,omitempty"`
	// Degradation is the overload controller's state ("healthy",
	// "degraded", "overloaded") and Pressure its composite signal in
	// [0,1+]; load balancers and `consumercli health` read these.
	Degradation string  `json:"degradation,omitempty"`
	Pressure    float64 `json:"pressure,omitempty"`
}
