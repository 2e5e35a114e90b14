// Package httpapi exposes the remote data store and the broker over
// HTTP(S) APIs and provides the matching typed clients. Following the
// paper (§5.4), API keys travel in the body of POST requests — never in
// URLs — so that TLS protects them and they stay out of server logs; the
// servers also expose a minimal HTML status page standing in for the
// paper's web user interface (Fig. 3), whose output is the same rule JSON
// the API accepts.
//
// Bodies have two encodings. JSON, the paper's Fig. 4/5 shapes written
// and read by encoding/json over the struct tags, is the default and the
// compatibility path for curl and any untyped caller. The bodies that
// carry samples (an upload, and the query, queryown and stream-next
// answers) may instead travel as a binary frame (binwire.MediaType),
// chosen by Content-Type and Accept; the typed clients always ask for it.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/binwire"
	"sensorsafe/internal/broker"
	"sensorsafe/internal/datastore"
	"sensorsafe/internal/resilience"
	"sensorsafe/internal/stream"
)

// MaxBodyBytes bounds request and response bodies (64 MiB covers large
// upload batches). A longer body is refused by name: 413 on the server,
// a terminal error naming the cap on the client.
const MaxBodyBytes = 64 << 20

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// errMethodNotAllowed marks non-POST calls on POST-only API endpoints.
var errMethodNotAllowed = errors.New("httpapi: method not allowed")

// binAppender is a body that can travel as a binary frame
// (binwire.MediaType): the bodies that carry samples.
type binAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// binDecoder decodes a whole binary frame into the body.
type binDecoder interface {
	DecodeBinary(data []byte) error
}

// isFrame reports whether a Content-Type or Accept entry names the
// binary frame.
func isFrame(mediaType string) bool {
	mt, _, _ := strings.Cut(mediaType, ";")
	return strings.EqualFold(strings.TrimSpace(mt), binwire.MediaType)
}

// acceptsFrame reports whether the request's Accept header names the
// binary frame.
func acceptsFrame(h http.Header) bool {
	for _, v := range h.Values("Accept") {
		for _, mt := range strings.Split(v, ",") {
			if isFrame(mt) {
				return true
			}
		}
	}
	return false
}

// errEncode marks a 200 answer that could not be encoded: the server's
// fault, answered 500.
var errEncode = errors.New("httpapi: encode response")

// bodyBufs recycles the buffers answers are written into, so a large
// response is not regrown from nothing every time.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody is the largest buffer bodyBufs keeps.
const maxPooledBody = 16 << 20

// writeBody answers 200 with the body enc appends. The body is buffered
// first, so an encode failure answers 500 with the JSON error envelope
// instead of an empty or truncated 200.
func writeBody(w http.ResponseWriter, contentType string, enc func([]byte) ([]byte, error)) {
	buf := bodyBufs.Get().(*[]byte)
	b, err := enc((*buf)[:0])
	if err != nil {
		writeError(w, fmt.Errorf("%w: %w", errEncode, err))
	} else {
		w.Header().Set("Content-Type", contentType)
		w.Write(b)
	}
	if cap(b) <= maxPooledBody {
		*buf = b[:0]
		bodyBufs.Put(buf)
	}
}

// writeJSON answers 200 with v as json.Encoder writes it: compact, HTML
// escaped, newline-terminated.
func writeJSON(w http.ResponseWriter, v any) {
	writeBody(w, "application/json", func(b []byte) ([]byte, error) {
		js, err := json.Marshal(v)
		return append(append(b, js...), '\n'), err
	})
}

// writeResp answers 200 with a handler's result: a binary frame when the
// request accepts one and v can write one, JSON otherwise.
func writeResp(w http.ResponseWriter, r *http.Request, v any) {
	if a, ok := v.(binAppender); ok && acceptsFrame(r.Header) {
		writeBody(w, binwire.MediaType, a.AppendBinary)
		return
	}
	writeJSON(w, v)
}

// writeError maps service errors to HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, errEncode):
		status = http.StatusInternalServerError
	case errors.Is(err, auth.ErrBadKey):
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

// post wraps a handler: decodes the request body into req and writes
// whatever handle returns. A body decodes as a binary frame when its
// Content-Type names one and Req can decode one, as JSON otherwise; the
// answer is negotiated by writeResp, and errors are always JSON. The
// request context (carrying the middleware's request ID) is passed
// through so handlers can correlate spans and outbound
// service-to-service calls.
func post[Req any, Resp any](handle func(context.Context, *Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, fmt.Errorf("%w: %s", errMethodNotAllowed, r.Method))
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
		if err != nil {
			writeError(w, fmt.Errorf("httpapi: reading body (cap %d MiB): %w", MaxBodyBytes>>20, err))
			return
		}
		var req Req
		if len(body) > 0 {
			if d, ok := any(&req).(binDecoder); ok && isFrame(r.Header.Get("Content-Type")) {
				if err := d.DecodeBinary(body); err != nil {
					writeError(w, fmt.Errorf("httpapi: bad request frame: %w", err))
					return
				}
			} else if err := json.Unmarshal(body, &req); err != nil {
				writeError(w, fmt.Errorf("httpapi: bad request JSON: %w", err))
				return
			}
		}
		resp, err := handle(r.Context(), &req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeResp(w, r, resp)
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
