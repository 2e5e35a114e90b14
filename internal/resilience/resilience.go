// Package resilience is SensorSafe's fault-tolerance layer for every
// network hop: error classification (retryable vs. terminal), a capped
// exponential-backoff retry engine with jitter and bounded Retry-After
// respect, a bounded idempotency cache so retried mutations are applied
// exactly once, and crash-safe atomic file writes for the services'
// durable state. Like obs, it depends only on the standard library so the
// clients, servers, datastore, broker, and phone can all share one policy
// vocabulary.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"time"
)

// ErrStaleVersion marks a replica push rejected because the receiver
// already holds a newer (or equal) version. It is a *convergence signal*,
// not a failure: the sender should drop its pending entry, never retry.
// The HTTP layer maps it to 409 Conflict and back.
var ErrStaleVersion = errors.New("stale replica version")

// terminalError forces a terminal classification on errors whose dynamic
// type would otherwise read as transient.
type terminalError struct{ err error }

func (e *terminalError) Error() string { return e.err.Error() }
func (e *terminalError) Unwrap() error { return e.err }

// MarkTerminal wraps err so Retryable reports false even for network-ish
// error types.
func MarkTerminal(err error) error {
	if err == nil {
		return nil
	}
	return &terminalError{err}
}

// StatusError is an HTTP response that signaled failure. The retry engine
// consults Code (5xx and 429 are transient, other 4xx are the caller's
// bug) and RetryAfter (the server's own backoff hint).
type StatusError struct {
	// Code is the HTTP status code.
	Code int
	// RetryAfter is the parsed Retry-After delay (0 when absent).
	RetryAfter time.Duration
	// Msg is the human-readable error, already formatted by the caller.
	Msg string
}

func (e *StatusError) Error() string { return e.Msg }

// Unwrap lets errors.Is(err, ErrStaleVersion) see through a 409: the wire
// cannot carry the sentinel itself, so the status code stands in for it.
func (e *StatusError) Unwrap() error {
	if e.Code == http.StatusConflict {
		return ErrStaleVersion
	}
	return nil
}

// transient reports whether the status code is worth retrying.
func (e *StatusError) transient() bool {
	switch e.Code {
	case http.StatusTooManyRequests,
		http.StatusInternalServerError,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// RetryAfterOf extracts the server's Retry-After hint from an error chain
// (0 when there is none).
func RetryAfterOf(err error) time.Duration {
	var se *StatusError
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return 0
}

// IsStale reports whether err is a stale-version rejection — the receiver
// already converged past what the sender offered.
func IsStale(err error) bool { return errors.Is(err, ErrStaleVersion) }

// Retryable classifies an error: true means another attempt could
// plausibly succeed (network failures, timeouts, torn bodies, 5xx/429);
// false means retrying is useless or unsafe (cancellation, validation
// failures, auth rejections, stale versions).
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	// An explicit mark wins over everything below.
	var te *terminalError
	if errors.As(err, &te) {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	// A deadline blown on one attempt is the textbook transient failure;
	// Policy.Do separately stops when the *caller's* context is done.
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.transient()
	}
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return true // torn response body
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var ue *url.Error
	if errors.As(err, &ue) {
		return true // http.Client transport failures
	}
	return false
}

// Status builds a StatusError with a formatted message.
func Status(code int, retryAfter time.Duration, format string, args ...any) *StatusError {
	return &StatusError{Code: code, RetryAfter: retryAfter, Msg: fmt.Sprintf(format, args...)}
}
