package federation

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/url"
	"time"

	"sensorsafe/internal/resilience"
)

// Outcome classifies how one store fared in a cohort query. Failures are
// first-class: a consumer must be able to tell "no data" (ok, zero
// releases) from "store down" (unreachable) or "key rejected" (denied),
// so a partial result is never mistaken for a complete one.
type Outcome string

const (
	// OutcomeOK: the store answered; zero releases means the rules (or the
	// query) released nothing, not that anything failed.
	OutcomeOK Outcome = "ok"
	// OutcomeTimeout: the per-store deadline expired before an answer.
	OutcomeTimeout Outcome = "timeout"
	// OutcomeDenied: the store (or the broker's Connect) rejected the
	// consumer — bad or revoked key, missing account, forbidden role.
	OutcomeDenied Outcome = "denied"
	// OutcomeUnreachable: transport failure or persistent 5xx; the store
	// may hold data this result is missing.
	OutcomeUnreachable Outcome = "unreachable"
	// OutcomeShed: the store is alive but shedding load (429 with a
	// Retry-After). Distinct from unreachable: the data exists and a
	// later, politer retry will get it — "store down" and "store
	// protecting itself" must never be confused.
	OutcomeShed Outcome = "shed"
	// OutcomeError: anything else (malformed response, bad query).
	OutcomeError Outcome = "error"
)

// StoreReport is one store's per-query outcome, returned alongside the
// merged releases.
type StoreReport struct {
	// Contributor owns the store.
	Contributor string `json:"contributor"`
	// StoreAddr is the store queried ("" when directory resolution failed).
	StoreAddr string `json:"storeAddr,omitempty"`
	// Outcome classifies the result.
	Outcome Outcome `json:"outcome"`
	// Error is the failure detail for non-ok outcomes.
	Error string `json:"error,omitempty"`
	// Releases is how many released spans this store contributed to the
	// current page.
	Releases int `json:"releases"`
	// Remaining counts releases past the page limit still waiting behind
	// the cursor.
	Remaining int `json:"remaining,omitempty"`
	// Latency is the store's wall-clock fetch time (Connect excluded).
	Latency time.Duration `json:"latency,omitempty"`
	// Hedged reports that a second, hedged request was fired because the
	// first ran long; HedgeWon that the hedge answered first.
	Hedged   bool `json:"hedged,omitempty"`
	HedgeWon bool `json:"hedgeWon,omitempty"`
	// Missing flags that this store's data is absent from the merged
	// releases (any non-ok outcome).
	Missing bool `json:"missing,omitempty"`
}

// classify maps a fetch or connect error to an Outcome.
func classify(err error) Outcome {
	if err == nil {
		return OutcomeOK
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return OutcomeTimeout
	}
	var se *resilience.StatusError
	if errors.As(err, &se) {
		switch se.Code {
		case http.StatusUnauthorized, http.StatusForbidden:
			return OutcomeDenied
		case http.StatusNotFound:
			// The store does not know this consumer or contributor — the
			// credential path is broken, not the network.
			return OutcomeDenied
		case http.StatusTooManyRequests:
			return OutcomeShed
		}
		if se.Code >= 500 {
			return OutcomeUnreachable
		}
		return OutcomeError
	}
	var ne net.Error
	var ue *url.Error
	if errors.As(err, &ne) || errors.As(err, &ue) {
		return OutcomeUnreachable
	}
	if errors.Is(err, context.Canceled) {
		return OutcomeTimeout
	}
	return OutcomeError
}
