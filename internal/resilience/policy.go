package resilience

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"sensorsafe/internal/obs"
	"sensorsafe/internal/obs/trace"
)

// Retry metrics, labeled by logical operation (API path) so a dashboard
// can tell which hop is flapping.
var (
	metricRetries = obs.NewCounterVec("sensorsafe_resilience_retries_total",
		"Retry attempts issued after a retryable failure, by operation.", "op")
	metricGiveUps = obs.NewCounterVec("sensorsafe_resilience_giveups_total",
		"Operations abandoned after retries, by operation and reason.", "op", "reason")
)

// Backoff shape. The first retry waits baseDelay, each later one twice
// the last up to maxDelay, and each is scaled by a factor drawn from
// [1-jitter/2, 1+jitter/2], so concurrent retriers in different processes
// spread out instead of retrying in lockstep.
const (
	baseDelay  = 50 * time.Millisecond
	maxDelay   = 2 * time.Second
	multiplier = 2
	jitter     = 0.2
)

// maxRetryAfter caps a server's Retry-After hint. The hint is untrusted
// input; our own servers send at most 5 s (overload's overloaded state),
// so anything longer is a misbehaving or hostile peer, and honoring it
// would hold the caller (and any admission slot it holds) for as long as
// that peer asks.
const maxRetryAfter = 10 * time.Second

// Policy drives retries for one client: capped exponential backoff with
// jitter, and respect for server Retry-After hints up to maxRetryAfter.
// The zero value retries nothing; use Default() for sane production
// settings. A Policy is safe for concurrent use.
type Policy struct {
	// MaxAttempts is the total number of tries (1 = no retries).
	MaxAttempts int
	// Sleep is a test seam for the backoff wait; nil uses a real timer that
	// honors ctx cancellation.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Default returns the shared production policy: 4 attempts, 50ms backoff
// doubling to a 2s cap with 20% jitter.
func Default() *Policy { return defaultPolicy }

var defaultPolicy = &Policy{MaxAttempts: 4}

// attempts resolves the effective attempt count.
func (p *Policy) attempts() int {
	if p == nil || p.MaxAttempts <= 0 {
		return 1
	}
	return p.MaxAttempts
}

// backoff computes the delay before retry i (0-based), folding in the
// server's Retry-After hint when it is larger, up to maxRetryAfter.
func backoff(i int, hint time.Duration) time.Duration {
	d := float64(baseDelay)
	for k := 0; k < i; k++ {
		d *= multiplier
		if d >= float64(maxDelay) {
			break
		}
	}
	delay := time.Duration(d * (1 - jitter/2 + jitter*rand.Float64()))
	if delay > maxDelay {
		delay = maxDelay
	}
	if hint > delay {
		// The server knows its own recovery horizon best, within reason.
		delay = min(hint, maxRetryAfter)
	}
	return delay
}

// sleep waits out a backoff, aborting early if ctx ends.
func (p *Policy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Do runs fn under the policy: retryable failures back off and try again
// until the attempts or the caller's context run out. op labels the retry
// metrics.
func (p *Policy) Do(ctx context.Context, op string, fn func(ctx context.Context) error) error {
	if p == nil {
		p = defaultPolicy
	}
	attempts := p.attempts()
	var err error
	for i := 0; i < attempts; i++ {
		err = fn(ctx)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			metricGiveUps.With(op, "canceled").Inc()
			return err
		}
		if !Retryable(err) {
			if i > 0 {
				metricGiveUps.With(op, "terminal").Inc()
			}
			return err
		}
		if i+1 >= attempts {
			metricGiveUps.With(op, "attempts").Inc()
			return fmt.Errorf("resilience: %s failed after %d attempts: %w", op, attempts, err)
		}
		metricRetries.With(op).Inc()
		delay := backoff(i, RetryAfterOf(err))
		// The retry is an event on the caller's active span (not a span of
		// its own): the trace shows when each attempt gave up and how long
		// the backoff held the operation, without fabricating extra tree
		// nodes for waits.
		trace.FromContext(ctx).AddEvent("retry",
			trace.String("op", op),
			trace.Int("attempt", i+1),
			trace.String("cause", err.Error()),
			trace.Duration("backoff_ms", delay))
		if serr := p.sleep(ctx, delay); serr != nil {
			return fmt.Errorf("resilience: %s interrupted during backoff: %w", op, err)
		}
	}
	return err
}
