package client

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// retrier is the retry, backoff and circuit-breaker discipline both
// transports share, built from the fields Config and WireConfig have in
// common.
type retrier struct {
	timeout    time.Duration // per attempt
	maxRetries int
	base, max  time.Duration // backoff shape
	seed       int64
	br         *breaker
}

// newRetrier applies the documented defaults to the shared config fields:
// 2s per attempt, 3 retries (negative disables), 10ms–250ms backoff, a
// breaker opening after 8 consecutive failures for 2s.
func newRetrier(timeout time.Duration, maxRetries int, base, max time.Duration, seed int64,
	threshold int, cooldown time.Duration, now func() time.Time) *retrier {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	if maxRetries < 0 {
		maxRetries = 0
	} else if maxRetries == 0 {
		maxRetries = 3
	}
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if max < base {
		max = 250 * time.Millisecond
		if max < base {
			max = base
		}
	}
	if threshold <= 0 {
		threshold = 8
	}
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &retrier{timeout: timeout, maxRetries: maxRetries, base: base, max: max, seed: seed,
		br: newBreaker(threshold, cooldown, now)}
}

func splitmix(x uint64) uint64 {
	z := x + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// backoffFor returns the delay before retry #attempt (attempt ≥ 1):
// exponential in the attempt number, capped, with deterministic jitter in
// [½d, d) drawn from the seed and attempt — decorrelated between clients
// with different seeds, reproducible for equal ones.
func (r *retrier) backoffFor(attempt int) time.Duration {
	d := r.base << (attempt - 1)
	if d > r.max || d <= 0 {
		d = r.max
	}
	half := uint64(d / 2)
	if half == 0 {
		return d
	}
	return time.Duration(half + splitmix(uint64(r.seed)^uint64(attempt)*0x9e3779b97f4a7c15)%half)
}

// attemptErr classifies one failed attempt.
type attemptErr struct {
	err       error // typed error to surface if this is the last attempt
	retryable bool  // may retry (when the call is idempotent)
	breaker   bool  // counts as a breaker failure (server-down signal)
	// after is the server's Retry-After hint, when the rejection carried
	// one (nil otherwise). A hinted rejection is not retryable per se —
	// retry promotes it when the hint fits inside the backoff ceiling.
	after *time.Duration
}

// retry runs try, one attempt per call, under the shared discipline: the
// breaker gate, up to 1+maxRetries attempts for an idempotent call (one
// otherwise), a wait before each retry (the server's Retry-After hint when
// it sent one, else seeded backoff), breaker accounting, and the caller's
// context. try must not retain itself, so a caller's closure stays on the
// stack and a pooled success path does not allocate.
func retry[T any](ctx context.Context, r *retrier, idempotent bool, try func() (T, *attemptErr)) (T, error) {
	var zero T
	if !r.br.allow() {
		return zero, fmt.Errorf("%w: circuit breaker open", ErrUnavailable)
	}
	attempts := 1
	if idempotent {
		attempts += r.maxRetries
	}
	var last *attemptErr
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			d := r.backoffFor(attempt)
			if last.after != nil && *last.after > 0 {
				// The server said exactly when to come back; its pacing
				// replaces the guesswork of jittered backoff.
				d = *last.after
			}
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return zero, fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
			case <-t.C:
			}
		}
		v, ae := try()
		if ae == nil {
			r.br.success()
			return v, nil
		}
		if ae.breaker {
			r.br.failure()
		}
		last = ae
		// A rejection whose Retry-After fits inside the backoff ceiling is
		// worth honoring: the server asked for a pause it expects to be
		// enough. Hints beyond the ceiling (or absent) surface immediately.
		retryable := ae.retryable || (ae.after != nil && *ae.after <= r.max)
		if !retryable || !idempotent {
			break
		}
		if ctx.Err() != nil {
			return zero, fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
		}
	}
	return zero, last.err
}

// classify maps one answer's HTTP status to its typed error and retry
// class. The wire transport passes its code's HTTP status from the serve
// error table, so both transports classify from one mapping. label names
// the status in messages ("HTTP 503", or the wire code); after is the
// server's Retry-After hint, when one came with the answer.
func classify(status int, label string, after *time.Duration, detail string) *attemptErr {
	switch {
	case status < 300:
		return nil
	case status == http.StatusTooManyRequests:
		if after != nil {
			return &attemptErr{err: &RejectedError{After: *after, Detail: detail}, after: after}
		}
		return &attemptErr{err: fmt.Errorf("%w: %s", ErrRejected, detail)}
	case status == http.StatusConflict:
		return &attemptErr{err: fmt.Errorf("%w: %s", ErrConflict, detail)}
	case status == http.StatusGatewayTimeout:
		return &attemptErr{err: fmt.Errorf("%w: server: %s", ErrTimeout, detail), retryable: true}
	case status >= 500:
		return &attemptErr{err: fmt.Errorf("%w: %s: %s", ErrUnavailable, label, detail), retryable: true, breaker: true}
	default: // remaining 4xx: the request is wrong, retrying cannot help
		return &attemptErr{err: fmt.Errorf("%w: %s: %s", ErrBadRequest, label, detail)}
	}
}
