package faults

import (
	"context"
	"time"

	"zdr/internal/workload"
)

// Backoff is a capped exponential backoff with deterministic jitter. The
// zero value is usable: 20ms base, doubling, capped at 500ms, 10
// attempts, no jitter. It replaces the hand-rolled fixed-interval retry
// loops that used to live in core.ProxySlot.Restart, the origin's PPR
// retry loop, and takeover.Connect.
type Backoff struct {
	Base     time.Duration // first delay (default 20ms)
	Max      time.Duration // per-delay cap (default 500ms)
	Factor   float64       // growth factor (default 2)
	jitter   float64       // fraction of the delay randomised, in [0,1]
	Attempts int           // attempts for Retry (default 10)
	seed     uint64        // jitter seed; same seed → same jitter sequence
}

const (
	defaultBase     = 20 * time.Millisecond
	defaultMax      = 500 * time.Millisecond
	defaultFactor   = 2.0
	defaultAttempts = 10
)

// Delay returns the pause after the attempt-th failure (attempt 0 is the
// first). It is a pure function: deterministic given (Backoff, attempt).
func (b Backoff) Delay(attempt int) time.Duration {
	base, max, factor := b.Base, b.Max, b.Factor
	if base <= 0 {
		base = defaultBase
	}
	if max <= 0 {
		max = defaultMax
	}
	if factor < 1 {
		factor = defaultFactor
	}
	d := float64(base)
	for i := 0; i < attempt; i++ {
		d *= factor
		if d >= float64(max) {
			d = float64(max)
			break
		}
	}
	if d > float64(max) {
		d = float64(max)
	}
	if b.jitter > 0 {
		j := b.jitter
		if j > 1 {
			j = 1
		}
		// Deterministic jitter: scale by a factor in [1-j/2, 1+j/2]
		// drawn from the (Seed, attempt) stream.
		u := workload.NewRNG(mix(b.seed, uint64(attempt))).Float64()
		d *= 1 - j/2 + j*u
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// permanentError marks an error as non-retryable.
type permanentError struct{ err error }

func (p permanentError) Error() string { return p.err.Error() }
func (p permanentError) Unwrap() error { return p.err }

// Permanent wraps err so Retry stops immediately and returns err instead
// of burning the remaining attempts (e.g. a protocol violation behind a
// successful dial).
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return permanentError{err: err}
}

// Retry runs op up to b.Attempts times, sleeping Delay(i) between
// attempts, until op returns nil, a Permanent error, or ctx is done. It
// returns nil on success, the unwrapped error for a Permanent failure,
// and otherwise the last attempt's error (or ctx.Err() if cancellation
// struck before any attempt failed).
func (b Backoff) Retry(ctx context.Context, op func() error) error {
	attempts := b.Attempts
	if attempts <= 0 {
		attempts = defaultAttempts
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			t := time.NewTimer(b.Delay(i - 1))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return err
			}
		}
		if err = op(); err == nil {
			return nil
		}
		var pe permanentError
		if ok := asPermanent(err, &pe); ok {
			return pe.err
		}
		if ctx.Err() != nil {
			return err
		}
	}
	return err
}

// asPermanent is errors.As specialised to permanentError without pulling
// reflection into the hot path.
func asPermanent(err error, target *permanentError) bool {
	for err != nil {
		if pe, ok := err.(permanentError); ok {
			*target = pe
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
