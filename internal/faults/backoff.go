package faults

import (
	"context"
	"time"

	"zdr/internal/workload"
)

// Backoff is a capped exponential backoff with deterministic jitter. The
// zero value is usable: 20ms base, doubling, capped at 500ms, 10
// attempts, no jitter. It replaces the hand-rolled fixed-interval retry
// loops that used to live in core.ProxySlot.Restart and the origin's PPR
// retry loop.
type Backoff struct {
	Base     time.Duration // first delay (default 20ms)
	Max      time.Duration // per-delay cap (default 500ms)
	factor   float64       // growth factor (default 2)
	jitter   float64       // fraction of the delay randomised, in [0,1]
	attempts int           // attempts for Retry (default 10)
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
	base, max, factor := b.Base, b.Max, b.factor
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

// Retry runs op up to b.attempts times, sleeping Delay(i) between
// attempts, until op returns nil or ctx is done. It returns nil on
// success, and otherwise the last attempt's error.
func (b Backoff) Retry(ctx context.Context, op func() error) error {
	attempts := b.attempts
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
		if ctx.Err() != nil {
			return err
		}
	}
	return err
}
