// Package retry implements bounded exponential backoff with full
// jitter. The policy follows the standard stampede-avoidance argument:
// a deterministic backoff re-synchronizes every client that failed at
// the same moment (they all retry at the same moment too), while full
// jitter — a uniform draw over [0, bound) with the bound growing
// geometrically — spreads the retries across the whole window, which
// minimizes peak load on the recovering server for a given expected
// delay.
//
// The clock and the randomness are injectable, so callers can unit-test
// retry loops against a fake clock without sleeping, and the loop is
// context-aware: cancellation interrupts a pending delay immediately.
package retry

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// Policy describes a bounded retry loop. The zero value is usable:
// 5 attempts, 100ms base, 5s cap, doubling.
type Policy struct {
	// Attempts bounds how many times Do invokes the operation
	// (including the first, un-delayed call); 0 selects 5.
	Attempts int
	// Base is the upper bound of the first delay; 0 selects 100ms.
	Base time.Duration
	// Max caps the delay bound however many attempts have failed;
	// 0 selects 5s.
	Max time.Duration
	// Factor grows the bound between attempts; 0 selects 2.
	Factor float64

	// Rand returns a uniform draw in [0, 1); nil selects math/rand.
	// Inject a fixed function for deterministic tests.
	Rand func() float64
	// Sleep waits for d or until ctx is done, returning ctx.Err() in
	// the latter case; nil selects a real timer. Inject a recorder for
	// fake-clock tests.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (p Policy) attempts() int { return orDefault(p.Attempts, 5) }

func (p Policy) base() time.Duration { return orDefault(p.Base, 100*time.Millisecond) }

func (p Policy) max() time.Duration { return orDefault(p.Max, 5*time.Second) }

func (p Policy) factor() float64 { return orDefault(p.Factor, 2) }

// orDefault returns v unless it is zero-or-negative, then def.
func orDefault[T int | time.Duration | float64](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

func (p Policy) rand() func() float64 {
	if p.Rand != nil {
		return p.Rand
	}
	return rand.Float64
}

func (p Policy) sleep() func(context.Context, time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep
	}
	return realSleep
}

func realSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Delay returns the jittered delay after the attempt-th failure
// (0-based): uniform over [0, min(Max, Base*Factor^attempt)).
func (p Policy) Delay(attempt int) time.Duration {
	bound := float64(p.base())
	limit := float64(p.max())
	for i := 0; i < attempt && bound < limit; i++ {
		bound *= p.factor()
	}
	if bound > limit {
		bound = limit
	}
	return time.Duration(p.rand()() * bound)
}

// Do invokes fn until it succeeds, exhausts the attempt budget, or ctx
// is cancelled. The error returned is the last attempt's (joined with
// the context's when cancellation cut the loop short), so callers see
// what kept failing, not just that time ran out.
func Do(ctx context.Context, p Policy, fn func() error) error {
	var err error
	attempts := p.attempts()
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if serr := p.sleep()(ctx, p.Delay(attempt-1)); serr != nil {
				return errors.Join(err, serr)
			}
		}
		err = fn()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return errors.Join(err, ctx.Err())
		}
	}
	return err
}
