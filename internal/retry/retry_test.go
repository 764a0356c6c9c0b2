package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fakeClock records every requested delay instead of sleeping, and can
// cancel the context after a given number of sleeps.
type fakeClock struct {
	slept       []time.Duration
	cancelAfter int
	cancel      context.CancelFunc
}

func (c *fakeClock) sleep(ctx context.Context, d time.Duration) error {
	c.slept = append(c.slept, d)
	if c.cancel != nil && len(c.slept) >= c.cancelAfter {
		c.cancel()
	}
	return ctx.Err()
}

// fullJitter pins Rand to its supremum so Delay returns the bound
// itself (times 1-epsilon is avoided by using a closed draw for tests).
func fullJitter() float64 { return 1 }

func TestDelayGrowthAndCap(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Max: 400 * time.Millisecond, Factor: 2, Rand: fullJitter}
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		400 * time.Millisecond, // capped
		400 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.Delay(i); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestDelayJitterRange(t *testing.T) {
	p := Policy{Base: time.Second, Max: time.Second, Rand: func() float64 { return 0.25 }}
	if got := p.Delay(0); got != 250*time.Millisecond {
		t.Fatalf("Delay(0) with r=0.25 = %v, want 250ms", got)
	}
	p.Rand = func() float64 { return 0 }
	if got := p.Delay(3); got != 0 {
		t.Fatalf("Delay with r=0 = %v, want 0", got)
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	clk := &fakeClock{}
	p := Policy{Attempts: 5, Base: 10 * time.Millisecond, Factor: 2, Rand: fullJitter, Sleep: clk.sleep}
	calls := 0
	err := Do(context.Background(), p, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do = %v, want nil", err)
	}
	if calls != 3 {
		t.Fatalf("fn called %d times, want 3", calls)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(clk.slept) != len(want) {
		t.Fatalf("slept %v, want %v", clk.slept, want)
	}
	for i, w := range want {
		if clk.slept[i] != w {
			t.Fatalf("slept %v, want %v", clk.slept, want)
		}
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	clk := &fakeClock{}
	p := Policy{Attempts: 3, Base: time.Millisecond, Rand: fullJitter, Sleep: clk.sleep}
	calls := 0
	sentinel := errors.New("still down")
	err := Do(context.Background(), p, func() error { calls++; return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("Do = %v, want the last attempt's error", err)
	}
	if calls != 3 || len(clk.slept) != 2 {
		t.Fatalf("calls = %d, sleeps = %d; want 3 and 2", calls, len(clk.slept))
	}
}

func TestDoContextCancelDuringSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	clk := &fakeClock{cancelAfter: 1, cancel: cancel}
	p := Policy{Attempts: 5, Base: time.Millisecond, Rand: fullJitter, Sleep: clk.sleep}
	sentinel := errors.New("down")
	err := Do(ctx, p, func() error { return sentinel })
	if !errors.Is(err, context.Canceled) || !errors.Is(err, sentinel) {
		t.Fatalf("Do = %v, want both the cancellation and the last error", err)
	}
	if len(clk.slept) != 1 {
		t.Fatalf("slept %d times after cancellation, want 1", len(clk.slept))
	}
}

func TestZeroPolicyDefaults(t *testing.T) {
	var p Policy
	if p.attempts() != 5 || p.base() != 100*time.Millisecond || p.max() != 5*time.Second || p.factor() != 2 {
		t.Fatalf("zero-policy defaults wrong: %d %v %v %v", p.attempts(), p.base(), p.max(), p.factor())
	}
	p.Rand = fullJitter
	if got := p.Delay(10); got != 5*time.Second {
		t.Fatalf("zero-policy Delay(10) = %v, want the 5s cap", got)
	}
}
