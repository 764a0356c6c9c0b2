// Package flight is the singleflight cache shared by the batch runner
// and the evaluation service: the first requester of a key (the leader)
// runs the work, requesters arriving while it runs join it, and a
// recorded outcome answers every later request for the key without
// running anything.
//
// Only recorded outcomes are kept (see Recorded). A cancelled, timed-out
// or failed run is handed to the requesters waiting on it and then
// forgotten, so a partial or failed result can never masquerade as a
// complete one.
package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"respin/internal/endurance"
)

// Recorded reports whether a run that returned err has a final,
// deterministic outcome worth keeping: it completed, or an STT array
// wore out (the lifetime report is the result). Cancellations, deadlines
// and failures are not recorded.
func Recorded(err error) bool {
	var wear *endurance.WearOutError
	return err == nil || errors.As(err, &wear)
}

// errLeaderPanicked is what joiners of a flight whose leader panicked
// receive; the panic itself continues up the leader's stack.
var errLeaderPanicked = errors.New("flight: leader panicked")

// Group deduplicates work by key and keeps recorded outcomes. The zero
// value is ready to use.
type Group[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]

	hits atomic.Uint64
}

// call is one key's flight. done closes once val and err are final.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do returns key's outcome. With a recorded outcome it returns that
// outcome (a recall); with a flight under way it waits for it (a join),
// giving up with ctx.Err() when ctx is done first while the flight
// carries on for everyone else. Otherwise it runs fn itself, hands the
// result to the requesters that joined meanwhile, and keeps it when
// Recorded(err).
func (g *Group[V]) Do(ctx context.Context, key string, fn func() (V, error)) (V, error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*call[V])
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		g.hits.Add(1)
		// A finished flight answers even when ctx is already done.
		select {
		case <-c.done:
			return c.val, c.err
		default:
		}
		select {
		case <-c.done:
			return c.val, c.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	c := &call[V]{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	returned := false
	defer func() {
		if !returned {
			// fn panicked: forget the key and release the joiners while
			// the panic carries on.
			g.forget(key)
			c.err = errLeaderPanicked
			close(c.done)
		}
	}()
	c.val, c.err = fn()
	returned = true
	if !Recorded(c.err) {
		g.forget(key)
	}
	close(c.done)
	return c.val, c.err
}

func (g *Group[V]) forget(key string) {
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
}

// Hits reports how many Do calls joined a flight or recalled an outcome
// instead of running fn.
func (g *Group[V]) Hits() uint64 { return g.hits.Load() }
