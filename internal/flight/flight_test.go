package flight

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"respin/internal/endurance"
)

// TestGroupRecordsOnlyFinalOutcomes: concurrent requesters of one key
// share a single run; a success and a wear-out are kept and recalled,
// a cancellation is handed to its waiters and then forgotten.
func TestGroupRecordsOnlyFinalOutcomes(t *testing.T) {
	var g Group[int]
	release := make(chan struct{})
	runs := 0
	const n = 8
	var wg sync.WaitGroup
	vals := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _ = g.Do(context.Background(), "ok", func() (int, error) {
				runs++ // only the leader runs, so no lock is needed
				<-release
				return 42, nil
			})
		}(i)
	}
	for g.Hits() < n-1 {
		runtime.Gosched() // until every requester but the leader has joined
	}
	close(release)
	wg.Wait()
	if runs != 1 {
		t.Fatalf("%d runs for one key, want 1", runs)
	}
	for i, v := range vals {
		if v != 42 {
			t.Fatalf("requester %d got %d", i, v)
		}
	}

	wear := fmt.Errorf("run: %w", &endurance.WearOutError{Array: "l3"})
	if v, err := g.Do(context.Background(), "wear", func() (int, error) { return 7, wear }); v != 7 || !errors.Is(err, wear) {
		t.Fatalf("wear-out run = %d, %v", v, err)
	}
	if _, err := g.Do(context.Background(), "cancel", func() (int, error) { return 1, context.Canceled }); err == nil {
		t.Fatal("cancelled run lost its error")
	}
	if v, _ := g.Do(context.Background(), "ok", func() (int, error) { t.Fatal("recorded key ran again"); return 0, nil }); v != 42 {
		t.Fatalf("recalled success = %d", v)
	}
	// A recorded outcome answers a requester whose context is done.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 100; i++ {
		if v, err := g.Do(done, "ok", func() (int, error) { return 0, nil }); v != 42 || err != nil {
			t.Fatalf("recall under a done context = %d, %v; want 42, nil", v, err)
		}
	}
	if v, _ := g.Do(context.Background(), "cancel", func() (int, error) { return 2, nil }); v != 2 {
		t.Fatalf("cancelled outcome was recalled (%d) instead of run again", v)
	}
	hits := g.Hits()
	if v, _ := g.Do(context.Background(), "wear", func() (int, error) { t.Fatal("recorded key ran again"); return 0, nil }); v != 7 {
		t.Fatalf("recalled wear-out = %d", v)
	}
	if g.Hits() != hits+1 {
		t.Fatal("recall not counted as a hit")
	}
}

// TestGroupLeaderPanic: a panicking leader releases its joiners with an
// error and forgets the key, and the panic reaches the leader's caller.
func TestGroupLeaderPanic(t *testing.T) {
	var g Group[int]
	started := make(chan struct{})
	joined := make(chan error, 1)
	go func() {
		<-started
		_, err := g.Do(context.Background(), "k", func() (int, error) { return 0, nil })
		joined <- err
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic was swallowed")
			}
		}()
		g.Do(context.Background(), "k", func() (int, error) {
			close(started)
			for g.Hits() == 0 {
				runtime.Gosched() // until the joiner is waiting
			}
			panic("boom")
		})
	}()
	if err := <-joined; !errors.Is(err, errLeaderPanicked) {
		t.Fatalf("joiner got %v, want errLeaderPanicked", err)
	}
	if v, _ := g.Do(context.Background(), "k", func() (int, error) { return 5, nil }); v != 5 {
		t.Fatalf("panicked key kept an outcome (%d) instead of running again", v)
	}
}
