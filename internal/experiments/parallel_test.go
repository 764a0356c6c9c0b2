package experiments

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"respin/internal/config"
)

// TestParallelFigure7Identity checks the core determinism claim on a
// single figure: the rendered output must be byte-identical whether the
// worker pool runs one simulation at a time or eight.
func TestParallelFigure7Identity(t *testing.T) {
	render := func(jobs int) string {
		r := tinyRunner()
		r.Jobs = jobs
		return r.Figure7().Render()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("Figure 7 output differs between jobs=1 and jobs=8:\n--- jobs=1\n%s\n--- jobs=8\n%s",
			serial, parallel)
	}
}

// TestParallelRunnerMatchesSerial runs the full evaluation at both
// parallelism levels and requires byte-identical reports: drivers
// consume results by key, so completion order must never leak into the
// output. The 8-wide side is the shared shapeRunner, whose cache the
// *Shape tests may already have filled on its own pool.
func TestParallelRunnerMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite is slow")
	}
	r := tinyRunner()
	r.Jobs = 1
	serial := r.All().Report()
	parallel := shapeRunner().All().Report()
	if serial != parallel {
		t.Error("full evaluation report differs between jobs=1 and jobs=8")
	}
}

// TestSingleflightDedupes issues the same point from many goroutines at
// once and requires exactly one simulation (one progress line): the
// leader runs, everyone else joins the flight.
func TestSingleflightDedupes(t *testing.T) {
	r := tinyRunner()
	r.Jobs = 8
	var buf bytes.Buffer
	r.Progress = &buf

	run := r.mediumPoint(config.SHSTT, "fft")
	var wg sync.WaitGroup
	results := make([]uint64, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = r.result(run).Cycles
		}(i)
	}
	wg.Wait()

	if n := strings.Count(buf.String(), "ran "); n != 1 {
		t.Errorf("progress shows %d runs for one key, want 1:\n%s", n, buf.String())
	}
	for i, c := range results {
		if c != results[0] {
			t.Errorf("requester %d saw %d cycles, requester 0 saw %d", i, c, results[0])
		}
	}
}

// TestCancelledRunNotCached cancels before the run starts: the partial
// result must reach the caller, the runner must report Aborted, and the
// cache must not retain the truncated result.
func TestCancelledRunNotCached(t *testing.T) {
	r := tinyRunner()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r.Ctx = ctx

	res := r.medium(config.SHSTT, "fft")
	if !r.Aborted() {
		t.Error("runner not marked aborted after cancelled run")
	}
	if n := r.flights.Len(); n != 0 {
		t.Errorf("cache holds %d entries after cancellation, want 0 (partial results must not be cached)", n)
	}
	// The partial result is still handed back (All uses it to truncate
	// gracefully), it just must not be mistaken for a full run.
	full := tinyRunner().medium(config.SHSTT, "fft")
	if res.Cycles >= full.Cycles {
		t.Errorf("cancelled run reports %d cycles, complete run %d — cancellation had no effect",
			res.Cycles, full.Cycles)
	}
}

// TestPrefetchWarmsCache enqueues a batch and then consumes it: the
// consuming call must join the prefetched flight rather than starting a
// second simulation.
func TestPrefetchWarmsCache(t *testing.T) {
	r := tinyRunner()
	r.Jobs = 4
	var buf bytes.Buffer
	r.Progress = &buf

	r.Prefetch(r.figure7Runs()...)
	f7 := r.Figure7() // joins the in-flight runs
	if len(f7.Normalized[config.SHSTT]) != len(r.Benches) {
		t.Fatal("figure incomplete after prefetch")
	}
	want := len(dedupe(r.figure7Runs()))
	if n := strings.Count(buf.String(), "ran "); n != want {
		t.Errorf("progress shows %d runs, want %d (prefetch + consume must share flights)", n, want)
	}
}
