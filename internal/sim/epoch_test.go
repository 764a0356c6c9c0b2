package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"respin/internal/config"
	"respin/internal/faults"
)

// TestEpochLengthInvariance is the property test behind
// Options.EpochCycles: the Result must be identical for every epoch
// length from 1 up to the lookahead bound (randomly sampled). Only the
// scheduler's internal pacing — epoch counters, fast-forward split
// between cluster-local and chip-level jumps — may vary, and none of
// that is visible in the Result.
func TestEpochLengthInvariance(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		kind   config.ArchKind
		bench  string
		optsFn func() Options
	}{
		{config.SHSTT, "radix", func() Options {
			return Options{QuotaInstr: 12_000, Seed: 3}
		}},
		{config.SHSTTCC, "fft", func() Options {
			return Options{QuotaInstr: 12_000, Seed: 1, EpochTrace: true,
				Faults: faults.Params{Seed: 2, STTWriteFailProb: 1e-3}}
		}},
	} {
		opts := tc.optsFn()
		opts.EpochCycles = 1
		ref := run(t, tc.kind, tc.bench, opts)
		for trial := 0; trial < 3; trial++ {
			k := uint64(1 + rng.Intn(40)) // clamped to the lookahead internally
			opts := tc.optsFn()
			opts.EpochCycles = k
			if got := run(t, tc.kind, tc.bench, opts); !reflect.DeepEqual(ref, got) {
				t.Fatalf("%v/%s: K=%d diverged from K=1\nref: %+v\ngot: %+v",
					tc.kind, tc.bench, k, ref, got)
			}
		}
	}
}
