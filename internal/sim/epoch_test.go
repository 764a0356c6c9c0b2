package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"respin/internal/config"
	"respin/internal/faults"
)

// TestEpochLengthInvariance is the property test behind
// Options.EpochCycles: on these runs the Result must be identical at
// the default epoch length (K = 0 below), at K = 7 and at randomly
// sampled lengths from 1 up to the lookahead bound. Only the
// scheduler's internal pacing — epoch counters, fast-forward split
// between cluster-local and chip-level jumps — may vary, and none of
// that is visible in the Result. The invariance is not universal: work
// done at epoch boundaries (the machine check of HaltOnUncorrectable,
// the L3's retention scrubs) lands on a different cycle at a different
// K, so runs with either are left out (DESIGN §4d).
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
		// Kills clamp epochs to their delivery cycles.
		{config.PRSRAMNT, "ocean", func() Options {
			return Options{QuotaInstr: 20_000, Seed: 1,
				Faults: faults.Params{Seed: 1, Kills: []faults.KillSpec{
					{Cluster: 1, Core: 2, Cycle: 5_003},
					{Cluster: 3, Core: 0, Cycle: 17_777},
					{Cluster: 2, Core: 5, Cycle: 30_001},
				}}}
		}},
		// OS consolidation runs on its own fixed interval.
		{config.SHSTTCCOS, "fft", func() Options {
			return Options{QuotaInstr: 20_000, Seed: 1}
		}},
	} {
		opts := tc.optsFn()
		opts.EpochCycles = 1
		ref := run(t, tc.kind, tc.bench, opts)
		ks := []uint64{0, 7}
		for trial := 0; trial < 3; trial++ {
			ks = append(ks, uint64(1+rng.Intn(40))) // clamped to the lookahead internally
		}
		for _, k := range ks {
			opts := tc.optsFn()
			opts.EpochCycles = k
			if got := run(t, tc.kind, tc.bench, opts); !reflect.DeepEqual(ref, got) {
				t.Fatalf("%v/%s: K=%d diverged from K=1\nref: %+v\ngot: %+v",
					tc.kind, tc.bench, k, ref, got)
			}
		}
	}
}
