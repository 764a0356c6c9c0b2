package cluster

import (
	"testing"

	"respin/internal/config"
	"respin/internal/endurance"
	"respin/internal/power"
	"respin/internal/trace"
	"respin/internal/variation"
)

// TestNextWakeStopsAtScrubDeadline: with retention modelled, an idle
// fast-forward may not jump past a pending scrub, or the scrub runs
// late and lines a ticked run would have refreshed expire. Whenever
// NextWake reports ok and the next deferred event lies beyond the next
// scrub deadline, wake must be at or before that deadline.
func TestNextWakeStopsAtScrubDeadline(t *testing.T) {
	for _, tc := range []struct {
		kind  config.ArchKind
		bench string
	}{
		{config.PRSTTCC, "ocean"},
		{config.SHSTT, "fft"},
	} {
		t.Run(tc.kind.String()+"/"+tc.bench, func(t *testing.T) {
			cfg := config.New(tc.kind, config.Medium)
			vm := variation.Generate(cfg.VariationSeed, 8, 8, config.CoreNTVdd, variation.DefaultParams())
			cl := &testCluster{
				Cluster: New(Params{
					Config:     cfg,
					Chip:       power.NewChip(cfg),
					PCores:     vm.ClusterCores(0, cfg.ClusterSize),
					Bench:      trace.MustByName(tc.bench),
					Seed:       1,
					QuotaInstr: 5_000,
					Endurance:  endurance.NewTracker(endurance.Params{Seed: 1, RetentionCycles: 3_000}),
				}),
				lower: &fakeLower{latency: 100},
			}
			checked := 0
			for !cl.Done() {
				if cl.Now() >= 2_000_000 {
					t.Fatal("cluster did not finish")
				}
				if cl.Unfinished() > 0 && cl.BarrierWaiters() == cl.Unfinished() {
					cl.ScheduleBarrierRelease(cl.Now() + 1)
				}
				if wake, ok := cl.NextWake(); ok {
					deadline := cl.nextScrubDeadline()
					if e, pending := cl.events.peek(); pending && e.cycle > deadline {
						checked++
						if wake > deadline {
							t.Fatalf("cycle %d: NextWake = %d past the scrub deadline %d (next event at %d)",
								cl.Now(), wake, deadline, e.cycle)
						}
					}
				}
				cl.Tick()
			}
			if checked == 0 {
				t.Fatal("no idle cycle had an event beyond a scrub deadline; the test checked nothing")
			}
			t.Logf("%d idle cycles checked", checked)
		})
	}
}
