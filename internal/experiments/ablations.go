package experiments

import (
	"fmt"
	"math/rand"

	"respin/internal/config"
	"respin/internal/power"
	"respin/internal/sharedcache"
	"respin/internal/tech"
)

// ablationQuota is the per-thread budget of the consolidation
// ablations: one fixed radix point whatever the runner's quota, so the
// numbers stay comparable across runners.
const ablationQuota = 60_000

// ablationEpochs are the consolidation intervals swept around the
// paper's 160K-instruction choice.
var ablationEpochs = []uint64{40_000, 160_000, 640_000}

// Ablations measures the design choices DESIGN.md calls out, each
// against its alternative, as claims: priority arbitration vs FIFO,
// the consolidation epoch length, the greedy search's back-off, the
// remapper's efficiency order, the L2/L3 leakage derates, and the
// Table III leakage ratio the technology model is anchored to. The
// simulated ones run on the runner's pool and cache.
func (r *Runner) Ablations() []Claim {
	point := func(kind config.ArchKind) Run {
		return r.point(kind, config.Medium, 16, "radix", ablationQuota, false)
	}
	variant := func(suffix string, tune func(*config.ConsolidationParams)) Run {
		run := point(config.SHSTTCC)
		run.Label += "." + suffix
		tune(&run.Config.ConsolidationParams)
		return run
	}
	runs := []Run{point(config.SHSTT), point(config.SHSTTCC),
		variant("nobackoff", func(p *config.ConsolidationParams) { p.BackoffEpochs = nil }),
		variant("slowfirst", func(p *config.ConsolidationParams) { p.PreferSlowCores = true }),
	}
	for _, epoch := range ablationEpochs {
		runs = append(runs, variant(fmt.Sprintf("epoch%d", epoch),
			func(p *config.ConsolidationParams) { p.EpochInstructions = epoch }))
	}
	res := r.must(runs...)
	cc, noBackoff, slowFirst := res[1], res[2], res[3]
	epochE := make([]float64, len(ablationEpochs))
	for i := range epochE {
		epochE[i] = res[4+i].EnergyPJ / res[0].EnergyPJ
	}

	rows := tech.TableIII()
	chip := power.NewChip(config.New(config.PRSRAMNT, config.Medium))
	bd := power.EstimateBreakdown(config.New(config.PRSRAMNT, config.Medium), 0.5)
	return []Claim{
		claim("SRAM/STT leakage ratio, 256KB @1.0V", rows[2].LeakageMW/rows[3].LeakageMW),
		claim("half-miss rate, priority arbitration", 100*arbitrationHalfMiss(sharedcache.SoonestDeadline)),
		claim("half-miss rate, FIFO arbitration", 100*arbitrationHalfMiss(sharedcache.FIFO)),
		claim("SH-STT-CC energy vs SH-STT, epoch 40K/160K/640K", epochE...),
		claim("energy without/with back-off", noBackoff.EnergyPJ/cc.EnergyPJ),
		claim("migrations without/with back-off", float64(noBackoff.Stats.Migrations)/float64(cc.Stats.Migrations+1)),
		claim("energy gating fastest/slowest cores first", slowFirst.EnergyPJ/cc.EnergyPJ),
		claim("NT cache share of cache+core leakage", bd.CacheLeakW/(bd.CacheLeakW+float64(chip.CoreLeakW))),
	}
}

// arbitrationHalfMiss drives one 16-core shared-L1 controller under
// moderate mixed-speed contention — every idle core re-requests with 4%
// probability each cycle — for 100 000 cycles and returns its half-miss
// rate under policy.
func arbitrationHalfMiss(policy sharedcache.SelectPolicy) float64 {
	c := sharedcache.New(16, sharedcache.WithPolicy(policy), sharedcache.WithSeed(11))
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 100_000; i++ {
		for core := 0; core < 16; core++ {
			if rng.Float64() < 0.04 && c.CanSubmitRead(core) {
				c.Submit(sharedcache.Request{Core: core, Multiple: 4 + core%3})
			}
		}
		c.Tick()
	}
	return c.HalfMissRate()
}
