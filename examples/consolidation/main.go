// Consolidation shows the dynamic core-management system at work on
// radix (the paper's Figure 12): the greedy EPI search tracks the
// workload's alternating histogram/permutation phases, consolidating
// threads onto fewer cores whenever the cluster is memory-bound, and the
// oracle shows how much headroom the greedy search leaves.
package main

import (
	"fmt"
	"log"

	"respin/internal/config"
	"respin/internal/report"
	"respin/internal/sim"
)

func main() {
	const bench = "radix"
	const quota = 200_000

	run := func(kind config.ArchKind) sim.Result {
		res, err := sim.Run(config.New(kind, config.Medium), bench,
			sim.Options{QuotaInstr: quota, EpochTrace: true})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Printf("running %s under greedy and oracle consolidation...\n\n", bench)
	plain := run(config.SHSTT)
	greedy := run(config.SHSTTCC)
	oracle := run(config.SHSTTCCOracle)

	fmt.Print(report.Trace("greedy (SH-STT-CC) active cores, cluster 0:", &greedy.Trace, 16, 24, 32))
	fmt.Println()
	fmt.Print(report.Trace("oracle active cores, cluster 0:", &oracle.Trace, 16, 24, 32))

	fmt.Printf("\nenergy vs SH-STT (no consolidation): greedy %s, oracle %s\n",
		report.Pct(greedy.EnergyPJ/plain.EnergyPJ-1),
		report.Pct(oracle.EnergyPJ/plain.EnergyPJ-1))
	fmt.Printf("migrations: greedy %d, oracle %d; mean active cores: greedy %.1f, oracle %.1f\n",
		greedy.Stats.Migrations, oracle.Stats.Migrations,
		greedy.ActiveCores.Mean(), oracle.ActiveCores.Mean())
}
