// Quickstart: build the paper's proposed system (shared STT-RAM caches
// with dynamic core consolidation), run one benchmark, and compare it
// against the conventional near-threshold baseline.
package main

import (
	"fmt"
	"log"

	"respin/internal/config"
	"respin/internal/report"
	"respin/internal/sim"
	"respin/internal/trace"
)

func main() {
	const bench = "fft"
	const quota = 60_000

	opts := sim.Options{QuotaInstr: quota}

	fmt.Printf("running %s on the PR-SRAM-NT baseline and the proposed SH-STT-CC...\n\n", bench)
	b, err := sim.Run(config.New(config.PRSRAMNT, config.Medium), bench, opts)
	if err != nil {
		log.Fatal(err)
	}
	p, err := sim.Run(config.New(config.SHSTTCC, config.Medium), bench, opts)
	if err != nil {
		log.Fatal(err)
	}

	t := report.NewTable("", "metric", "PR-SRAM-NT", "SH-STT-CC", "change")
	t.AddRow("execution time", report.Millis(b.TimePS), report.Millis(p.TimePS),
		report.Pct(float64(p.TimePS)/float64(b.TimePS)-1))
	t.AddRow("energy", report.Joules(b.EnergyPJ), report.Joules(p.EnergyPJ),
		report.Pct(p.EnergyPJ/b.EnergyPJ-1))
	t.AddRow("average power", report.Watts(b.AvgPowerW), report.Watts(p.AvgPowerW),
		report.Pct(p.AvgPowerW/b.AvgPowerW-1))
	fmt.Print(t.String())

	fmt.Printf("\nmean active cores per cluster under consolidation: %.1f of 16\n", p.ActiveCores.Mean())
	fmt.Printf("available benchmarks: %v\n", trace.Names())
}
