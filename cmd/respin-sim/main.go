// Command respin-sim runs a single simulation: one Table IV
// configuration on one benchmark, and prints timing, power, energy and
// shared-cache statistics.
//
// Usage:
//
//	respin-sim [-config SH-STT] [-bench fft] [-scale medium]
//	           [-cluster 16] [-quota 150000] [-seed 1] [-trace]
//	           [-cpuprofile f] [-memprofile f] [-metrics f] [-events f]
//	           [-fault-seed 1] [-stt-write-fail P] [-sram-bitflip P]
//	           [-ecc SECDED] [-halt-uncorrectable] [-kill-cores N]
//	           [-kill-cycle C] [-endurance-budget B] [-endurance-sigma S]
//	           [-retention-cycles R] [-scrub-period P] [-wear-level]
//	           [-wear-period W] [-checkpoint f] [-checkpoint-every N]
//
// The flags write a v1.RunRequest — the same document a client would
// POST to respin-serve's /v1/run — and -metrics writes the full
// v1.RunResult envelope, byte-identical to the served response for the
// same request.
//
// -checkpoint writes a crash-recovery checkpoint to f at every epoch
// boundary that is -checkpoint-every cycles past the previous one.
// When f already holds a checkpoint of the run the flags define — the
// same configuration, benchmark and every run option — the run resumes
// from it instead of starting at cycle 0, to a result bit-identical to
// the uninterrupted run; any other file is overwritten by a fresh run.
// An interrupted run is therefore continued by repeating its flags.
//
// SIGINT cancels the run; the statistics measured up to the
// interruption are still reported (marked partial).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	v1 "respin/internal/api/v1"
	"respin/internal/cli"
	"respin/internal/config"
	"respin/internal/power"
	"respin/internal/report"
	"respin/internal/sim"
	"respin/internal/trace"
	"respin/internal/variation"
)

// main delegates to run so deferred cleanup (profile flushing, telemetry
// outputs) survives the explicit exit code.
func main() { os.Exit(run()) }

func run() int {
	app := cli.New("respin-sim",
		v1.RunRequest{Config: "SH-STT", Bench: "fft", Scale: "medium", Cluster: 16, Quota: sim.DefaultQuota, Seed: 1},
		cli.WithTarget(cli.TAll),
		cli.WithRunFlags(),
		cli.WithProfileFlags(),
		cli.WithTelemetryFlags(),
		cli.WithFaultFlags(),
		cli.WithEnduranceFlags(),
		cli.WithCheckpointFlags(),
	)
	epochTrace := flag.Bool("trace", false, "print the consolidation trace")
	dieMap := flag.Bool("diemap", false, "print the variation die map before running")
	list := flag.Bool("list", false, "list configurations and benchmarks")
	flag.Parse()

	if *list {
		fmt.Println("configurations:")
		for _, k := range config.AllArchKinds {
			fmt.Printf("  %-18s %s\n", k, k.Description())
		}
		fmt.Println("benchmarks:")
		for _, n := range trace.Names() {
			fmt.Printf("  %s\n", n)
		}
		return 0
	}

	req, err := app.Request()
	if err != nil {
		return app.Fail(err)
	}
	req.EpochTrace = *epochTrace
	cfg, opts, err := req.Resolve()
	if err != nil {
		return app.Fail(err)
	}
	spec := app.CheckpointSpec()
	if *dieMap {
		vm := variation.Generate(cfg.VariationSeed, 8, 8, cfg.CoreVdd, variation.DefaultParams())
		fmt.Println("variation die map (core clock multiples; ---- = cluster boundary):")
		fmt.Print(vm.DieMap(cfg.ClusterSize))
		fmt.Println()
	}

	cleanup, err := app.Start()
	if err != nil {
		return app.Fail(err)
	}
	defer func() {
		if err := cleanup(); err != nil {
			fmt.Fprintf(os.Stderr, "respin-sim: %v\n", err)
		}
	}()

	opts.Telemetry = app.Collector()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, from, runErr := sim.RunOrResume(ctx, cfg, req.Bench, opts, spec)
	if from > 0 {
		fmt.Fprintf(os.Stderr, "respin-sim: resumed %v/%s from cycle %d\n", cfg.Kind, req.Bench, from)
	}
	doc, err := v1.NewResult(req, res, runErr)
	if err != nil {
		return app.Fail(err)
	}
	app.SetMetricsDoc(func() (any, error) { return doc, nil })

	fmt.Printf("%v on %s (%v cache, %d-core clusters, %d instr/thread)\n\n",
		cfg.Kind, req.Bench, cfg.Scale, cfg.ClusterSize, opts.QuotaInstr)
	switch doc.Status {
	case v1.StatusPartial:
		fmt.Printf("INTERRUPTED at cycle %d — statistics below are partial\n\n", res.Cycles)
	case v1.StatusWearOut:
		fmt.Printf("WORE OUT: %s — statistics below cover the array's lifetime\n\n", doc.Detail)
	}
	tbl := report.NewTable("", "metric", "value")
	tbl.AddRow("execution time", report.Millis(res.TimePS))
	tbl.AddRow("cache cycles", fmt.Sprintf("%d", res.Cycles))
	tbl.AddRow("instructions", fmt.Sprintf("%d", res.Instructions))
	tbl.AddRow("chip IPC (per cache cycle)", fmt.Sprintf("%.2f", res.IPC()))
	tbl.AddRow("energy", report.Joules(res.EnergyPJ))
	tbl.AddRow("average power", report.Watts(res.AvgPowerW))
	tbl.AddRow("  core dynamic", report.Joules(res.Energy.PJ(power.CoreDynamic)))
	tbl.AddRow("  core leakage", report.Joules(res.Energy.PJ(power.CoreLeakage)))
	tbl.AddRow("  cache dynamic", report.Joules(res.Energy.PJ(power.CacheDynamic)))
	tbl.AddRow("  cache leakage", report.Joules(res.Energy.PJ(power.CacheLeakage)))
	tbl.AddRow("  level shifters", report.Joules(res.Energy.PJ(power.Shifter)))
	tbl.AddRow("L1D miss rate", report.PctU(res.L1DMissRate))
	if res.ArrivalsPerCycle.Total() > 0 {
		tbl.AddRow("half-miss rate", report.PctU(res.HalfMissRate))
		tbl.AddRow("1-core-cycle reads", report.PctU(res.ReadCoreCycles.Fraction(1)))
	}
	if res.ActiveCores.N() > 0 {
		tbl.AddRow("active cores (mean/min/max)", fmt.Sprintf("%.1f / %.0f / %.0f",
			res.ActiveCores.Mean(), res.ActiveCores.Min(), res.ActiveCores.Max()))
		tbl.AddRow("migrations", fmt.Sprintf("%d", res.Stats.Migrations))
	}
	if res.Faults.Any() || res.DeadCores > 0 {
		tbl.AddRow("STT write retries / aborts", fmt.Sprintf("%d / %d",
			res.Faults.STTWriteRetries, res.Faults.STTWriteAborts))
		tbl.AddRow("SRAM flips corrected / uncorrectable", fmt.Sprintf("%d / %d",
			res.Faults.SRAMCorrected, res.Faults.SRAMUncorrectable))
		tbl.AddRow("cores killed", fmt.Sprintf("%d", res.DeadCores))
	}
	if e := res.Endurance; e != nil {
		tbl.AddRow("STT array writes", fmt.Sprintf("%d", e.Writes))
		tbl.AddRow("retired ways", fmt.Sprintf("%d / %d", e.RetiredWays, e.TotalWays))
		if e.MaxWearFracPct > 0 {
			tbl.AddRow("max wear (worst way)", fmt.Sprintf("%.2f%%", e.MaxWearFracPct))
		}
		if e.ProjectedTTF > 0 {
			tbl.AddRow("projected lifetime", fmt.Sprintf("%.2f Mcycles", e.ProjectedTTF/1e6))
		}
		if e.RetentionCycles > 0 {
			tbl.AddRow("scrubs / lines refreshed", fmt.Sprintf("%d / %d", e.Scrubs, e.ScrubRefreshes))
			tbl.AddRow("retention losses (dirty)", fmt.Sprintf("%d (%d)", e.RetentionLosses, e.RetentionDirty))
		}
		if e.WearLevel {
			tbl.AddRow("wear-level rotations", fmt.Sprintf("%d", e.Rotations))
		}
	}
	fmt.Print(tbl.String())

	if *epochTrace && res.Trace.Len() > 0 {
		fmt.Println()
		fmt.Print(report.Trace("consolidation trace (active cores, cluster 0):", &res.Trace, 16, 32, 32))
	}
	return 0
}
