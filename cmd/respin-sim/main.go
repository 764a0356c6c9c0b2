// Command respin-sim runs a single simulation: one Table IV
// configuration on one benchmark, and prints timing, power, energy and
// shared-cache statistics, or one CSV view of the run for external
// plotting.
//
// Usage:
//
//	respin-sim [-config SH-STT] [-bench fft] [-scale medium]
//	           [-cluster 16] [-quota 150000] [-seed 1] [-trace]
//	           [-csv trace|histograms]
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
// -csv replaces the table with CSV records on stdout: trace is the
// consolidation trace, the active cores of cluster 0 per epoch
// (Figures 12/13), and histograms the shared-cache arrival and
// read-service histograms (Figures 10/11). For example
//
//	respin-sim -config SH-STT-CC -bench radix -quota 400000 -csv trace > radix.csv
//
// A partial or wear-out status then goes to stderr, and -trace and
// -diemap, which print to stdout, are refused.
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
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"

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
func main() { os.Exit(run(flag.CommandLine, os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args into fs, runs the simulation, writes its table or CSV
// view to stdout and returns the exit status.
func run(fs *flag.FlagSet, args []string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "respin-sim: %v\n", err)
		return 1
	}
	app := cli.New("respin-sim",
		v1.RunRequest{Config: "SH-STT", Bench: "fft", Scale: "medium", Cluster: 16, Quota: sim.DefaultQuota, Seed: 1},
		cli.WithFlagSet(fs),
		cli.WithTarget(cli.TAll),
		cli.WithRunFlags(),
		cli.WithProfileFlags(),
		cli.WithTelemetryFlags(),
		cli.WithFaultFlags(),
		cli.WithEnduranceFlags(),
		cli.WithCheckpointFlags(),
	)
	epochTrace := fs.Bool("trace", false, "print the consolidation trace")
	dieMap := fs.Bool("diemap", false, "print the variation die map before running")
	list := fs.Bool("list", false, "list configurations and benchmarks")
	view := fs.String("csv", "", "print CSV records instead of the table: trace, histograms")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	render, ok := renderers[*view]
	switch {
	case *view != "" && !ok:
		fmt.Fprintf(stderr, "respin-sim: unknown -csv %q (valid: trace, histograms)\n", *view)
		return 2
	case *view != "" && (*epochTrace || *dieMap):
		fmt.Fprintln(stderr, "respin-sim: -csv cannot be combined with -trace or -diemap")
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "configurations:")
		for _, k := range config.AllArchKinds {
			fmt.Fprintf(stdout, "  %-18s %s\n", k, k.Description())
		}
		fmt.Fprintln(stdout, "benchmarks:")
		for _, n := range trace.Names() {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
		return 0
	}

	req, err := app.Request()
	if err != nil {
		return fail(err)
	}
	req.EpochTrace = *epochTrace || *view == "trace"
	cfg, opts, err := req.Resolve()
	if err != nil {
		return fail(err)
	}
	spec := app.CheckpointSpec()
	if *dieMap {
		vm := variation.Generate(cfg.VariationSeed, 8, 8, cfg.CoreVdd, variation.DefaultParams())
		fmt.Fprintln(stdout, "variation die map (core clock multiples; ---- = cluster boundary):")
		fmt.Fprint(stdout, vm.DieMap(cfg.ClusterSize))
		fmt.Fprintln(stdout)
	}

	cleanup, err := app.Start()
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := cleanup(); err != nil {
			fail(err)
		}
	}()

	opts.Telemetry = app.Collector()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, from, runErr := sim.RunOrResume(ctx, cfg, req.Bench, opts, spec)
	if from > 0 {
		fmt.Fprintf(stderr, "respin-sim: resumed %v/%s from cycle %d\n", cfg.Kind, req.Bench, from)
	}
	doc, err := v1.NewResult(req, res, runErr)
	if err != nil {
		return fail(err)
	}
	app.SetMetricsDoc(func() (any, error) { return doc, nil })

	if render != nil {
		switch doc.Status {
		case v1.StatusPartial:
			fmt.Fprintf(stderr, "respin-sim: interrupted at cycle %d — the CSV records are partial\n", res.Cycles)
		case v1.StatusWearOut:
			fmt.Fprintf(stderr, "respin-sim: wore out: %s — the CSV records cover the array's lifetime\n", doc.Detail)
		}
		if err := csv.NewWriter(stdout).WriteAll(render(res)); err != nil {
			return fail(err)
		}
		return 0
	}

	fmt.Fprintf(stdout, "%v on %s (%v cache, %d-core clusters, %d instr/thread)\n\n",
		cfg.Kind, req.Bench, cfg.Scale, cfg.ClusterSize, opts.QuotaInstr)
	switch doc.Status {
	case v1.StatusPartial:
		fmt.Fprintf(stdout, "INTERRUPTED at cycle %d — statistics below are partial\n\n", res.Cycles)
	case v1.StatusWearOut:
		fmt.Fprintf(stdout, "WORE OUT: %s — statistics below cover the array's lifetime\n\n", doc.Detail)
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
	fmt.Fprint(stdout, tbl.String())

	if *epochTrace && res.Trace.Len() > 0 {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.Trace("consolidation trace (active cores, cluster 0):", &res.Trace, 16, 32, 32))
	}
	return 0
}

// renderers maps each -csv value to the CSV records it prints.
var renderers = map[string]func(sim.Result) [][]string{
	"trace":      traceCSV,
	"histograms": histogramsCSV,
}

// traceCSV is the consolidation trace: active cores of cluster 0 per
// epoch.
func traceCSV(res sim.Result) [][]string {
	records := [][]string{{"time_us", "active_cores"}}
	for i := range res.Trace.Values {
		records = append(records, []string{
			strconv.FormatFloat(res.Trace.Times[i], 'f', 3, 64),
			strconv.FormatFloat(res.Trace.Values[i], 'f', 0, 64),
		})
	}
	return records
}

// histogramsCSV is the shared-cache arrival and read-service histograms.
func histogramsCSV(res sim.Result) [][]string {
	records := [][]string{{"histogram", "bucket", "fraction"}}
	for i := 0; i <= 4; i++ {
		label := strconv.Itoa(i)
		if i == 4 {
			label = "4+"
		}
		records = append(records, []string{"arrivals_per_cycle", label,
			strconv.FormatFloat(res.ArrivalsPerCycle.Fraction(i), 'f', 6, 64)})
	}
	for i := 1; i <= 3; i++ {
		label := strconv.Itoa(i)
		if i == 3 {
			label = "3+"
		}
		records = append(records, []string{"read_core_cycles", label,
			strconv.FormatFloat(res.ReadCoreCycles.Fraction(i), 'f', 6, 64)})
	}
	return records
}
