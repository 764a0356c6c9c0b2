// Command respin-sweep runs parameter sweeps around the paper's design
// points: cluster size (Section V.D), consolidation epoch length, and
// the three Table I cache scales.
//
// Usage:
//
//	respin-sweep -sweep cluster|epoch|scale [-bench fft] [-jobs N] [-q]
//	             [-quota N] [-seed N] [-fault-seed N] [-stt-write-fail P]
//	             [-checkpoint dir] [-cpuprofile f] [-memprofile f]
//	             [-metrics f] [-events f]
//
// Sweep points are independent simulations, so they run on the
// experiments.Runner worker pool (-jobs wide, default all cores) and
// are rendered in sweep order. With -metrics/-events each point's
// telemetry lands under the Runner's "run.<label>." prefix. A failed
// point does not stop the others: every point runs, the failures are
// reported in sweep order, no table is printed and the exit status is 1.
// With -checkpoint DIR the points live in a run store there
// (internal/runstore), keyed by the simulation model version and each
// point's whole run definition: a point with a recorded outcome
// commits it and drops its checkpoint, a failed or interrupted point
// keeps its checkpoint, and a re-invoked sweep recalls committed
// points without simulating them and resumes the rest. A second
// invocation over a finished directory prints the same table at once.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"respin/internal/cli"
	"respin/internal/config"
	"respin/internal/experiments"
	"respin/internal/report"
	"respin/internal/sim"
)

// main delegates to run so deferred cleanup (profile flushing, telemetry
// outputs) survives the explicit exit code.
func main() { os.Exit(run(flag.CommandLine, os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args into fs, runs the selected sweep, writes its table to
// stdout and returns the exit status.
func run(fs *flag.FlagSet, args []string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "respin-sweep: %v\n", err)
		return 1
	}
	c := cli.New("respin-sweep",
		cli.WithFlagSet(fs),
		cli.WithTarget(cli.Target{BenchName: "fft"}, cli.TBench),
		cli.WithRunFlags(cli.Defaults{Quota: 100_000, Seed: 1}),
		cli.WithParallelFlags(),
		cli.WithProfileFlags(),
		cli.WithTelemetryFlags(),
		cli.WithFaultFlags(),
		cli.WithEnduranceFlags(),
		cli.WithCheckpointFlags(),
	)
	sweep := fs.String("sweep", "cluster", "sweep to run: cluster, epoch, scale")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	t := c.Target

	// Sweeps span cluster sizes, so resolve kills against the smallest
	// cluster count any sweep point uses (medium scale, 64 cores).
	fp, err := c.FaultParams(config.New(config.SHSTT, config.Medium).NumClusters())
	if err != nil {
		return fail(err)
	}

	cleanup, err := c.Start()
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := cleanup(); err != nil {
			fail(err)
		}
	}()

	r := &experiments.Runner{}
	if err := c.Apply(nil, r); err != nil {
		return fail(err)
	}
	if r.Progress != nil { // progress lines, unless -q, go to run's stderr
		r.Progress = stderr
	}
	opts := sim.Options{QuotaInstr: r.Quota, Seed: r.Seed, Faults: fp}

	var runs []experiments.Run
	var table func([]sim.Result) *report.Table
	switch *sweep {
	case "cluster":
		runs, table = clusterSweep(t.BenchName, opts)
	case "epoch":
		runs, table = epochSweep(t.BenchName, opts)
	case "scale":
		runs, table = scaleSweep(t.BenchName, opts)
	default:
		fmt.Fprintf(stderr, "respin-sweep: unknown sweep %q (valid: cluster, epoch, scale)\n", *sweep)
		return 2
	}
	results, errs := r.Do(runs...)
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("point %d (%s): %w", i, runs[i].Label, err))
		}
	}
	if len(failed) > 0 {
		return fail(fmt.Errorf("%d of %d sweep points failed:\n%w", len(failed), len(runs), errors.Join(failed...)))
	}
	fmt.Fprint(stdout, table(results).String())
	return 0
}

// clusterSweep reproduces the Section V.D cluster-size study for one
// benchmark.
func clusterSweep(bench string, opts sim.Options) ([]experiments.Run, func([]sim.Result) *report.Table) {
	sizes := []int{4, 8, 16, 32}
	runs := []experiments.Run{{Label: "PR-SRAM-NT", Config: config.New(config.PRSRAMNT, config.Medium), Bench: bench, Opts: opts}}
	for _, cs := range sizes {
		runs = append(runs, experiments.Run{Label: fmt.Sprintf("SH-STT.cl%d", cs),
			Config: config.NewWithCluster(config.SHSTT, config.Medium, cs), Bench: bench, Opts: opts})
	}
	return runs, func(results []sim.Result) *report.Table {
		base := results[0]
		t := report.NewTable(fmt.Sprintf("cluster-size sweep, %s", bench),
			"cores/cluster", "shared L1", "time vs baseline", "half-miss", "1-cycle reads")
		for i, cs := range sizes {
			res := results[i+1]
			t.AddRow(fmt.Sprintf("%d", cs), fmt.Sprintf("%dKB", 16*cs),
				report.Norm(float64(res.Cycles)/float64(base.Cycles)),
				report.PctU(res.HalfMissRate),
				report.PctU(res.ReadCoreCycles.Fraction(1)))
		}
		return t
	}
}

// epochSweep varies the consolidation epoch around the paper's 160K
// instructions.
func epochSweep(bench string, opts sim.Options) ([]experiments.Run, func([]sim.Result) *report.Table) {
	epochs := []uint64{40_000, 80_000, 160_000, 320_000, 640_000}
	runs := []experiments.Run{{Label: "SH-STT", Config: config.New(config.SHSTT, config.Medium), Bench: bench, Opts: opts}}
	for _, epoch := range epochs {
		cfg := config.New(config.SHSTTCC, config.Medium)
		cfg.ConsolidationParams.EpochInstructions = epoch
		runs = append(runs, experiments.Run{Label: fmt.Sprintf("SH-STT-CC.ep%d", epoch), Config: cfg, Bench: bench, Opts: opts})
	}
	return runs, func(results []sim.Result) *report.Table {
		base := results[0]
		t := report.NewTable(fmt.Sprintf("consolidation epoch sweep, %s (energy vs SH-STT)", bench),
			"epoch instr", "energy", "time", "mean active", "migrations")
		for i, epoch := range epochs {
			res := results[i+1]
			t.AddRow(fmt.Sprintf("%d", epoch),
				report.Norm(res.EnergyPJ/base.EnergyPJ),
				report.Norm(float64(res.Cycles)/float64(base.Cycles)),
				fmt.Sprintf("%.1f", res.ActiveCores.Mean()),
				fmt.Sprintf("%d", res.Stats.Migrations))
		}
		return t
	}
}

// scaleSweep compares the three Table I cache scales for one benchmark.
func scaleSweep(bench string, opts sim.Options) ([]experiments.Run, func([]sim.Result) *report.Table) {
	var runs []experiments.Run
	for _, scale := range []config.CacheScale{config.Small, config.Medium, config.Large} {
		for _, kind := range []config.ArchKind{config.PRSRAMNT, config.SHSTT} {
			runs = append(runs, experiments.Run{Label: fmt.Sprintf("%v.%v", kind, scale),
				Config: config.New(kind, scale), Bench: bench, Opts: opts})
		}
	}
	return runs, func(results []sim.Result) *report.Table {
		t := report.NewTable(fmt.Sprintf("cache-scale sweep, %s", bench),
			"scale", "config", "time", "power", "energy")
		for i, run := range runs {
			res := results[i]
			t.AddRow(run.Config.Scale.String(), run.Config.Kind.String(),
				report.Millis(res.TimePS), report.Watts(res.AvgPowerW),
				report.Joules(res.EnergyPJ))
		}
		return t
	}
}
