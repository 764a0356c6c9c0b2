// Command respin-sweep runs parameter sweeps around the paper's design
// points: cluster size (Section V.D), consolidation epoch length,
// store-buffer depth tolerance of the slow STT-RAM writes, and the
// arbitration-policy ablation (priority registers vs FIFO).
//
// Usage:
//
//	respin-sweep -sweep cluster|epoch|scale [-bench fft] [-jobs N]
//	             [-quota N] [-seed N] [-fault-seed N] [-stt-write-fail P]
//	             [-cpuprofile f] [-memprofile f] [-metrics f] [-events f]
//
// Sweep points are independent simulations, so they run on a worker
// pool (-jobs wide, default all cores) and are rendered in sweep order.
// With -metrics/-events each point's telemetry lands under a distinct
// "point.<index>.<description>" prefix. A failed point does not stop
// the others: every point runs, the failures are reported in sweep
// order, no table is printed and the exit status is 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"respin/internal/cli"
	"respin/internal/config"
	"respin/internal/report"
	"respin/internal/sim"
	"respin/internal/telemetry"
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

	var opts sim.Options
	if err := c.Apply(&opts, nil); err != nil {
		return fail(err)
	}
	opts.Faults = fp

	s := &sweeper{opts: opts, jobs: c.Jobs, tele: c.Collector(),
		ckptDir: c.CheckpointDir(), every: c.CheckpointEvery}
	if s.ckptDir != "" {
		if err := os.MkdirAll(s.ckptDir, 0o755); err != nil {
			return fail(err)
		}
	}
	var tab *report.Table
	switch *sweep {
	case "cluster":
		tab, err = s.cluster(t.BenchName)
	case "epoch":
		tab, err = s.epoch(t.BenchName)
	case "scale":
		tab, err = s.scale(t.BenchName)
	default:
		fmt.Fprintf(stderr, "respin-sweep: unknown sweep %q (valid: cluster, epoch, scale)\n", *sweep)
		return 2
	}
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, tab.String())
	return 0
}

// sweeper carries the per-invocation state shared by all sweep points.
type sweeper struct {
	opts sim.Options
	jobs int
	tele *telemetry.Collector
	// ckptDir, when non-empty, holds one crash-recovery checkpoint per
	// sweep point (keyed by label); a re-invoked sweep resumes
	// interrupted points from it, bit-identically.
	ckptDir string
	every   uint64
}

// runAll runs one simulation per sweep point, at most jobs at a time,
// and returns the results in sweep order regardless of completion
// order. A failed point does not stop the others; the error names every
// failed point, in sweep order.
func (s *sweeper) runAll(labels []string, cfgs []config.Config, bench string) ([]sim.Result, error) {
	jobs := s.jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	results := make([]sim.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = s.runPoint(i, labels[i], cfgs[i], bench)
		}(i)
	}
	wg.Wait()
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("point %d (%s): %w", i, labels[i], err))
		}
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("%d of %d sweep points failed:\n%w", len(failed), len(cfgs), errors.Join(failed...))
	}
	return results, nil
}

// runPoint executes one sweep point. Each point registers into a
// collector of its own (prefix "point.<i>.<label>", sharing the sweep's
// event stream), and its final snapshot is absorbed into the sweep's
// collector: a snapshot of a shared registry would read the metrics of
// points still running on other goroutines. A point that fails keeps
// its checkpoint file, so a re-invoked sweep resumes it.
func (s *sweeper) runPoint(i int, label string, cfg config.Config, bench string) (sim.Result, error) {
	opts := s.opts
	if s.tele.Enabled() {
		opts.Telemetry = telemetry.New(telemetry.WithEmitter(s.tele.Emitter())).
			Child(fmt.Sprintf("point.%d.%s", i, label))
	}
	var res sim.Result
	var err error
	if s.ckptDir == "" {
		res, err = sim.Run(cfg, bench, opts)
	} else {
		spec := sim.CheckpointSpec{
			Path:        filepath.Join(s.ckptDir, label+".ckpt"),
			EveryCycles: s.every,
		}
		res, err = sim.RunOrResume(context.Background(), cfg, bench, opts, spec)
		if err == nil {
			os.Remove(spec.Path) // point complete; nothing left to resume
		}
	}
	s.tele.Absorb("", res.Metrics)
	return res, err
}

// cluster reproduces the Section V.D cluster-size study for one
// benchmark.
func (s *sweeper) cluster(bench string) (*report.Table, error) {
	sizes := []int{4, 8, 16, 32}
	cfgs := []config.Config{config.New(config.PRSRAMNT, config.Medium)}
	labels := []string{"PR-SRAM-NT"}
	for _, cs := range sizes {
		cfgs = append(cfgs, config.NewWithCluster(config.SHSTT, config.Medium, cs))
		labels = append(labels, fmt.Sprintf("SH-STT.cl%d", cs))
	}
	results, err := s.runAll(labels, cfgs, bench)
	if err != nil {
		return nil, err
	}

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
	return t, nil
}

// epoch varies the consolidation epoch around the paper's 160K
// instructions.
func (s *sweeper) epoch(bench string) (*report.Table, error) {
	epochs := []uint64{40_000, 80_000, 160_000, 320_000, 640_000}
	cfgs := []config.Config{config.New(config.SHSTT, config.Medium)}
	labels := []string{"SH-STT"}
	for _, epoch := range epochs {
		cfg := config.New(config.SHSTTCC, config.Medium)
		cfg.ConsolidationParams.EpochInstructions = epoch
		cfgs = append(cfgs, cfg)
		labels = append(labels, fmt.Sprintf("SH-STT-CC.ep%d", epoch))
	}
	results, err := s.runAll(labels, cfgs, bench)
	if err != nil {
		return nil, err
	}

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
	return t, nil
}

// scale compares the three Table I cache scales for one benchmark.
func (s *sweeper) scale(bench string) (*report.Table, error) {
	var cfgs []config.Config
	var labels []string
	for _, scale := range []config.CacheScale{config.Small, config.Medium, config.Large} {
		for _, kind := range []config.ArchKind{config.PRSRAMNT, config.SHSTT} {
			cfgs = append(cfgs, config.New(kind, scale))
			labels = append(labels, fmt.Sprintf("%v.%v", kind, scale))
		}
	}
	results, err := s.runAll(labels, cfgs, bench)
	if err != nil {
		return nil, err
	}

	t := report.NewTable(fmt.Sprintf("cache-scale sweep, %s", bench),
		"scale", "config", "time", "power", "energy")
	for i, cfg := range cfgs {
		res := results[i]
		t.AddRow(cfg.Scale.String(), cfg.Kind.String(),
			report.Millis(res.TimePS), report.Watts(res.AvgPowerW),
			report.Joules(res.EnergyPJ))
	}
	return t, nil
}
