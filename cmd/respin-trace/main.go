// Command respin-trace runs one simulation and dumps its time-resolved
// data as CSV for external plotting: the consolidation trace (Figures
// 12/13), the shared-cache arrival and service-latency histograms
// (Figures 10/11), and the load-latency distribution.
//
// Usage:
//
//	respin-trace -config SH-STT-CC -bench radix -quota 400000 > radix.csv
//	respin-trace -what histograms -config SH-STT -bench ocean
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"

	"respin/internal/cli"
	"respin/internal/sim"
)

// main delegates to run so deferred cleanup (profile flushing, telemetry
// outputs) survives the explicit exit code.
func main() { os.Exit(run()) }

func run() int {
	c := cli.New("respin-trace",
		cli.WithTarget(cli.Target{ConfigName: "SH-STT-CC", BenchName: "radix"}, cli.TConfig|cli.TBench),
		cli.WithRunFlags(cli.Defaults{Quota: 400_000, Seed: 1}),
		cli.WithParallelFlags(),
		cli.WithProfileFlags(),
		cli.WithTelemetryFlags(),
		cli.WithFaultFlags(),
		cli.WithEnduranceFlags(),
		cli.WithCheckpointFlags(),
	)
	what := flag.String("what", "trace", "output: trace, histograms")
	flag.Parse()
	t := c.Target

	cfg, err := t.Config()
	if err != nil {
		return fail(err)
	}
	fp, err := c.FaultParams(cfg.NumClusters())
	if err != nil {
		return fail(err)
	}

	cleanup, err := c.Start()
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := cleanup(); err != nil {
			fmt.Fprintf(os.Stderr, "respin-trace: %v\n", err)
		}
	}()

	var opts sim.Options
	if err := c.Apply(&opts, nil); err != nil {
		return fail(err)
	}
	opts.EpochTrace = true
	opts.Faults = fp

	var res sim.Result
	if c.Resume != "" {
		// Continue an interrupted trace run from its checkpoint; the CSV
		// below comes out identical to an uninterrupted run's.
		s, err := sim.Resume(c.Resume,
			sim.WithTelemetry(c.Collector()),
			sim.WithCheckpoint(c.CheckpointSpec()))
		if err != nil {
			return fail(err)
		}
		res, err = s.Run()
		if err != nil {
			return fail(err)
		}
	} else {
		opts.Checkpoint = c.CheckpointSpec()
		res, err = sim.Run(cfg, t.BenchName, opts)
		if err != nil {
			return fail(err)
		}
	}

	w := csv.NewWriter(os.Stdout)
	defer w.Flush()
	write := func(record []string) {
		if err := w.Write(record); err != nil {
			fmt.Fprintf(os.Stderr, "respin-trace: %v\n", err)
			os.Exit(1)
		}
	}
	switch *what {
	case "trace":
		write([]string{"time_us", "active_cores"})
		for i := range res.Trace.Values {
			write([]string{
				strconv.FormatFloat(res.Trace.Times[i], 'f', 3, 64),
				strconv.FormatFloat(res.Trace.Values[i], 'f', 0, 64),
			})
		}
	case "histograms":
		write([]string{"histogram", "bucket", "fraction"})
		for i := 0; i <= 4; i++ {
			label := strconv.Itoa(i)
			if i == 4 {
				label = "4+"
			}
			write([]string{"arrivals_per_cycle", label,
				strconv.FormatFloat(res.ArrivalsPerCycle.Fraction(i), 'f', 6, 64)})
		}
		for i := 1; i <= 3; i++ {
			label := strconv.Itoa(i)
			if i == 3 {
				label = "3+"
			}
			write([]string{"read_core_cycles", label,
				strconv.FormatFloat(res.ReadCoreCycles.Fraction(i), 'f', 6, 64)})
		}
	default:
		return fail(fmt.Errorf("unknown -what %q (valid: trace, histograms)", *what))
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "respin-trace: %v\n", err)
	return 1
}
