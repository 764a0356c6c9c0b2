// Command respin-trace runs one simulation and dumps its time-resolved
// data as CSV for external plotting: the consolidation trace (Figures
// 12/13), the shared-cache arrival and service-latency histograms
// (Figures 10/11), and the load-latency distribution.
//
// Usage:
//
//	respin-trace -config SH-STT-CC -bench radix -quota 400000 > radix.csv
//	respin-trace -what histograms -config SH-STT -bench ocean
//
// The run, fault and endurance flags write a v1.RunRequest, as
// respin-sim's do, and -checkpoint f resumes the run when f holds a
// checkpoint of it.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"

	v1 "respin/internal/api/v1"
	"respin/internal/cli"
	"respin/internal/sim"
)

// main delegates to run so deferred cleanup (profile flushing, telemetry
// outputs) survives the explicit exit code.
func main() { os.Exit(run()) }

func run() int {
	c := cli.New("respin-trace",
		v1.RunRequest{Config: "SH-STT-CC", Bench: "radix", Quota: 400_000, Seed: 1},
		cli.WithTarget(cli.TConfig|cli.TBench),
		cli.WithRunFlags(),
		cli.WithProfileFlags(),
		cli.WithTelemetryFlags(),
		cli.WithFaultFlags(),
		cli.WithEnduranceFlags(),
		cli.WithCheckpointFlags(),
	)
	what := flag.String("what", "trace", "output: trace, histograms")
	flag.Parse()
	render, ok := renderers[*what]
	if !ok {
		return fail(fmt.Errorf("unknown -what %q (valid: trace, histograms)", *what))
	}
	req, err := c.Request()
	if err != nil {
		return fail(err)
	}
	req.EpochTrace = true
	cfg, opts, err := req.Resolve()
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

	opts.Telemetry = c.Collector()

	res, _, err := sim.RunOrResume(context.Background(), cfg, req.Bench, opts, c.CheckpointSpec())
	if err != nil {
		return fail(err)
	}

	if err := csv.NewWriter(os.Stdout).WriteAll(render(res)); err != nil {
		return fail(err)
	}
	return 0
}

// renderers maps each -what value to the CSV records it prints.
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

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "respin-trace: %v\n", err)
	return 1
}
