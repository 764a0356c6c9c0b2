// Command respin-bench regenerates the paper's full evaluation: every
// table and figure of Section V plus the motivating Figure 1, printed as
// ASCII tables/charts with a paper-vs-measured summary.
//
// Usage:
//
//	respin-bench [-quick] [-quota N] [-trace-quota N] [-benches a,b,c]
//	             [-only fig9] [-seed N] [-fault-seed N] [-jobs N]
//	             [-endurance-budget B] [-retention-cycles R] [-wear-level] ...
//	             [-checkpoint dir] [-checkpoint-every N]
//	             [-cpuprofile f] [-memprofile f] [-metrics f] [-events f]
//	             [-o out.txt] [-json claims.json] [-chaos-seed N] [-q]
//
// -fault-seed seeds the fault and endurance sweeps (-only faults,
// -only endurance); the evaluation injects no other fault, so it takes
// no other fault flag. The endurance flags apply one wear model to
// every run, seeded as respin-sim seeds a run that injects no fault.
//
// The full run simulates hundreds of configurations (about 8 minutes on 2
// cores); -jobs spreads them over a worker pool (default: all cores),
// and -quick runs a four-benchmark subset. SIGINT cancels the
// evaluation; the sections completed so far are still printed as a
// partial report. -json writes the paper-vs-measured claims as typed
// rows (values, format, bands); `-only ablations` prints the design
// ablations. The bands are checked by the experiments package's
// TestClaims, not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	v1 "respin/internal/api/v1"
	"respin/internal/chaos"
	"respin/internal/cli"
	"respin/internal/experiments"
)

// main delegates to run so deferred cleanup (profile flushing, telemetry
// outputs) survives the explicit exit code.
func main() { os.Exit(run()) }

func run() int {
	// A zero quota keeps the runner's own (-quick selects a shorter one).
	c := cli.New("respin-bench", v1.RunRequest{Seed: 1},
		cli.WithRunFlags(),
		cli.WithParallelFlags(),
		cli.WithProfileFlags(),
		cli.WithTelemetryFlags(),
		cli.WithEnduranceFlags(),
		cli.WithCheckpointFlags(),
	)
	quick := flag.Bool("quick", false, "reduced benchmark set and quotas")
	faultSeed := flag.Int64("fault-seed", 1, "fault-injection randomness seed of the fault and endurance sweeps (distinct from -seed)")
	chaosSeed := flag.Int64("chaos-seed", 0, "kill-point seed for -only chaos (0 = from the clock)")
	traceQuota := flag.Uint64("trace-quota", 0, "override consolidation-trace budget")
	benches := flag.String("benches", "", "comma-separated benchmark subset")
	only := flag.String("only", "", "run a single experiment: "+onlyKeys)
	out := flag.String("o", "", "also write the report to this file")
	jsonOut := flag.String("json", "", "write the paper-vs-measured claims as JSON to this file")
	flag.Parse()

	if *only == "chaos" {
		// The kill-and-resume harness drives real respin-serve processes,
		// not the in-process runner, so it dispatches before the runner
		// is built.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		if err := chaos.Run(ctx, chaos.Options{Progress: os.Stderr, Seed: *chaosSeed}); err != nil {
			return fail(err)
		}
		fmt.Println("chaos: kill-and-resume convergence verified")
		return 0
	}

	cleanup, err := c.Start()
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := cleanup(); err != nil {
			fmt.Fprintf(os.Stderr, "respin-bench: %v\n", err)
		}
	}()

	r := experiments.NewRunner()
	if *quick {
		r = experiments.QuickRunner()
	}
	if *traceQuota != 0 {
		r.TraceQuota = *traceQuota
	}
	if *benches != "" {
		r.Benches = strings.Split(*benches, ",")
	}
	r.FaultSeed = *faultSeed
	if err := c.Apply(r); err != nil {
		return fail(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	r.Ctx = ctx

	var text string
	if *only != "" {
		var ok bool
		text, ok = runOne(r, *only)
		if !ok {
			fmt.Fprintf(os.Stderr, "respin-bench: unknown experiment %q (valid: %s)\n", *only, onlyKeys)
			return 2
		}
	} else {
		suite := r.All()
		text = suite.Report()
		if *jsonOut != "" {
			data, err := suite.JSON()
			if err == nil {
				err = os.WriteFile(*jsonOut, data, 0o644)
			}
			if err != nil {
				return fail(err)
			}
		}
	}

	fmt.Print(text)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			return fail(err)
		}
	}
	if r.Aborted() {
		fmt.Fprintln(os.Stderr, "respin-bench: interrupted — report is partial")
		return 130
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "respin-bench: %v\n", err)
	return 1
}

// onlyKeys lists every -only id runOne accepts (aliases after their
// canonical names); keep it in sync with the switch below.
const onlyKeys = "fig1,fig2,tab1,tab3,tab4,vmin,area,variation,workloads," +
	"fig6,fig7,fig8,fig9,sweep,fig10,fig11,fig12,fig13,fig14,faults,endurance,ablations,chaos"

// runOne dispatches a single experiment by id.
func runOne(r *experiments.Runner, id string) (string, bool) {
	switch id {
	case "fig1":
		return experiments.Figure1().Render(), true
	case "tab1":
		return experiments.TableI(), true
	case "tab3":
		return experiments.TableIII(), true
	case "tab4":
		return experiments.TableIV(), true
	case "fig6":
		return r.Figure6().Render(), true
	case "fig7":
		return r.Figure7().Render(), true
	case "fig8":
		return r.Figure8().Render(), true
	case "fig9":
		return r.Figure9().Render(), true
	case "sweep", "tabV-D":
		return r.ClusterSweep().Render(), true
	case "fig10":
		return r.Figure10().Render(), true
	case "fig11":
		return r.Figure11().Render(), true
	case "fig12":
		return r.ConsolidationTrace("radix").Render(), true
	case "fig13":
		return r.ConsolidationTrace("lu").Render(), true
	case "fig14":
		return r.Figure14().Render(), true
	case "faults":
		return r.FaultSweep().Render(), true
	case "endurance":
		return r.EnduranceSweep().Render(), true
	case "ablations":
		return experiments.RenderClaims("Design ablations (consolidation rows: radix, 60K instructions per thread)", r.Ablations()), true
	case "floorplan", "fig2":
		return experiments.Floorplan(), true
	case "vmin":
		return experiments.VminStudy().Render(), true
	case "area":
		return experiments.AreaStudy().Render(), true
	case "variation":
		return experiments.VariationStudy().Render(), true
	case "workloads":
		return r.WorkloadTable().Render(), true
	default:
		return "", false
	}
}
