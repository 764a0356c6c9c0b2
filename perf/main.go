// Command perf is the end-to-end and per-layer benchmark of the respin
// simulator, its batch reproduction (experiments.Runner) and the
// respin-serve evaluation service. It drives every layer through its
// public API from one process and checks every output it times.
//
// Run from the repository root (perf/run.sh builds and runs it):
//
//	sh perf/run.sh --workload deep-shared --seed 1 --seconds 10 --trace 0
//	sh perf/run.sh --workload serve-hot --trace 1          # per-layer pass
//	sh perf/run.sh -record base.jsonl ...                   # keep the runs
//	sh perf/run.sh -compare base.jsonl head.jsonl           # noise-aware gate
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (the end-to-end ones untraced, the
// per-layer ones with --trace 1). Any failed operation makes the command
// exit 1. See README.md for the workloads, metrics and bounds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
	"time"
)

func main() {
	os.Exit(command(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command's settings.
type options struct {
	seed     int64
	budget   time.Duration
	sz       sizes
	work     string
	traceDir string
	golden   map[string]string
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func command(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed (0 to 1e12); the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	traceDir := fs.String("trace-dir", "", "where the traced pass writes spans.jsonl and layers.json (default WORK/trace/WORKLOAD)")
	work := fs.String("work", ".bench_build/perf", "scratch directory for journals and checkpoints")
	recordTo := fs.String("record", "", "append each run's result as one JSON line to this file")
	compare := fs.Bool("compare", false, "compare two -record files: -compare BASE HEAD")
	writeGolden := fs.String("write-golden", "", "merge this run's output digests into this golden file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perf: -compare takes two record files: BASE HEAD")
			return 2
		}
		pass, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perf: %v\n", err)
			return 2
		}
		if !pass {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds <= 0 || *seed < 0 || *seed > 1e12 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perf: want --workload NAME --seed 0..1e12 --seconds >0 --trace 0|1")
		return 2
	}
	list := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "perf: unknown workload %q (valid: %s)\n", *name, workloadNames())
			return 2
		}
		list = []workload{w}
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintf(stderr, "perf: golden digests: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perf: %v\n", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	code := 0
	digests := make(map[string]string)
	for _, w := range list {
		o := options{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), sz: fullSizes,
			work: *work, traceDir: *traceDir, golden: golden}
		if o.traceDir == "" {
			o.traceDir = filepath.Join(*work, "trace", w.name)
		}
		var res result
		if *traced == 1 {
			res, err = tracedRun(ctx, w, o, stdout, digests)
		} else {
			res, err = untracedRun(ctx, w, o, stdout, digests)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perf: %s: %v\n", w.name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "perf: %s: %v\n", w.name, err)
			return 1
		}
		if *recordTo != "" {
			if err := appendRecord(*recordTo, record{Workload: w.name, Seed: *seed, Trace: *traced, result: res}); err != nil {
				fmt.Fprintf(stderr, "perf: %v\n", err)
				return 1
			}
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	if *writeGolden != "" {
		if err := mergeGolden(*writeGolden, digests); err != nil {
			fmt.Fprintf(stderr, "perf: %v\n", err)
			return 1
		}
	}
	return code
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// execute runs workload w once into r and folds in its digests.
func execute(ctx context.Context, w workload, r *run, digests map[string]string) error {
	err := w.run(ctx, r)
	for k, v := range r.digests {
		digests[k] = v
	}
	for _, n := range r.notes {
		fmt.Fprintf(os.Stderr, "perf: %s: %s\n", w.name, n)
	}
	return err
}

// newResult builds the result line for runs of one invocation.
func newResult(defs []metricDef, values map[string]float64, runs ...*run) result {
	res := result{Metrics: make(map[string]metricValue, len(defs))}
	for _, r := range runs {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	if res.Attempted == 0 {
		// A run that completed no operation measured nothing.
		res.Attempted, res.Failed = 1, 1
	}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			res.Failed = max(res.Failed, 1)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	res.Correct = res.Failed == 0
	return res
}

func untracedRun(ctx context.Context, w workload, o options, out io.Writer, digests map[string]string) (result, error) {
	r := newRun(w.name, o.seed, o.budget, o.sz, o.work, nil, o.golden)
	if err := execute(ctx, w, r, digests); err != nil {
		return result{}, err
	}
	res := newResult(endToEnd, r.endToEndValues(), r)
	printTable(out, w, o, r, res)
	return res, nil
}

// printTable prints every end-to-end metric with its median, quartiles
// and sample count.
func printTable(out io.Writer, w workload, o options, r *run, res result) {
	fmt.Fprintf(out, "perf %s: seed %d, %v timed, nproc %d, %s, %d ops, %d failed\n",
		w.name, o.seed, r.wall.Round(time.Millisecond), nproc(), runtime.Version(), res.Attempted, res.Failed)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tunit\tvalue\tq1\tq3\tn\t\t")
	row := func(name string, s summary, note string) {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%s\t\n", name, res.Metrics[name].Unit, res.Metrics[name].Value, s.Q1, s.Q3, s.N, note)
	}
	one := func(name string) {
		row(name, summary{Q1: res.Metrics[name].Value, Q3: res.Metrics[name].Value, N: 1}, "")
	}
	row("setup_s", summarize(r.setup), "")
	lat := summarize(r.lat)
	row("op_p50_ms", lat, "")
	p, ok := tailPercentile(len(r.lat))
	note := fmt.Sprintf("p%.0f", 100*p)
	if !ok {
		note += fmt.Sprintf(" (fewer than %d samples beyond)", minBeyond)
	}
	fmt.Fprintf(tw, "%s\t%s\t%.6g\t-\t-\t%d\t%s\t\n", "op_tail_ms", "ms", res.Metrics["op_tail_ms"].Value, lat.N, note)
	for _, n := range []string{"ops_per_s", "cpu_ms_per_op", "peak_live_heap_mb"} {
		one(n)
	}
	tw.Flush()
}

// tracedRun measures the workload untraced, then traced under a CPU
// profile, then runs the layer probes on its inputs, and reports the
// per-layer metrics. Spans and layer numbers go to o.traceDir.
func tracedRun(ctx context.Context, w workload, o options, out io.Writer, digests map[string]string) (result, error) {
	base := newRun(w.name, o.seed, o.budget*3/10, o.sz, o.work, nil, o.golden)
	if err := execute(ctx, w, base, digests); err != nil {
		return result{}, err
	}
	tr := newTracer()
	r := newRun(w.name, o.seed, o.budget*4/10, o.sz, o.work, tr, o.golden)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	var err error
	pprof.Do(ctx, pprof.Labels("workload", w.name), func(ctx context.Context) {
		err = execute(ctx, w, r, digests)
	})
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	shares, err := selfShares(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	vals, err := layerProbes(ctx, w.probe(o.seed), o.sz, o.work)
	if err != nil {
		return result{}, err
	}
	for pkg, s := range shares {
		vals["self."+pkg+"_frac"] = s
	}
	if x := r.runner; x != nil {
		vals["runner.runs_started"] = float64(x.RunsStarted())
		vals["runner.cache_hits"] = float64(x.CacheHits())
	}
	if len(r.tails) > 0 {
		vals["runner.tail_frac"] = summarize(r.tails).Median
	}
	if r.rt.busyCPU > 0 {
		vals["gc.cpu_frac"] = r.rt.gcCPU / r.rt.busyCPU
	}
	vals["alloc_mb_per_op"] = r.rt.allocBytes / (1 << 20) / float64(max(len(r.lat), 1))
	vals["trace.overhead_frac"] = summarize(r.lat).Median/summarize(base.lat).Median - 1

	res := newResult(perLayer, vals, base, r)
	spans := tr.snapshot()
	if err := writeTrace(o.traceDir, w, o, res, spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "perf %s (traced): seed %d, %d spans, trace overhead %+.1f%%, layers in %s\n",
		w.name, o.seed, len(spans), 100*vals["trace.overhead_frac"], o.traceDir)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	for _, d := range perLayer {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t\n", d.Name, d.Unit, res.Metrics[d.Name].Value)
	}
	tw.Flush()
	return res, nil
}

// writeTrace writes the spans (one JSON object per line) and the layer
// report: the per-layer metrics plus each span name's count, median
// duration and median self time.
func writeTrace(dir string, w workload, o options, res result, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(dir, "spans.jsonl"), spans); err != nil {
		return err
	}
	doc := struct {
		Workload string                 `json:"workload"`
		Seed     int64                  `json:"seed"`
		Metrics  map[string]metricValue `json:"metrics"`
		Spans    map[string]spanStat    `json:"spans"`
	}{w.name, o.seed, res.Metrics, spanStats(spans)}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(data, '\n'), 0o644)
}
