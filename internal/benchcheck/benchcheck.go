// Package benchcheck compares a `go test -bench` run against the
// checked-in BENCH_baseline.json reference. Timings (ns/op, B/op,
// allocs/op) and rate metrics (unit ending in "/s") are informational
// — machines differ — but the remaining custom metrics are
// reproducibility anchors: the simulator is deterministic, so any
// drift in them means the model's behaviour changed.
package benchcheck

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	v1 "respin/internal/api/v1"
)

// Entry holds one benchmark's numbers, either from the baseline file
// or parsed from a `go test -bench` text run.
type Entry struct {
	NsOp     float64            `json:"ns_op"`
	BOp      float64            `json:"b_op,omitempty"`
	AllocsOp float64            `json:"allocs_op,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

// Baseline mirrors the BENCH_baseline.json schema.
type Baseline struct {
	SchemaVersion string           `json:"schema_version"`
	Meta          json.RawMessage  `json:"_meta,omitempty"`
	Benchmarks    map[string]Entry `json:"benchmarks"`
}

// LoadBaseline reads and decodes a BENCH_baseline.json file. The file
// carries the shared wire schema version; a baseline written against a
// different schema is rejected rather than silently half-compared.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.SchemaVersion != v1.SchemaVersion {
		return nil, fmt.Errorf("%s: unsupported schema_version %q (want %q)",
			path, b.SchemaVersion, v1.SchemaVersion)
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &b, nil
}

// ParseBench extracts benchmark results from `go test -bench` text
// output, keyed by the name exactly as printed. Lines that are not
// benchmark result lines are ignored, so the full combined output
// (including PASS/ok trailers and -v noise) can be fed in directly.
//
// Names keep any trailing "-N" GOMAXPROCS marker go test appended:
// it cannot be stripped here because legitimate sub-benchmark names
// also end in "-<digits>" ("jobs-1") and go test omits the marker
// entirely when GOMAXPROCS is 1. Compare resolves the ambiguity at
// lookup time instead.
func ParseBench(r io.Reader) (map[string]Entry, error) {
	out := make(map[string]Entry)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// Result lines look like:
		//   BenchmarkFoo-8  1  1234 ns/op  5.67 some-metric  0 allocs/op
		// i.e. name, iteration count, then value/unit pairs.
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue
		}
		name := fields[0]
		e := Entry{Metrics: make(map[string]float64)}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark %s: bad value %q", name, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				e.NsOp = v
			case "B/op":
				e.BOp = v
			case "allocs/op":
				e.AllocsOp = v
			case "MB/s":
				// go test's own throughput column: informational.
			default:
				e.Metrics[unit] = v
			}
		}
		out[name] = e
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	return out, nil
}

// Drift is one gated metric that differs from the baseline.
type Drift struct {
	Benchmark string
	Metric    string
	Want, Got float64
	Missing   bool // benchmark or metric absent from the current run
}

func (d Drift) String() string {
	if d.Missing {
		return fmt.Sprintf("%s: metric %q missing (baseline %v)", d.Benchmark, d.Metric, d.Want)
	}
	return fmt.Sprintf("%s: metric %q = %v, baseline %v", d.Benchmark, d.Metric, d.Got, d.Want)
}

// gated reports whether a custom metric participates in the drift
// check. Rates (anything per second) depend on the machine; everything
// else the deterministic simulator must reproduce exactly.
func gated(unit string) bool { return !strings.HasSuffix(unit, "/s") }

// Compare checks every gated baseline metric against the current run.
// Both sides come from go test's fixed-precision metric formatting, so
// equality is exact up to a tiny relative epsilon guarding against
// decimal round-tripping.
func Compare(base *Baseline, cur map[string]Entry) []Drift {
	var drifts []Drift
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base.Benchmarks[name]
		got, ok := lookup(cur, name)
		metrics := make([]string, 0, len(want.Metrics))
		for m := range want.Metrics {
			if gated(m) {
				metrics = append(metrics, m)
			}
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			wv := want.Metrics[m]
			if !ok {
				drifts = append(drifts, Drift{Benchmark: name, Metric: m, Want: wv, Missing: true})
				continue
			}
			gv, have := got.Metrics[m]
			if !have {
				drifts = append(drifts, Drift{Benchmark: name, Metric: m, Want: wv, Missing: true})
				continue
			}
			if !equalish(wv, gv) {
				drifts = append(drifts, Drift{Benchmark: name, Metric: m, Want: wv, Got: gv})
			}
		}
	}
	return drifts
}

// cpuSuffix matches the "-N" GOMAXPROCS marker go test appends to the
// printed benchmark name on multi-core machines.
var cpuSuffix = regexp.MustCompile(`^-\d+$`)

// lookup finds the baseline benchmark in the parsed run: exact name
// first (GOMAXPROCS=1 output has no marker), then the name plus a
// "-N" cpu marker.
func lookup(cur map[string]Entry, name string) (Entry, bool) {
	if e, ok := cur[name]; ok {
		return e, true
	}
	for k, e := range cur {
		if strings.HasPrefix(k, name) && cpuSuffix.MatchString(k[len(name):]) {
			return e, true
		}
	}
	return Entry{}, false
}

// equalish allows only decimal round-trip noise, not real drift.
func equalish(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// Check is the end-to-end entry point used by cmd/respin-bench: parse
// the bench output, compare against the baseline at path, and report.
// It returns the drift list (empty means the run matches) so the
// caller chooses the exit code.
func Check(baselinePath string, benchOutput io.Reader, report io.Writer) ([]Drift, error) {
	base, err := LoadBaseline(baselinePath)
	if err != nil {
		return nil, err
	}
	cur, err := ParseBench(benchOutput)
	if err != nil {
		return nil, err
	}
	drifts := Compare(base, cur)
	gatedCount := 0
	for _, e := range base.Benchmarks {
		for m := range e.Metrics {
			if gated(m) {
				gatedCount++
			}
		}
	}
	if len(drifts) == 0 {
		fmt.Fprintf(report, "benchcheck: %d benchmarks, %d gated metrics, all match %s\n",
			len(base.Benchmarks), gatedCount, baselinePath)
	} else {
		fmt.Fprintf(report, "benchcheck: %d of %d gated metrics drifted from %s:\n",
			len(drifts), gatedCount, baselinePath)
		for _, d := range drifts {
			fmt.Fprintf(report, "  %s\n", d)
		}
	}
	return drifts, nil
}
