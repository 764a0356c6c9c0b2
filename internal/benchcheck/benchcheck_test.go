package benchcheck

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: respin
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFigure1 	       1	     24753 ns/op	        83.70 NT-leak-%	    5160 B/op	     115 allocs/op
BenchmarkTableI-8 	       1	     40438 ns/op	    5160 B/op	     115 allocs/op
BenchmarkFigure9/workers-1-8 	       1	6143106930 ns/op	         0.8017 SH-STT-norm-energy	 1000 B/op	 10 allocs/op
BenchmarkSimThroughput 	       1	 332332816 ns/op	   4814534 instr/s	 200 B/op	 3 allocs/op
PASS
ok  	respin	35.1s
`

func TestParseBench(t *testing.T) {
	got, err := ParseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(got))
	}
	f1 := got["BenchmarkFigure1"]
	if f1.NsOp != 24753 || f1.AllocsOp != 115 || f1.BOp != 5160 {
		t.Errorf("Figure1 timings = %+v", f1)
	}
	if v := f1.Metrics["NT-leak-%"]; v != 83.70 {
		t.Errorf("NT-leak-%% = %v, want 83.70", v)
	}
	// Names are kept exactly as printed; the cpu marker is resolved at
	// lookup time so sub-benchmarks ending in "-1" survive.
	if _, ok := got["BenchmarkTableI-8"]; !ok {
		t.Error("BenchmarkTableI-8 not parsed under its printed name")
	}
	if e, ok := lookup(got, "BenchmarkTableI"); !ok || e.NsOp != 40438 {
		t.Errorf("lookup(BenchmarkTableI) = %+v ok=%v", e, ok)
	}
	if e, ok := lookup(got, "BenchmarkFigure9/workers-1"); !ok || e.Metrics["SH-STT-norm-energy"] != 0.8017 {
		t.Errorf("lookup(BenchmarkFigure9/workers-1) = %+v ok=%v", e, ok)
	}
	if e, ok := lookup(got, "BenchmarkFigure1"); !ok || e.NsOp != 24753 {
		t.Errorf("lookup without marker = %+v ok=%v", e, ok)
	}
	if _, ok := lookup(got, "BenchmarkFigure9/workers"); ok {
		t.Error("lookup must not treat a real sub-bench suffix as a cpu marker prefix match")
	}
}

func baseline() *Baseline {
	return &Baseline{Benchmarks: map[string]Entry{
		"BenchmarkFigure1": {NsOp: 99, Metrics: map[string]float64{"NT-leak-%": 83.70}},
		"BenchmarkFigure9/workers-1": {NsOp: 99,
			Metrics: map[string]float64{"SH-STT-norm-energy": 0.8017}},
		"BenchmarkSimThroughput": {NsOp: 99, Metrics: map[string]float64{"instr/s": 4814534}},
	}}
}

func TestCompareClean(t *testing.T) {
	cur, err := ParseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	// Timings differ wildly from the baseline and instr/s is a rate:
	// none of that may gate.
	if drifts := Compare(baseline(), cur); len(drifts) != 0 {
		t.Errorf("unexpected drifts: %v", drifts)
	}
}

func TestCompareDriftAndMissing(t *testing.T) {
	base := baseline()
	base.Benchmarks["BenchmarkFigure1"] = Entry{Metrics: map[string]float64{"NT-leak-%": 84.00}}
	base.Benchmarks["BenchmarkFigure7"] = Entry{Metrics: map[string]float64{"SH-STT-norm-time": 0.9}}
	cur, err := ParseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	drifts := Compare(base, cur)
	if len(drifts) != 2 {
		t.Fatalf("drifts = %v, want 2 entries", drifts)
	}
	// Sorted by benchmark name: Figure1 value drift, then Figure7 missing.
	if drifts[0].Benchmark != "BenchmarkFigure1" || drifts[0].Missing || drifts[0].Got != 83.70 {
		t.Errorf("drift[0] = %+v", drifts[0])
	}
	if drifts[1].Benchmark != "BenchmarkFigure7" || !drifts[1].Missing {
		t.Errorf("drift[1] = %+v", drifts[1])
	}
}

func TestCheckEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	data := `{"schema_version": "respin/v1", "benchmarks": {
		"BenchmarkFigure1": {"ns_op": 1, "metrics": {"NT-leak-%": 83.70}},
		"BenchmarkSimThroughput": {"ns_op": 1, "metrics": {"instr/s": 1}}
	}}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	var rep strings.Builder
	drifts, err := Check(path, strings.NewReader(sampleOutput), &rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(drifts) != 0 {
		t.Errorf("drifts = %v", drifts)
	}
	if !strings.Contains(rep.String(), "all match") {
		t.Errorf("report = %q", rep.String())
	}
}

// TestLoadBaselineVersionGate rejects baselines written against a
// missing or foreign schema version instead of half-comparing them.
func TestLoadBaselineVersionGate(t *testing.T) {
	for name, data := range map[string]string{
		"missing": `{"benchmarks": {"B": {"ns_op": 1}}}`,
		"foreign": `{"schema_version": "respin/v9", "benchmarks": {"B": {"ns_op": 1}}}`,
	} {
		path := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadBaseline(path)
		if err == nil || !strings.Contains(err.Error(), "schema_version") {
			t.Errorf("%s baseline: err = %v, want schema_version rejection", name, err)
		}
	}
}

// TestRepoBaselineLoads guards the checked-in reference file itself:
// it must stay decodable and keep its gated anchors.
func TestRepoBaselineLoads(t *testing.T) {
	b, err := LoadBaseline(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := b.Benchmarks["BenchmarkFigure9"]
	if !ok {
		t.Fatal("BenchmarkFigure9 missing from BENCH_baseline.json")
	}
	if e.Metrics["SH-STT-norm-energy"] == 0 {
		t.Error("SH-STT-norm-energy anchor missing")
	}
}
