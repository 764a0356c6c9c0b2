package main

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

// noisy returns n samples around median with relative jitter j.
func noisy(rng *rand.Rand, n int, median, j float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = median * (1 + j*(2*rng.Float64()-1))
	}
	return xs
}

func TestJudge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name       string
		d          metricDef
		base, head []float64
		want       string
	}{
		{"same", lower, noisy(rng, 10, 100, 0.02), noisy(rng, 10, 101, 0.02), "same"},
		{"gain", lower, noisy(rng, 10, 100, 0.02), noisy(rng, 10, 80, 0.02), "gain"},
		{"gain higher-is-better", higher, noisy(rng, 10, 100, 0.02), noisy(rng, 10, 125, 0.02), "gain"},
		{"regression", lower, noisy(rng, 10, 100, 0.02), noisy(rng, 10, 115, 0.02), "regression"},
		{"regression higher-is-better", higher, noisy(rng, 10, 100, 0.02), noisy(rng, 10, 85, 0.02), "regression"},
		{"unresolved", lower, noisy(rng, 10, 100, 0.40), noisy(rng, 10, 115, 0.40), "unresolved"},
		// Too few pairs to claim a gain, yet every head run is better.
		{"better", lower, noisy(rng, 4, 100, 0.02), noisy(rng, 4, 80, 0.02), "better"},
		// Wins 8 of 10 pairs: not a gain.
		{"eight of ten", lower,
			[]float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100},
			[]float64{90, 90, 90, 90, 90, 90, 90, 90, 101, 101}, "same"},
	} {
		if got := judge(c.d, c.base, c.head); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dir := t.TempDir()
	write := func(name string, median float64, failed int) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 10; i++ {
			m := make(map[string]metricValue)
			for _, d := range endToEnd {
				m[d.Name] = metricValue{Value: noisy(rng, 1, median, 0.01)[0], Unit: d.Unit}
			}
			res := result{Correct: failed == 0, Attempted: 100, Metrics: m}
			if i == 0 {
				res.Failed = failed
			}
			if err := appendRecord(path, record{Workload: "deep-shared", Seed: int64(i + 1), result: res}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.jsonl", 100, 0)
	same := write("same.jsonl", 100, 0)
	failing := write("failing.jsonl", 100, 1)

	var out bytes.Buffer
	pass, err := compareFiles(base, same, &out)
	if err != nil || !pass {
		t.Fatalf("identical distributions: pass=%v err=%v\n%s", pass, err, out.String())
	}
	if n := strings.Count(out.String(), "deep-shared"); n != len(endToEnd)+1 {
		t.Errorf("want one row per end-to-end metric plus failed_frac, got %d:\n%s", n, out.String())
	}
	out.Reset()
	pass, err = compareFiles(base, failing, &out)
	if err != nil || pass {
		t.Fatalf("a rise in failed operations passed: pass=%v err=%v\n%s", pass, err, out.String())
	}
}
