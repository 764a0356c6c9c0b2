package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"respin/internal/config"
	"respin/internal/telemetry"
)

// TestRunnerTelemetryAbsorbsFigure12 drives the Figure 12 recipe of the
// acceptance criteria: a runner with telemetry enabled must expose the
// per-cluster active-core epoch trace of the SH-STT-CC run — both as an
// absorbed "run.<label>...sim.epoch_trace" metric and as scoped epoch
// events — matching the rendered TraceResult exactly.
func TestRunnerTelemetryAbsorbsFigure12(t *testing.T) {
	var buf bytes.Buffer
	r := QuickRunner()
	r.TraceQuota = 60_000
	r.Telemetry = telemetry.New(telemetry.WithEvents(&buf))
	tr := r.ConsolidationTrace("radix")
	if tr.Greedy.Len() == 0 {
		t.Fatal("no greedy trace; raise TraceQuota")
	}

	label := r.point(config.SHSTTCC, config.Medium, 16, "radix", r.TraceQuota, true).Label
	snap := r.Telemetry.Snapshot()
	m, ok := snap.Get("run." + label + ".sim.epoch_trace")
	if !ok {
		names := make([]string, 0, len(snap.Metrics))
		for _, mm := range snap.Metrics {
			if strings.HasSuffix(mm.Name, "epoch_trace") {
				names = append(names, mm.Name)
			}
		}
		t.Fatalf("absorbed epoch trace missing under %q; have %v", "run."+label, names)
	}
	if !reflect.DeepEqual(m.Times, tr.Greedy.Times) || !reflect.DeepEqual(m.Values, tr.Greedy.Values) {
		t.Fatalf("absorbed trace diverges from Figure 12:\nmetric %v %v\nfigure %v %v",
			m.Times, m.Values, tr.Greedy.Times, tr.Greedy.Values)
	}

	// The scoped epoch events of the same run must carry the identical
	// cluster-0 active-core sequence.
	evs, err := telemetry.ParseEvents(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var active []float64
	var progress int
	for _, ev := range evs {
		if ev.Type == "run.progress" {
			progress++
		}
		if ev.Type == "epoch" && ev.Scope == label && ev.Attrs["cluster"] == float64(0) {
			active = append(active, ev.Attrs["active"].(float64))
		}
	}
	if !reflect.DeepEqual(active, tr.Greedy.Values) {
		t.Fatalf("epoch events %v diverge from Figure 12 values %v", active, tr.Greedy.Values)
	}
	if progress == 0 {
		t.Fatal("no run.progress events emitted")
	}

	// Runner bookkeeping: three runs (base + greedy + oracle), all
	// completed, and the counters must agree with the snapshot.
	if got := snap.Value("runner.runs_completed"); got != 3 {
		t.Fatalf("runner.runs_completed = %v, want 3", got)
	}
	if got := snap.Value("runner.runs_started"); got != 3 {
		t.Fatalf("runner.runs_started = %v, want 3", got)
	}
}

// TestRunnerTelemetryCountsCacheHits checks the singleflight counters:
// re-requesting a cached point must raise cache_hits, not runs_started.
func TestRunnerTelemetryCountsCacheHits(t *testing.T) {
	r := QuickRunner()
	r.Quota = 8_000
	r.Telemetry = telemetry.New()
	first := r.medium(config.SHSTT, "fft")
	again := r.medium(config.SHSTT, "fft")
	if !reflect.DeepEqual(first, again) {
		t.Fatal("cached result differs")
	}
	snap := r.Telemetry.Snapshot()
	if got := snap.Value("runner.runs_started"); got != 1 {
		t.Fatalf("runs_started = %v, want 1", got)
	}
	if got := snap.Value("runner.cache_hits"); got != 1 {
		t.Fatalf("cache_hits = %v, want 1", got)
	}
}

// TestRunnerNormalize pins the Runner defaults and rejections.
func TestRunnerNormalize(t *testing.T) {
	var r Runner
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	ref := NewRunner()
	if r.Quota != ref.Quota || r.TraceQuota != ref.TraceQuota || r.Seed != ref.Seed {
		t.Fatalf("normalized zero runner (quota %d, trace %d, seed %d) differs from NewRunner (%d, %d, %d)",
			r.Quota, r.TraceQuota, r.Seed, ref.Quota, ref.TraceQuota, ref.Seed)
	}
	if len(r.Benches) != len(ref.Benches) {
		t.Fatalf("benches = %v", r.Benches)
	}
	bad := Runner{Jobs: -1}
	if err := bad.Normalize(); err == nil {
		t.Fatal("negative Jobs accepted")
	}
	bad = Runner{Benches: []string{"not-a-bench"}}
	if err := bad.Normalize(); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
