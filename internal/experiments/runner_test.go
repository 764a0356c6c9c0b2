package experiments

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"respin/internal/config"
	"respin/internal/endurance"
	"respin/internal/runstore"
	"respin/internal/sim"
	"respin/internal/telemetry"
)

// TestCheckpointDirResume: a run cancelled after its first checkpoint
// write resumes from the runner's run store — it does not restart — to
// the result of an uninterrupted run, and the finished run leaves its
// committed result in the store and no checkpoint. The cancelled
// invocation has no telemetry and the resuming one does: telemetry is
// not part of the store key.
func TestCheckpointDirResume(t *testing.T) {
	dir := t.TempDir()
	ckptRunner := func() *Runner {
		r := tinyRunner()
		r.CheckpointDir = dir
		r.CheckpointEvery = 2_000
		return r
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := ckptRunner()
	r.Ctx = ctx
	go func() { // cancel as soon as the first checkpoint lands
		for ctx.Err() == nil {
			if len(storeFiles(t, dir, runstore.CheckpointSuffix)) > 0 {
				cancel()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	run := r.mediumPoint(config.SHSTT, "fft")
	if _, errs := r.Do(run); errs[0] == nil || !r.Aborted() {
		t.Fatalf("run finished before its cancellation (err %v)", errs[0])
	}
	ckpts := storeFiles(t, dir, runstore.CheckpointSuffix)
	if len(ckpts) != 1 {
		t.Fatalf("store holds checkpoints %v, want one for %s", ckpts, run.Label)
	}
	info, err := sim.CheckpointInfo(filepath.Join(dir, ckpts[0]))
	if err != nil || info.Cycle == 0 {
		t.Fatalf("no mid-run checkpoint left for %s: %+v, %v", run.Label, info, err)
	}

	var events bytes.Buffer
	r = ckptRunner()
	r.Telemetry = telemetry.New(telemetry.WithEvents(&events))
	resumed := r.medium(config.SHSTT, "fft")
	full := tinyRunner()
	full.Telemetry = telemetry.New()
	if want := full.medium(config.SHSTT, "fft"); !reflect.DeepEqual(resumed, want) {
		t.Errorf("resumed result differs from the uninterrupted run: %d vs %d cycles", resumed.Cycles, want.Cycles)
	}
	evs, err := telemetry.ParseEvents(events.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if ev.Type == "run.start" {
			t.Fatal("the second run started at cycle 0 instead of resuming")
		}
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 2 || !strings.HasSuffix(entries[0].Name(), runstore.ResultSuffix) || entries[1].Name() != runstore.StampFile {
		t.Errorf("store holds %v after the run completed, want its committed result and the stamp", entries)
	}
}

// TestCheckpointDirOverAnotherModelsStore: a quick runner's Figure 9
// over a store another model wrote simulates every run and renders the
// report of a runner over a fresh directory byte for byte. That store
// holds a doctored outcome for each of the figure's runs under its
// current name, a checkpoint and files of the layouts before the stamp;
// afterwards it holds the figure's entries and the current stamp alone.
// The same outcomes under the current model's stamp are recalled, so
// the stamp alone keeps them from answering.
func TestCheckpointDirOverAnotherModelsStore(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a quick Figure 9 twice")
	}
	storeRunner := func(dir string) *Runner {
		r := QuickRunner()
		r.CheckpointDir = dir
		if err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	fresh := storeRunner(t.TempDir())
	runs := fresh.Figure9Runs()
	keys := map[string]bool{}
	// seed fills dir with a doctored outcome of every run and the files
	// of older layouts, and stamps it for model.
	seed := func(dir string, model int) {
		st, err := runstore.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range runs {
			key, err := sim.RunKey(run.Config, run.Bench, run.Opts)
			if err != nil {
				t.Fatal(err)
			}
			keys[runstore.Name(key)+runstore.ResultSuffix] = true
			if err := commit(st, key, sim.Result{Cycles: 1, EnergyPJ: 1}, nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range []string{
			runstore.Name("checkpoint") + runstore.CheckpointSuffix,
			runstore.Name("journal") + ".result.json",
			runstore.Name("journal") + ".req.json",
		} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("stale"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, runstore.StampFile), runstore.Stamp(model), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	control := t.TempDir()
	seed(control, sim.ModelVersion)
	r := storeRunner(control)
	if res, _ := r.Exec(context.Background(), runs[0]); r.RunsStarted() != 0 || res.EnergyPJ != 1 {
		t.Fatalf("a current store answered %s with %v pJ after %d runs, want its doctored outcome",
			runs[0].Label, res.EnergyPJ, r.RunsStarted())
	}

	dir := t.TempDir()
	seed(dir, sim.ModelVersion+1)
	foreign := storeRunner(dir)
	got := foreign.Figure9().Render()
	if want := fresh.Figure9().Render(); got != want {
		t.Fatalf("Figure 9 over another model's store differs from a fresh directory's:\n%s\nwant:\n%s", got, want)
	}
	if n := foreign.RunsStarted(); n != uint64(len(runs)) {
		t.Fatalf("%d runs started over another model's store, want all %d", n, len(runs))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !keys[e.Name()] && e.Name() != runstore.StampFile {
			t.Errorf("the store holds %s, neither a Figure 9 entry nor the stamp", e.Name())
		}
	}
	if len(entries) != len(keys)+1 {
		t.Errorf("the store holds %d files, want %d entries and the stamp", len(entries), len(keys))
	}
	if stamp, err := os.ReadFile(filepath.Join(dir, runstore.StampFile)); err != nil || !bytes.Equal(stamp, runstore.Stamp(sim.ModelVersion)) {
		t.Errorf("stamp %q, %v; want the current model's", stamp, err)
	}
}

// storeFiles lists the files in a run-store directory with the given
// suffix.
func storeFiles(t *testing.T, dir, suffix string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), suffix) {
			names = append(names, e.Name())
		}
	}
	return names
}

// labelled returns the metrics of snap whose names start with prefix.
func labelled(snap *telemetry.Snapshot, prefix string) []telemetry.Metric {
	var out []telemetry.Metric
	for _, m := range snap.Metrics {
		if strings.HasPrefix(m.Name, prefix) {
			out = append(out, m)
		}
	}
	return out
}

// TestCheckpointDirRecallsFinishedRuns: a runner over a finished run
// store simulates nothing. Every run, an epoch trace and a wear-out
// among them, is recalled as a cache hit with a result deep-equal to the simulated
// one and the same metrics absorbed under its label. A runner without
// telemetry recalls them too, and gets the results of a runner that
// keeps no store: no metrics. The same store under another seed starts
// every run.
func TestCheckpointDirRecallsFinishedRuns(t *testing.T) {
	dir := t.TempDir()
	storeRunner := func(seed int64) (*Runner, []Run, *telemetry.Collector) {
		r := tinyRunner()
		r.Seed = seed
		r.CheckpointDir = dir
		r.Telemetry = telemetry.New()
		runs := []Run{r.mediumPoint(config.SHSTT, "fft"), r.mediumPoint(config.PRSRAMNT, "radix"),
			r.point(config.SHSTTCC, config.Medium, 16, "radix", r.Quota, true)}
		wear := r.mediumPoint(config.SHSTT, "radix")
		wear.Label += ".wear"
		wear.Opts.Endurance = endurance.Params{BudgetMean: 4, BudgetSigma: 0.1}
		return r, append(runs, wear), r.Telemetry
	}
	r1, runs, tel1 := storeRunner(1)
	first, errs1 := r1.Do(runs...)
	var wear *endurance.WearOutError
	if errs1[0] != nil || errs1[1] != nil || errs1[2] != nil || !errors.As(errs1[3], &wear) {
		t.Fatalf("first pass errors %v, want three nil and a wear-out", errs1)
	}
	if len(first[2].Trace.Values) == 0 {
		t.Fatal("test setup: the epoch-trace run recorded no trace")
	}
	if got := storeFiles(t, dir, runstore.ResultSuffix); len(got) != len(runs) {
		t.Fatalf("store holds %d results after %d recorded runs", len(got), len(runs))
	}

	r2, runs, tel2 := storeRunner(1)
	second, errs2 := r2.Do(runs...)
	if n := r2.RunsStarted(); n != 0 {
		t.Fatalf("a runner over a finished store started %d runs", n)
	}
	if n := r2.CacheHits(); n != uint64(len(runs)) {
		t.Fatalf("recalled runs counted %d cache hits, want %d", n, len(runs))
	}
	if !reflect.DeepEqual(second, first) || !reflect.DeepEqual(errs2, errs1) {
		t.Fatalf("recalled outcomes differ from the simulated ones: errors %v vs %v", errs2, errs1)
	}
	for _, run := range runs {
		prefix := "run." + run.Label + "."
		want, got := labelled(tel1.Snapshot(), prefix), labelled(tel2.Snapshot(), prefix)
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("metrics under %s: recalled %d, simulated %d, or their values differ", prefix, len(got), len(want))
		}
	}

	quiet, runs, _ := storeRunner(1)
	quiet.Telemetry = nil
	recalled, errs := quiet.Do(runs...)
	unstored := tinyRunner()
	want, wantErrs := unstored.Do(runs...)
	if n := quiet.RunsStarted(); n != 0 {
		t.Fatalf("a runner without telemetry over a finished store started %d runs", n)
	}
	if !reflect.DeepEqual(recalled, want) || !reflect.DeepEqual(errs, wantErrs) {
		t.Fatal("without telemetry, recalled outcomes differ from those of a runner without a store")
	}

	r3, runs, _ := storeRunner(2)
	r3.Do(runs...)
	if n := r3.RunsStarted(); n != uint64(len(runs)) {
		t.Fatalf("another seed over the same store started %d of %d runs", n, len(runs))
	}
}

// TestEvalRunsSimulateOnce: no two runs of a reproduction, quick or
// full, are the same simulation. Recording an epoch trace changes what
// a result carries, not the simulation, so runs that differ only in
// EpochTrace count as the same, and a reproduction must ask for such a
// point once.
func TestEvalRunsSimulateOnce(t *testing.T) {
	for name, r := range map[string]*Runner{"quick": QuickRunner(), "full": NewRunner()} {
		labels := make(map[string]string)
		for _, run := range r.EvalRuns() {
			opts := run.Opts
			opts.EpochTrace = false
			key, err := sim.RunKey(run.Config, run.Bench, opts)
			if err != nil {
				t.Fatal(err)
			}
			if other, ok := labels[key]; ok {
				t.Errorf("%s: runs %s and %s are the same simulation", name, other, run.Label)
			}
			labels[key] = run.Label
		}
	}
}

// TestRunnerKeysRunsByDefinition: the runner answers a run by what it
// simulates, not by its label. Two runs under one label with different
// quotas each get their own result, and two labels over one definition
// share one simulation.
func TestRunnerKeysRunsByDefinition(t *testing.T) {
	r := tinyRunner()
	short, long := r.point(config.SHSTT, config.Medium, 16, "fft", 2000, false), r.point(config.SHSTT, config.Medium, 16, "fft", 3000, false)
	long.Label = short.Label
	results, errs := r.Do(short, long)
	if errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}
	if results[0].Instructions == results[1].Instructions {
		t.Errorf("quotas 2000 and 3000 under one label both ran %d instructions", results[0].Instructions)
	}
	if n := r.RunsStarted(); n != 2 {
		t.Errorf("two definitions under one label started %d runs, want 2", n)
	}

	r = tinyRunner()
	again := short
	again.Label += ".again"
	results, errs = r.Do(short, again)
	if errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("two labels over one definition got different results")
	}
	if n := r.RunsStarted(); n != 1 {
		t.Errorf("two labels over one definition started %d runs, want 1", n)
	}
}
