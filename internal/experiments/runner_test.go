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
// committed result in the store and no checkpoint or request.
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
	// Telemetry is part of the run's store key (it decides whether the
	// result carries metrics), so both invocations attach a collector.
	r.Telemetry = telemetry.New()
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
	if len(entries) != 1 || !strings.HasSuffix(entries[0].Name(), runstore.ResultSuffix) {
		t.Errorf("store holds %v after the run completed, want its committed result alone", entries)
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
// one and the same metrics absorbed under its label. The same store
// under another seed starts every run.
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

	r3, runs, _ := storeRunner(2)
	r3.Do(runs...)
	if n := r3.RunsStarted(); n != uint64(len(runs)) {
		t.Fatalf("another seed over the same store started %d of %d runs", n, len(runs))
	}
}
