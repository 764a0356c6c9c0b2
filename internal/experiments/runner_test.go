package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"respin/internal/config"
	"respin/internal/sim"
	"respin/internal/telemetry"
)

// TestCheckpointDirResume: a run cancelled after its first checkpoint
// write resumes from the runner's checkpoint directory — it does not
// restart — to the result of an uninterrupted run, and the finished run
// leaves the directory empty.
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
			if entries, _ := os.ReadDir(dir); len(entries) > 0 {
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
	info, err := sim.CheckpointInfo(filepath.Join(dir, ckptName(run.Label)))
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
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("checkpoint dir not empty after the run completed: %v", entries)
	}
}
