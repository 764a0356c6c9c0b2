package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"respin/internal/runstore"
	"respin/internal/sim"
	"respin/internal/telemetry"
)

// TestFailedPointsReportedAfterCleanup: a sweep whose SRAM points halt
// on an uncorrectable error still runs every other point, names each
// failed point on stderr in sweep order, exits 1, and leaves run's
// deferred cleanup done — a valid -metrics document and a flushed
// -cpuprofile.
func TestFailedPointsReportedAfterCleanup(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	cpu := filepath.Join(dir, "c.prof")
	fs := flag.NewFlagSet("respin-sweep", flag.ContinueOnError)
	var stdout, stderr bytes.Buffer
	code := run(fs, []string{
		"-sweep", "scale", "-quota", "2000",
		"-sram-bitflip", "0.001", "-ecc", "parity", "-halt-uncorrectable",
		"-metrics", metrics, "-cpuprofile", cpu,
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, &stderr)
	}
	if stdout.Len() != 0 {
		t.Errorf("a failed sweep printed a table:\n%s", &stdout)
	}
	msg := stderr.String()
	var last int
	for _, point := range []string{"point 0 (PR-SRAM-NT.small)", "point 2 (PR-SRAM-NT.medium)", "point 4 (PR-SRAM-NT.large)"} {
		i := strings.Index(msg, point)
		if i < last {
			t.Fatalf("stderr does not name %q after the previous failure:\n%s", point, msg)
		}
		last = i
	}
	if strings.Contains(msg, "(SH-STT.") {
		t.Errorf("an STT point reported a failure:\n%s", msg)
	}

	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatalf("-metrics is not valid JSON:\n%s", data)
	}
	if !bytes.Contains(data, []byte("run.SH-STT.small.")) {
		t.Error("-metrics lacks the telemetry of a point that completed")
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Fatalf("-cpuprofile not flushed: %v, %v", fi, err)
	}
}

// sweep runs respin-sweep with args and returns its exit status, stdout
// and stderr.
func sweep(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	fs := flag.NewFlagSet("respin-sweep", flag.ContinueOnError)
	var stdout, stderr bytes.Buffer
	code := run(fs, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestOutputIndependentOfJobs: every sweep prints the same table and
// writes the same -metrics bytes at -jobs 1 and -jobs 4, whatever order
// the points complete in.
func TestOutputIndependentOfJobs(t *testing.T) {
	for _, name := range []string{"cluster", "epoch", "scale"} {
		t.Run(name, func(t *testing.T) {
			out := func(jobs string) (string, []byte) {
				metrics := filepath.Join(t.TempDir(), "m.json")
				code, stdout, stderr := sweep(t, "-sweep", name, "-quota", "2000", "-q",
					"-jobs", jobs, "-metrics", metrics)
				if code != 0 {
					t.Fatalf("-jobs %s: exit %d; stderr:\n%s", jobs, code, stderr)
				}
				data, err := os.ReadFile(metrics)
				if err != nil {
					t.Fatal(err)
				}
				return stdout, data
			}
			serial, serialMetrics := out("1")
			parallel, parallelMetrics := out("4")
			if serial != parallel {
				t.Errorf("table differs between -jobs 1 and 4:\n--- 1\n%s--- 4\n%s", serial, parallel)
			}
			if !bytes.Equal(serialMetrics, parallelMetrics) {
				t.Error("-metrics differs between -jobs 1 and 4")
			}
		})
	}
}

// TestCheckpointFilesFollowOutcomes: with -checkpoint, a point whose
// outcome is recorded leaves its committed result and no checkpoint,
// and a failed point keeps its checkpoint, so a re-invoked sweep starts
// exactly the failed points and recalls the rest.
func TestCheckpointFilesFollowOutcomes(t *testing.T) {
	dir := t.TempDir()
	// Both invocations attach a collector (-metrics): whether a run
	// carries metrics is part of its store key.
	metrics := filepath.Join(t.TempDir(), "m.json")
	args := []string{"-sweep", "scale", "-quota", "2000", "-q",
		"-sram-bitflip", "0.00001", "-ecc", "parity", "-halt-uncorrectable",
		"-checkpoint", dir, "-checkpoint-every", "500", "-metrics", metrics}
	code, _, stderr := sweep(t, args...)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var results int
	var failed []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, runstore.ResultSuffix):
			results++
		case strings.HasSuffix(name, runstore.CheckpointSuffix):
			info, err := sim.CheckpointInfo(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			failed = append(failed, fmt.Sprintf("%v.%v", info.Config.Kind, info.Config.Scale))
		}
	}
	sort.Strings(failed)
	want := []string{"PR-SRAM-NT.large", "PR-SRAM-NT.medium", "PR-SRAM-NT.small"}
	if results != 3 || strings.Join(failed, " ") != strings.Join(want, " ") {
		t.Fatalf("store holds %d results and checkpoints of %v; want the 3 STT points' results and the failed points' checkpoints %v",
			results, failed, want)
	}

	if code, _, stderr := sweep(t, args...); code != 1 {
		t.Fatalf("second invocation: exit %d, want 1; stderr:\n%s", code, stderr)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics telemetry.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if started, hits := doc.Metrics.Value("runner.runs_started"), doc.Metrics.Value("runner.cache_hits"); started != 3 || hits != 3 {
		t.Fatalf("second invocation started %v runs with %v cache hits, want the 3 failed points started and 3 recalled", started, hits)
	}
}
