package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
// outcome is recorded removes its file and a failed point keeps its
// file, so a re-invoked sweep resumes exactly the failed points.
func TestCheckpointFilesFollowOutcomes(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := sweep(t, "-sweep", "scale", "-quota", "2000", "-q",
		"-sram-bitflip", "0.00001", "-ecc", "parity", "-halt-uncorrectable",
		"-checkpoint", dir, "-checkpoint-every", "500")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	want := []string{"PR-SRAM-NT.large.ckpt", "PR-SRAM-NT.medium.ckpt", "PR-SRAM-NT.small.ckpt"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("checkpoint dir holds %v, want the failed points' files %v", got, want)
	}
}
