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
	if !bytes.Contains(data, []byte("point.1.SH-STT.small.")) {
		t.Error("-metrics lacks the telemetry of a point that completed")
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Fatalf("-cpuprofile not flushed: %v, %v", fi, err)
	}
}
