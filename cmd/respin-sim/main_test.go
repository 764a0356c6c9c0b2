package main

import (
	"bytes"
	"encoding/csv"
	"flag"
	"strings"
	"testing"

	"respin/internal/config"
	"respin/internal/sim"
)

// simulate runs respin-sim with args and returns its exit status, stdout
// and stderr.
func simulate(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	fs := flag.NewFlagSet("respin-sim", flag.ContinueOnError)
	fs.SetOutput(new(bytes.Buffer))
	var stdout, stderr bytes.Buffer
	code := run(fs, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// records parses stdout as CSV.
func records(t *testing.T, stdout string) [][]string {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(stdout)).ReadAll()
	if err != nil {
		t.Fatalf("stdout is not CSV: %v\n%s", err, stdout)
	}
	return recs
}

// TestCSVViews: -csv trace prints the header and one record per trace
// point of the run, -csv histograms the header and the eight histogram
// buckets, and nothing else reaches stdout.
func TestCSVViews(t *testing.T) {
	res, err := sim.Run(config.New(config.SHSTTCC, config.Medium), "radix",
		sim.Options{QuotaInstr: 5000, Seed: 1, EpochTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-config", "SH-STT-CC", "-bench", "radix", "-quota", "5000"}

	code, stdout, stderr := simulate(t, append(args, "-csv", "trace")...)
	if code != 0 {
		t.Fatalf("-csv trace: exit %d; stderr:\n%s", code, stderr)
	}
	recs := records(t, stdout)
	if len(recs) == 0 || strings.Join(recs[0], ",") != "time_us,active_cores" {
		t.Fatalf("-csv trace header: %q", recs)
	}
	if got, want := len(recs)-1, res.Trace.Len(); got != want || want == 0 {
		t.Errorf("-csv trace printed %d records, want one per trace point (%d)", got, want)
	}

	code, stdout, stderr = simulate(t, append(args, "-csv", "histograms")...)
	if code != 0 {
		t.Fatalf("-csv histograms: exit %d; stderr:\n%s", code, stderr)
	}
	recs = records(t, stdout)
	if len(recs) != 9 || strings.Join(recs[0], ",") != "histogram,bucket,fraction" {
		t.Errorf("-csv histograms printed %d records, want the header and 8 buckets:\n%s", len(recs), stdout)
	}
}

// TestCSVUsageErrors: -csv with a view it does not know, or together
// with a flag that prints to stdout, is a usage error that runs nothing.
func TestCSVUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-csv", "trace", "-trace"},
		{"-csv", "histograms", "-diemap"},
		{"-csv", "bogus"},
	} {
		code, stdout, stderr := simulate(t, append(args, "-quota", "2000")...)
		if code != 2 || stdout != "" || stderr == "" {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2, an error and no output", args, code, stdout, stderr)
		}
	}
}
