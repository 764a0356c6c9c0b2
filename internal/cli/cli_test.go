package cli

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	v1 "respin/internal/api/v1"
	"respin/internal/config"
	"respin/internal/experiments"
	"respin/internal/sim"
)

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// simDefault is respin-sim's default run.
var simDefault = v1.RunRequest{Config: "SH-STT", Bench: "fft", Scale: "medium", Cluster: 16, Quota: sim.DefaultQuota, Seed: 1}

// newApp assembles a test App for the default run def on a private flag
// set, with the full group set unless narrower options are given.
func newApp(def v1.RunRequest, opts ...Option) (*App, *flag.FlagSet) {
	fs := newFlagSet()
	if len(opts) == 0 {
		opts = []Option{
			WithRunFlags(),
			WithParallelFlags(),
			WithProfileFlags(),
			WithTelemetryFlags(),
			WithFaultFlags(),
			WithEnduranceFlags(),
			WithCheckpointFlags(),
		}
	}
	return New("test", def, append([]Option{WithFlagSet(fs)}, opts...)...), fs
}

func TestNewDefaults(t *testing.T) {
	a, fs := newApp(v1.RunRequest{Quota: 123, Seed: 1}, WithRunFlags(), WithFaultFlags())
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if a.Req.Quota != 123 || a.Req.Seed != 1 {
		t.Fatalf("defaults: quota=%d seed=%d", a.Req.Quota, a.Req.Seed)
	}
	f := a.Req.Faults
	if f == nil || f.Seed != 1 || f.ECC != "SECDED" || f.KillCycle != v1.DefaultKillCycle {
		t.Fatalf("fault flags not registered: %+v", f)
	}
}

func TestNewRegistersOnlyRequestedGroups(t *testing.T) {
	a, fs := newApp(v1.RunRequest{Quota: 9}, WithRunFlags())
	for _, name := range []string{"jobs", "cpuprofile", "metrics", "fault-seed", "endurance-budget", "config", "checkpoint"} {
		if fs.Lookup(name) != nil {
			t.Errorf("unrequested flag -%s registered", name)
		}
	}
	if fs.Lookup("seed") == nil || fs.Lookup("quota") == nil {
		t.Fatal("requested run flags missing")
	}
	if a.Req.Faults != nil || a.Req.Endurance != nil {
		t.Fatalf("unrequested groups populated: %+v", a.Req)
	}
}

func TestNewParsesSharedFlags(t *testing.T) {
	a, fs := newApp(v1.RunRequest{})
	args := []string{
		"-seed", "7", "-jobs", "2", "-quota", "555", "-q",
		"-cpuprofile", "cpu.out", "-memprofile", "mem.out",
		"-metrics", "m.json", "-events", "e.jsonl",
		"-stt-write-fail", "0.001", "-kill-cores", "2", "-ecc", "parity",
		"-endurance-budget", "1e5", "-wear-level",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if a.Req.Seed != 7 || a.Jobs != 2 || a.Req.Quota != 555 || !a.Quiet {
		t.Fatalf("parsed common = %+v, request = %+v", a.Common, a.Req)
	}
	if a.CPUProfile != "cpu.out" || a.MemProfile != "mem.out" ||
		a.Metrics != "m.json" || a.Events != "e.jsonl" {
		t.Fatalf("parsed outputs = %+v", a.Common)
	}
	if f := a.Req.Faults; f.STTWriteFail != 0.001 || f.KillCores != 2 || f.ECC != "parity" {
		t.Fatalf("parsed fault flags = %+v", f)
	}
	if e := a.Req.Endurance; e.Budget != 1e5 || !e.WearLevel {
		t.Fatalf("parsed endurance flags = %+v", e)
	}
}

// TestRequestMatchesFlags: the App's RunRequest is the normalized
// document the parsed flags denote — default fault/endurance groups
// normalize away, explicit injection survives.
func TestRequestMatchesFlags(t *testing.T) {
	a, fs := newApp(simDefault,
		WithTarget(TAll),
		WithRunFlags(),
		WithFaultFlags(),
		WithEnduranceFlags(),
	)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	req, err := a.Request()
	if err != nil {
		t.Fatal(err)
	}
	if req.Config != "SH-STT" || req.Bench != "fft" || req.Quota != sim.DefaultQuota ||
		req.Seed != 1 || req.Workers != 0 {
		t.Fatalf("request = %+v", req)
	}
	if req.Faults != nil || req.Endurance != nil {
		t.Fatalf("default flag groups produced specs: %+v", req)
	}

	a2, fs2 := newApp(v1.RunRequest{Config: "SH-STT", Bench: "fft"},
		WithTarget(TAll),
		WithRunFlags(),
		WithFaultFlags(),
	)
	if err := fs2.Parse([]string{"-stt-write-fail", "0.001", "-ecc", "dected"}); err != nil {
		t.Fatal(err)
	}
	req2, err := a2.Request()
	if err != nil {
		t.Fatal(err)
	}
	if req2.Faults == nil || req2.Faults.STTWriteFail != 0.001 || req2.Faults.ECC != "DECTED" {
		t.Fatalf("fault flags lost: %+v", req2.Faults)
	}
	if again, err := a2.Request(); err != nil || again.Key() != req2.Key() {
		t.Fatalf("second Request = %v, %v; want %v", again.Key(), err, req2.Key())
	}

	bad, fs3 := newApp(v1.RunRequest{Config: "nope", Bench: "fft"}, WithTarget(TAll))
	if err := fs3.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Request(); err == nil || !strings.Contains(err.Error(), "SH-STT") {
		t.Fatalf("unknown config error does not list valid values: %v", err)
	}
}

func TestApplyToRunner(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	a, fs := newApp(v1.RunRequest{})
	if err := fs.Parse([]string{"-quota", "7000", "-seed", "3", "-jobs", "2", "-q",
		"-checkpoint", dir, "-checkpoint-every", "500",
		"-fault-seed", "7", "-endurance-budget", "1e5"}); err != nil {
		t.Fatal(err)
	}
	r := &experiments.Runner{}
	if err := a.Apply(r); err != nil {
		t.Fatal(err)
	}
	if r.Quota != 7_000 || r.Seed != 3 || r.Jobs != 2 {
		t.Fatalf("applied runner = %+v", r)
	}
	if r.CheckpointDir != dir || r.CheckpointEvery != 500 ||
		a.CheckpointSpec() != (sim.CheckpointSpec{Path: dir, EveryCycles: 500}) {
		t.Fatalf("checkpoint: runner %q every %d, spec %+v", r.CheckpointDir, r.CheckpointEvery, a.CheckpointSpec())
	}
	// A fault seed that seeds no injected fault does not seed the wear
	// model: the rule of a single run (v1.EnduranceSpec.Params).
	if r.Endurance.BudgetMean != 1e5 || r.Endurance.Seed != 1 {
		t.Fatalf("applied endurance = %+v, want budget 1e5 with seed 1", r.Endurance)
	}
	if r.Progress != nil {
		t.Fatal("quiet runner has progress output")
	}
	if r.TraceQuota == 0 {
		t.Fatal("Apply did not normalize the runner")
	}

	// Zero quota/seed mean "keep the runner's own values"; no
	// -checkpoint keeps no store.
	keep := experiments.QuickRunner()
	z, zfs := newApp(v1.RunRequest{})
	if err := zfs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := z.Apply(keep); err != nil {
		t.Fatal(err)
	}
	if keep.Quota != 40_000 || keep.Seed != 1 || keep.CheckpointDir != "" || keep.Endurance.Enabled() {
		t.Fatalf("zero flags overrode runner defaults: %+v", keep)
	}
	if z.CheckpointSpec().Enabled() {
		t.Fatalf("checkpointing on without -checkpoint: %+v", z.CheckpointSpec())
	}
}

// flagDefaults parses an empty command line to obtain the default App.
func flagDefaults() *App {
	a, fs := newApp(v1.RunRequest{})
	_ = fs.Parse(nil)
	return a
}

func TestApplyRejectsInvalid(t *testing.T) {
	c := flagDefaults()
	c.Jobs = -1
	if err := c.Apply(&experiments.Runner{}); err == nil {
		t.Fatal("negative jobs accepted")
	}
	e := flagDefaults()
	e.Req.Endurance.Budget = -5
	e.Req.Endurance.RetentionCycles = 1000
	if err := e.Apply(&experiments.Runner{}); err == nil || !strings.Contains(err.Error(), "budget mean -5") {
		t.Fatalf("negative endurance budget: %v, want the model's validation error", err)
	}
}

func TestStartWritesTelemetryOutputs(t *testing.T) {
	dir := t.TempDir()
	c := flagDefaults()
	c.Metrics = filepath.Join(dir, "m.json")
	c.Events = filepath.Join(dir, "e.jsonl")
	cleanup, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Collector().Enabled() {
		t.Fatal("Start did not build a collector")
	}
	c.Collector().RegisterCounter("x", func() uint64 { return 4 })
	c.Collector().Emit("run.start", 0, nil)
	if err := cleanup(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		SchemaVersion string `json:"schema_version"`
		Metrics       struct {
			Metrics []struct {
				Name  string  `json:"name"`
				Value float64 `json:"value"`
			} `json:"metrics"`
		} `json:"metrics"`
	}
	data, err := os.ReadFile(c.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion != "respin/v1" {
		t.Fatalf("metrics document not versioned: %s", data)
	}
	m := doc.Metrics.Metrics
	if len(m) != 1 || m[0].Name != "x" || m[0].Value != 4 {
		t.Fatalf("metrics file = %s", data)
	}
	evdata, err := os.ReadFile(c.Events)
	if err != nil {
		t.Fatal(err)
	}
	if len(evdata) == 0 {
		t.Fatal("events file empty")
	}
}

func TestStartWithoutTelemetryIsNil(t *testing.T) {
	c := flagDefaults()
	cleanup, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	if c.Collector() != nil {
		t.Fatal("collector built with no -metrics/-events")
	}
	if err := cleanup(); err != nil {
		t.Fatal(err)
	}
}

func TestTargetResolution(t *testing.T) {
	a, fs := newApp(simDefault, WithTarget(TAll))
	if err := fs.Parse([]string{"-config", "pr-stt-cc", "-scale", "LARGE", "-cluster", "8", "-bench", "lu"}); err != nil {
		t.Fatal(err)
	}
	cfg := resolve(t, a)
	if cfg.Kind != config.PRSTTCC || cfg.Scale != config.Large || cfg.ClusterSize != 8 {
		t.Fatalf("resolved config = %+v", cfg)
	}
	if a.Req.Bench != "lu" {
		t.Fatalf("bench = %q", a.Req.Bench)
	}

	for _, tc := range []struct {
		def  v1.RunRequest
		want string
	}{
		{v1.RunRequest{Config: "nope", Bench: "fft"}, "SH-STT"},
		{v1.RunRequest{Config: "SH-STT", Bench: "fft", Scale: "tiny"}, "small, medium, large"},
	} {
		bad, fs := newApp(tc.def, WithTarget(TAll))
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		if _, err := bad.Request(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%+v: error %v does not list the valid values", tc.def, err)
		}
	}

	// Partial registration declares only the requested flags.
	a2, fs2 := newApp(v1.RunRequest{Config: "SH-STT-CC", Bench: "radix"}, WithTarget(TConfig|TBench))
	if fs2.Lookup("scale") != nil || fs2.Lookup("cluster") != nil {
		t.Fatal("unrequested target flags registered")
	}
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	cfg2 := resolve(t, a2)
	if cfg2.Scale != config.Medium || cfg2.ClusterSize != config.New(config.SHSTTCC, config.Medium).ClusterSize {
		t.Fatalf("defaulted config = %+v", cfg2)
	}
}

// resolve resolves the configuration of the run a's flags denote.
func resolve(t *testing.T, a *App) config.Config {
	t.Helper()
	req, err := a.Request()
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}
