package v1

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"respin/internal/config"
	"respin/internal/sim"
	"respin/internal/telemetry"
)

// update regenerates the golden files: UPDATE_GOLDEN=1 go test ./internal/api/v1
var update = os.Getenv("UPDATE_GOLDEN") != ""

// goldenReq is the request behind the golden document: small quota so
// the file stays reviewable, telemetry on so the envelope exercises the
// metrics-bearing shape the server actually emits.
func goldenReq(t *testing.T) RunRequest {
	t.Helper()
	req := RunRequest{Config: "sh-stt", Bench: "fft", Quota: 2_000}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	return req
}

// execute runs a request exactly as the CLIs and the server do.
func execute(t *testing.T, req RunRequest) RunResult {
	t.Helper()
	cfg, opts, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	opts.Telemetry = telemetry.New()
	res, runErr := sim.RunContext(context.Background(), cfg, req.Bench, opts)
	doc, err := NewResult(req, res, runErr)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestRunResultGolden pins the canonical encoding of a full RunResult
// envelope. A deliberate schema change regenerates the file with
// UPDATE_GOLDEN=1 and documents the change in DESIGN.md §4g.
func TestRunResultGolden(t *testing.T) {
	t.Parallel()
	doc := execute(t, goldenReq(t))
	got, err := EncodeBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "run_result.golden.json")
	if update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("RunResult encoding drifted from golden file (len got %d, want %d); regenerate deliberately with UPDATE_GOLDEN=1",
			len(got), len(want))
	}
}

// TestRunResultRoundTrip: encode → strict decode → encode must be
// byte-identical, including the raw sim.Result payload.
func TestRunResultRoundTrip(t *testing.T) {
	t.Parallel()
	doc := execute(t, goldenReq(t))
	first, err := EncodeBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeRunResult(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	second, err := EncodeBytes(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("round-tripped RunResult is not byte-identical")
	}
	if decoded.Request != doc.Request {
		t.Fatalf("round-tripped request drifted: %+v != %+v", decoded.Request, doc.Request)
	}
}

func TestNormalizeCanonicalizes(t *testing.T) {
	t.Parallel()
	a := RunRequest{Config: "sh-stt-cc", Bench: "fft"}
	if err := a.Normalize(); err != nil {
		t.Fatal(err)
	}
	if a.Config != "SH-STT-CC" || a.Scale != "medium" || a.Cluster != 16 ||
		a.Quota != sim.DefaultQuota || a.Seed != 1 || a.SchemaVersion != SchemaVersion {
		t.Fatalf("normalized request = %+v", a)
	}
	b := RunRequest{SchemaVersion: SchemaVersion, Config: "SH-STT-CC", Bench: "fft",
		Scale: "MEDIUM", Cluster: 16, Quota: sim.DefaultQuota, Seed: 1}
	if err := b.Normalize(); err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Fatalf("equivalent requests have different keys:\n%s\n%s", a.Key(), b.Key())
	}
}

// TestWorkersHintIgnored: workers is accepted and ignored. Every
// non-negative value normalizes to the same key, the same resolved
// configuration and options, and the same echoed request; a negative
// value is still rejected.
func TestWorkersHintIgnored(t *testing.T) {
	t.Parallel()
	type outcome struct {
		key  string
		cfg  config.Config
		opts sim.Options
		echo []byte
	}
	resolve := func(workers int) outcome {
		t.Helper()
		req := RunRequest{Config: "SH-STT", Bench: "fft", Quota: 2000, Workers: workers}
		if err := req.Normalize(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		cfg, opts, err := req.Resolve()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		doc, err := NewResult(req, sim.Result{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		echo, err := json.Marshal(doc.Request)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{req.Key(), cfg, opts, echo}
	}
	want := resolve(0)
	for _, workers := range []int{1, 4} {
		got := resolve(workers)
		if got.key != want.key {
			t.Errorf("workers=%d key %s, want %s", workers, got.key, want.key)
		}
		if !reflect.DeepEqual(got.cfg, want.cfg) || !reflect.DeepEqual(got.opts, want.opts) {
			t.Errorf("workers=%d resolved to %+v / %+v, want %+v / %+v", workers, got.cfg, got.opts, want.cfg, want.opts)
		}
		if !bytes.Equal(got.echo, want.echo) {
			t.Errorf("workers=%d echoed %s, want %s", workers, got.echo, want.echo)
		}
	}
	bad := RunRequest{Config: "SH-STT", Bench: "fft", Workers: -1}
	if err := bad.Normalize(); err == nil || !strings.Contains(err.Error(), "negative worker count") {
		t.Errorf("workers=-1: err = %v, want a negative worker count error", err)
	}
}

func TestNormalizeDropsNoopSpecs(t *testing.T) {
	t.Parallel()
	req := RunRequest{Config: "SH-STT", Bench: "fft",
		Faults:    &FaultSpec{Seed: 7, ECC: "DECTED"},
		Endurance: &EnduranceSpec{}}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	if req.Faults != nil || req.Endurance != nil {
		t.Fatalf("no-op specs survived normalization: %+v", req)
	}

	keep := RunRequest{Config: "SH-STT", Bench: "fft",
		Faults: &FaultSpec{STTWriteFail: 1e-3, ECC: "secded", KillCores: 2}}
	if err := keep.Normalize(); err != nil {
		t.Fatal(err)
	}
	f := keep.Faults
	if f == nil || f.Seed != 1 || f.ECC != "SECDED" || f.KillCycle != DefaultKillCycle {
		t.Fatalf("injecting spec mis-normalized: %+v", f)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	t.Parallel()
	body := `{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","typo_field":1}`
	if _, err := DecodeRunRequest(strings.NewReader(body)); err == nil ||
		!strings.Contains(err.Error(), "typo_field") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
	nested := `{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","faults":{"bogus":1}}`
	if _, err := DecodeRunRequest(strings.NewReader(nested)); err == nil {
		t.Fatal("unknown nested field not rejected")
	}
}

func TestDecodeRequiresVersion(t *testing.T) {
	t.Parallel()
	if _, err := DecodeRunRequest(strings.NewReader(`{"config":"SH-STT","bench":"fft"}`)); err == nil ||
		!strings.Contains(err.Error(), "schema_version") {
		t.Fatalf("missing schema_version accepted: %v", err)
	}
	bad := `{"schema_version":"respin/v2","config":"SH-STT","bench":"fft"}`
	if _, err := DecodeRunRequest(strings.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "respin/v2") {
		t.Fatalf("wrong schema_version accepted: %v", err)
	}
}

// TestErrorsListValidValues: the -only convention extended to every
// enum-valued request field.
func TestErrorsListValidValues(t *testing.T) {
	t.Parallel()
	cases := []struct {
		req  RunRequest
		want string
	}{
		{RunRequest{Config: "nope", Bench: "fft"}, "SH-STT-CC-Oracle"},
		{RunRequest{Config: "SH-STT", Bench: "nope"}, "raytrace"},
		{RunRequest{Config: "SH-STT", Bench: "fft", Scale: "nope"}, "small, medium, large"},
		{RunRequest{Config: "SH-STT", Bench: "fft",
			Faults: &FaultSpec{STTWriteFail: 0.1, ECC: "nope"}}, "ECC"},
	}
	for _, c := range cases {
		err := c.req.Normalize()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Normalize(%+v) error %v does not list %q", c.req, err, c.want)
		}
	}
}

func TestSweepNormalize(t *testing.T) {
	t.Parallel()
	s := SweepRequest{Points: []RunRequest{{Config: "sh-stt", Bench: "fft"}}}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Points[0].Config != "SH-STT" {
		t.Fatalf("sweep point not normalized: %+v", s.Points[0])
	}
	for _, bad := range []SweepRequest{
		{},
		{Preset: "fig9", Points: []RunRequest{{Config: "SH-STT", Bench: "fft"}}},
		{Preset: "nope"},
	} {
		if err := bad.Normalize(); err == nil {
			t.Errorf("invalid sweep %+v accepted", bad)
		}
	}
	if err := (&SweepRequest{Preset: "fig9"}).Normalize(); err != nil {
		t.Fatal(err)
	}
}

// TestResolveMatchesCLISemantics: a minimal request resolves to the
// same options respin-sim's flag defaults produce.
func TestResolveMatchesCLISemantics(t *testing.T) {
	t.Parallel()
	req := RunRequest{Config: "SH-STT", Bench: "fft"}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	cfg, opts, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ClusterSize != 16 || cfg.Kind.String() != "SH-STT" {
		t.Fatalf("resolved config = %+v", cfg)
	}
	if opts.QuotaInstr != sim.DefaultQuota || opts.Seed != 1 {
		t.Fatalf("resolved options = %+v", opts)
	}
	if opts.Endurance.Enabled() {
		t.Fatal("endurance enabled without a spec")
	}
}

// TestWearOutRoundTrip: a StatusWearOut envelope — the recorded
// outcome of an endurance run that exhausted an array — survives
// encode → strict decode → encode byte-identically, with the status,
// the diagnostic, and the partial result (lifetime report included)
// intact, so a client reads a served wear-out back as it was recorded.
func TestWearOutRoundTrip(t *testing.T) {
	t.Parallel()
	req := RunRequest{Config: "SH-STT", Bench: "fft", Quota: 30_000,
		Endurance: &EnduranceSpec{Budget: 4, Sigma: 0.1}}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	doc := execute(t, req)
	if doc.Status != StatusWearOut {
		t.Fatalf("status = %q, want %q", doc.Status, StatusWearOut)
	}
	if !strings.Contains(doc.Detail, "end of life") {
		t.Fatalf("detail %q lacks the wear-out diagnostic", doc.Detail)
	}
	if len(doc.Result) == 0 {
		t.Fatal("wear-out envelope dropped the partial result")
	}

	first, err := EncodeBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeRunResult(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Status != StatusWearOut || decoded.Detail != doc.Detail {
		t.Fatalf("decoded wear-out drifted: %q %q", decoded.Status, decoded.Detail)
	}
	second, err := EncodeBytes(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("round-tripped wear-out envelope is not byte-identical")
	}
}

// TestEncodeSweepMatchesStructEncoding: a sweep built from encoded
// results is byte-identical to encoding the SweepResult of the decoded
// documents — complete, partial and error entries, including characters
// the encoder escapes.
func TestEncodeSweepMatchesStructEncoding(t *testing.T) {
	t.Parallel()
	req := goldenReq(t)
	partial, err := NewResult(req, sim.Result{}, context.Canceled)
	if err != nil {
		t.Fatal(err)
	}
	results := []RunResult{
		execute(t, req),
		partial,
		ErrorResult(req, errors.New(`bad <point> & "quote" é`)),
	}
	bodies := make([][]byte, len(results))
	for i, doc := range results {
		if bodies[i], err = EncodeBytes(doc); err != nil {
			t.Fatal(err)
		}
	}
	want, err := EncodeBytes(SweepResult{SchemaVersion: SchemaVersion, Results: results})
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeSweep(bodies)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeSweep differs from the struct encoding:\n%s\nwant:\n%s", got, want)
	}
}
