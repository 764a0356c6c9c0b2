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

	"respin/internal/sim"
	"respin/internal/telemetry"
)

// FuzzDecodeRunRequest: the strict request decoder never panics, and a
// request it accepts re-decodes from its canonical encoding to the same
// identity.
func FuzzDecodeRunRequest(f *testing.F) {
	for _, seed := range []string{
		`{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","quota":2000}`,
		`{"schema_version":"respin/v1","config":"sh-stt-cc","bench":"radix","scale":"LARGE","cluster":8,"workers":1,
		  "faults":{"stt_write_fail":0.001,"ecc":"dected","kill_cores":2},"endurance":{"budget":4,"sigma":0.1}}`,
		`{"schema_version":"respin/v1","config":"PR-SRAM-NT","bench":"ocean","faults":{"sram_bitflip":-1},"timeout_ms":30}`,
		`{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","faults":{"seed":7,"ecc":"none"},"endurance":{}}`,
		`{"config":"SH-STT","bench":"fft"}`,
		`{"schema_version":"respin/v1","config":"SH-STT","bench":"fft"} {}`,
		`{"schema_version":"respin/v1","config":"SH-STT","bench":"fft"}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRunRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc, err := EncodeBytes(req)
		if err != nil {
			t.Fatalf("encode a decoded request: %v", err)
		}
		again, err := DecodeRunRequest(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decode %s: %v", enc, err)
		}
		if again.Key() != req.Key() {
			t.Fatalf("key changed across encode/decode:\n%s\n%s", req.Key(), again.Key())
		}
	})
}

// FuzzDecodeSweepRequest: the strict sweep decoder never panics, and
// every point of a sweep it accepts round-trips through its canonical
// encoding to the same identity — both as a point of the re-decoded
// sweep and on its own as a /v1/run request.
func FuzzDecodeSweepRequest(f *testing.F) {
	for _, seed := range []string{
		`{"schema_version":"respin/v1","preset":"fig9"}`,
		`{"schema_version":"respin/v1","preset":"eval"}`,
		`{"schema_version":"respin/v1","points":[{"config":"SH-STT","bench":"fft","quota":2000},
		  {"schema_version":"respin/v1","config":"pr-sram-nt","bench":"ocean","cluster":4,"workers":4,
		   "faults":{"sram_bitflip":-1,"ecc":"parity","halt_uncorrectable":true}}]}`,
		`{"schema_version":"respin/v1","points":[{"config":"SH-STT-CC","bench":"radix","endurance":{"budget":4}}]}`,
		`{"schema_version":"respin/v1","preset":"fig9","points":[{"config":"SH-STT","bench":"fft"}]}`,
		`{"schema_version":"respin/v1","points":[{"config":"SH-STT","bench":"fft","workers":-1}]}`,
		`{"schema_version":"respin/v1","points":[]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sreq, err := DecodeSweepRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc, err := EncodeBytes(sreq)
		if err != nil {
			t.Fatalf("encode a decoded sweep: %v", err)
		}
		again, err := DecodeSweepRequest(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decode %s: %v", enc, err)
		}
		if again.Preset != sreq.Preset || len(again.Points) != len(sreq.Points) {
			t.Fatalf("sweep changed across encode/decode:\n%+v\n%+v", sreq, again)
		}
		for i, p := range sreq.Points {
			if again.Points[i].Key() != p.Key() {
				t.Fatalf("point %d key changed across sweep encode/decode:\n%s\n%s", i, p.Key(), again.Points[i].Key())
			}
			penc, err := EncodeBytes(p)
			if err != nil {
				t.Fatalf("encode point %d: %v", i, err)
			}
			single, err := DecodeRunRequest(bytes.NewReader(penc))
			if err != nil {
				t.Fatalf("point %d does not decode as a run request: %v\n%s", i, err, penc)
			}
			if single.Key() != p.Key() {
				t.Fatalf("point %d key changed as a run request:\n%s\n%s", i, p.Key(), single.Key())
			}
		}
	})
}

// FuzzDecodeRunResult: the strict result decoder, which reads a served
// body back, never panics, and a result it accepts re-decodes from its
// canonical encoding to an equal document.
func FuzzDecodeRunResult(f *testing.F) {
	// Small seeds in the golden document's shape: a seed the size of a
	// real body (40+ KB) slows the fuzzer's minimization to a crawl.
	f.Add([]byte(`{
  "schema_version": "respin/v1",
  "request": {"schema_version": "respin/v1", "config": "SH-STT", "bench": "fft", "scale": "medium", "cluster": 16, "quota": 2000, "seed": 1},
  "status": "complete",
  "result": {"config": {"kind": "SH-STT", "cluster_size": 16}, "cycles": 12345, "energy_pj": 1.5e6,
    "metrics": {"metrics": [{"name": "sim.ff.jumps", "kind": "counter", "value": 3}]}}
}
`))
	f.Add([]byte(`{"schema_version":"respin/v1","request":{"schema_version":"respin/v1","config":"SH-STT","bench":"fft",
		"faults":{"seed":2,"stt_write_fail":0.001,"ecc":"SECDED"},"endurance":{"budget":4,"sigma":0.1}},
		"status":"wear-out","detail":"endurance: l3 set 7 end of life at cycle 900","result":{"cycles":900}}`))
	f.Add([]byte(`{"schema_version":"respin/v1","request":{"schema_version":"respin/v1","config":"SH-STT","bench":"fft"},
		"status":"partial","detail":"context canceled","result":{"cycles":1,"bench":"<fft>"}}`))
	f.Add([]byte(`{"schema_version":"respin/v1","request":{"faults":{}},"status":"error","error":"boom","result":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := DecodeRunResult(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc, err := EncodeBytes(doc)
		if err != nil {
			t.Fatalf("encode a decoded result: %v", err)
		}
		again, err := DecodeRunResult(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !sameResult(t, doc, again) {
			t.Fatalf("result changed across encode/decode:\n%+v\n%+v", doc, again)
		}
	})
}

// FuzzDecodeRunResultMatchesReference: DecodeRunResult, canonical fast
// path included, gives the encoding/json reference decode's answer for
// every input: the same acceptance, the same error text, and the same
// envelope with equal Result bytes.
func FuzzDecodeRunResultMatchesReference(f *testing.F) {
	// Small seeds (the golden body stalls the fuzzer): one canonical
	// body per status, then spellings the fast path must decline.
	req := RunRequest{SchemaVersion: SchemaVersion, Config: "SH-STT", Bench: "fft", Scale: "medium",
		Cluster: 16, Quota: 2000, Seed: 1}
	payload := json.RawMessage(`{"config":{"kind":"SH-STT"},"cycles":12345,"ipc":5.3,"energy_pj":1.5e6,` +
		`"read_core_cycles":{"buckets":[0,22121,347],"mean":-0.25},"bench":"fft","tags":[true,false,null,"a\"\u00e9"]}`)
	for _, doc := range []RunResult{
		{SchemaVersion: SchemaVersion, Request: req, Status: StatusComplete, Result: payload},
		{SchemaVersion: SchemaVersion, Request: req, Status: StatusPartial, Detail: "context canceled", Result: payload},
		{SchemaVersion: SchemaVersion, Request: req, Status: StatusWearOut,
			Detail: "endurance: array l3 set 7 lost its last way at cycle 900 (end of life)", Result: payload},
		ErrorResult(req, errors.New("sim: no such benchmark")),
	} {
		body, err := EncodeBytes(doc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	const env = `{"schema_version":"respin/v1","request":{"config":"SH-STT","bench":"fft"},"status":"complete",`
	for _, seed := range []string{
		`{"schema_version":"respin/v1","request":{"config":"SH-STT"},"Status":"complete","result":{}}`,
		`{"schema_version":"respin/v1","request":{"config":"SH-STT"},"status":"compl\u0065te","result":{}}`,
		`{"schema_version":"respin/v1","status":"partial","status":"complete","result":{}}`,
		env + `"result":null}`,
		env + `"result":[]}`,
		env + `"result":{"a":-0,"b":1E+3,"c":0.5e-7}}`,
		env + `"result":{"a":01}}`,
		env + `"result":{"a":-}}`,
		env + `"result":[1.]}`,
		env + `"result":[2e+]}`,
		env + `"result":["\u12g4"]}`,
		env + "\"result\":{\"a\":\"raw\ttab\"}}",
		env + `"result":` + strings.Repeat(`[{"a":`, 40) + `1` + strings.Repeat(`}]`, 40) + `}`,
		env + `"result":{}}}`,
		env + `"result":{}} ]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := DecodeRunResult(bytes.NewReader(data))
		want, wantErr := decodeRunResultReference(bytes.NewReader(data))
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("error %v, reference error %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded\n%+v\nreference decoded\n%+v", got, want)
		}
	})
}

// sameResult compares two decoded results: every envelope field equal,
// and the raw Result payloads equal as JSON values (encoding compacts
// and HTML-escapes the payload, so its bytes may differ).
func sameResult(t *testing.T, a, b RunResult) bool {
	t.Helper()
	pa, pb := jsonValue(t, a.Result), jsonValue(t, b.Result)
	a.Result, b.Result = nil, nil
	return reflect.DeepEqual(a, b) && reflect.DeepEqual(pa, pb)
}

func jsonValue(t *testing.T, raw json.RawMessage) any {
	t.Helper()
	if raw == nil {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("decode result payload: %v", err)
	}
	return v
}

// goldenBody returns the checked-in canonical RunResult encoding.
func goldenBody(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "run_result.golden.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// BenchmarkEncodeResult times what serving a miss costs on top of the
// simulation: NewResult plus the canonical encoding of the golden
// request's result.
func BenchmarkEncodeResult(b *testing.B) {
	req := RunRequest{Config: "SH-STT", Bench: "fft", Quota: 2_000}
	if err := req.Normalize(); err != nil {
		b.Fatal(err)
	}
	cfg, opts, err := req.Resolve()
	if err != nil {
		b.Fatal(err)
	}
	opts.Telemetry = telemetry.New()
	res, runErr := sim.RunContext(context.Background(), cfg, req.Bench, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := NewResult(req, res, runErr)
		if err != nil {
			b.Fatal(err)
		}
		data, err := EncodeBytes(doc)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}

// BenchmarkDecodeRunResult times the strict decode of the golden
// RunResult, the decode a client of the service runs on each body.
func BenchmarkDecodeRunResult(b *testing.B) {
	data := goldenBody(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRunResult(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeRunResultFallback times a body the fast path declines:
// the golden RunResult with one upper-case key, which the reference
// decode accepts. It costs one fast-path attempt on top of the
// reference decode.
func BenchmarkDecodeRunResultFallback(b *testing.B) {
	data := bytes.Replace(goldenBody(b), []byte(`"status":`), []byte(`"Status":`), 1)
	if _, ok := decodeCanonicalResult(data); ok {
		b.Fatal("the upper-case key took the fast path")
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRunResult(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
