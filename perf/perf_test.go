package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// toySizes shrinks every op so the whole suite stays within seconds.
var toySizes = sizes{
	deepSharedQuota:  2_000,
	deepPrivateQuota: 2_000,
	reproQuota:       1_000,
	reproTraceQuota:  2_000,
	serveQuota:       2_000,
	hotKeys:          4,
	journalKeys:      2,
	serveSetups:      2,
	probeQuota:       2_000,
	probeCalls:       2_000,
}

func toyRun(t *testing.T, name string, tr *tracer) *run {
	t.Helper()
	return newRun(name, 3, 100*time.Millisecond, toySizes, t.TempDir(), tr, nil)
}

func TestWorkloadsAtToySize(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := toyRun(t, w.name, nil)
			if err := w.run(context.Background(), r); err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("%d of %d ops failed: %v", r.failed, r.attempted, r.notes)
			}
			res := newResult(endToEnd, r.endToEndValues(), r)
			for _, d := range endToEnd {
				if v := res.Metrics[d.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want a positive measurement", d.Name, v)
				}
			}
			if len(r.digests) == 0 {
				t.Error("no output digest recorded")
			}
		})
	}
}

func TestTracedPass(t *testing.T) {
	w, _ := workloadByName("serve-hot")
	o := options{seed: 3, budget: 300 * time.Millisecond, sz: toySizes, work: t.TempDir(), traceDir: t.TempDir()}
	res, err := tracedRun(context.Background(), w, o, io.Discard, map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced pass failed %d of %d ops", res.Failed, res.Attempted)
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("per-layer metric %s missing", d.Name)
		}
	}
	if res.Metrics["serve.handler_ms"].Value <= 0 || res.Metrics["runner.cache_hits"].Value <= 0 {
		t.Errorf("serve-hot traced pass measured no handler time or cache hits: %+v", res.Metrics)
	}
	var layers struct {
		Metrics map[string]metricValue `json:"metrics"`
		Spans   map[string]spanStat    `json:"spans"`
	}
	data, err := os.ReadFile(o.traceDir + "/layers.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &layers); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"client.request", "serve.handler", "v1.decode"} {
		if layers.Spans[name].Count == 0 {
			t.Errorf("layers.json has no %s spans", name)
		}
	}
	spans, err := os.ReadFile(o.traceDir + "/spans.jsonl")
	if err != nil || bytes.Count(spans, []byte("\n")) == 0 {
		t.Fatalf("spans.jsonl empty: %v", err)
	}
}

// flipDigit corrupts one digit of every response body it carries, so
// the JSON still decodes but the bytes differ.
type flipDigit struct{ base http.RoundTripper }

func (f flipDigit) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if i := bytes.LastIndexAny(data, "123456789"); i >= 0 {
		data[i] = '0'
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	return resp, nil
}

func TestFlippedByteIsAFailure(t *testing.T) {
	ctx := context.Background()
	r := toyRun(t, "serve-hot", nil)
	s, err := newServeRun(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := startService("", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.close()
	good := newClient(svc.url, nil)
	defer good.close()
	miss := s.prime(ctx, good, 1)
	if r.failed != 0 {
		t.Fatalf("priming failed: %v", r.notes)
	}
	r.record(s.hit(ctx, good, "hit-good", s.q.body(0), miss[0]))
	if r.failed != 0 {
		t.Fatalf("an intact hit counted as a failure: %v", r.notes)
	}
	bad := newClient(svc.url, nil)
	bad.hc.Transport = flipDigit{bad.tr}
	defer bad.close()
	r.record(s.hit(ctx, bad, "hit-flipped", s.q.body(0), miss[0]))
	if r.failed != 1 {
		t.Fatalf("flipped body: %d failures, want 1", r.failed)
	}
	if res := newResult(endToEnd, r.endToEndValues(), r); res.Correct {
		t.Fatal("a run with a flipped body reported correct")
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		p, ok := tailPercentile(n)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		beyond := func(p float64) int {
			return n - sort.SearchFloat64s(xs, math.Nextafter(quantile(xs, p), math.Inf(1)))
		}
		want := 0.90
		if beyond(0.99) >= minBeyond {
			want = 0.99
		}
		if p != want || ok != (beyond(p) >= minBeyond) {
			t.Fatalf("n=%d: got p%.0f ok=%v; p99 has %d samples beyond, p90 %d", n, 100*p, ok, beyond(0.99), beyond(0.90))
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	// op: 100 minus the union [10,50] + [90,100] of its children.
	want := map[uint64]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimeOfRecordedSpans(t *testing.T) {
	tr := newTracer()
	r := toyRun(t, "deep-shared", tr)
	w, _ := workloadByName("deep-shared")
	if err := w.run(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	spans := tr.snapshot()
	self := selfTimes(spans)
	kids := make(map[uint64]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range spans {
		// Children of a deep op run one after another inside it.
		if got, want := self[s.ID], s.End-s.Start-kids[s.ID]; got != want {
			t.Errorf("%s: self %d, want duration minus children %d", s.Name, got, want)
		}
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	for _, tab := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(tab.got) != len(tab.want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", tab.name, len(tab.got), len(tab.want))
		}
		for i := range tab.want {
			if tab.got[i] != tab.want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, harness %+v", tab.name, i, tab.got[i], tab.want[i])
			}
		}
	}
	if !strings.Contains(strings.Join(b.Command, " "), "perf/run.sh") {
		t.Errorf("command %v does not run perf/run.sh", b.Command)
	}
}

func TestGoldenCoversEveryWorkload(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		prefix := w.name + "/"
		if strings.HasPrefix(w.name, "serve-") {
			prefix = "serve/"
		}
		found := false
		for k := range g {
			found = found || (strings.HasPrefix(k, prefix) && strings.Contains(k, "/seed1"))
		}
		if !found {
			t.Errorf("no seed-1 golden digest for %s", w.name)
		}
	}
}
