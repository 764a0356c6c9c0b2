package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"respin/internal/cluster.(*Cluster).Tick":          "cluster",
		"respin/internal/api/v1.NewResult":                 "api_v1",
		"respin/internal/stats.(*Histogram).Observe":       "other",
		"encoding/json.(*encodeState).marshal":             "encoding",
		"encoding/gob.(*Encoder).encode":                   "encoding",
		"crypto/sha256.block":                              "crypto",
		"net/http.(*conn).serve":                           "net",
		"net.(*conn).Read":                                 "net",
		"runtime.mallocgc":                                 "runtime",
		"internal/runtime/atomic.(*Uint32).Load":           "runtime",
		"slices.partitionCmpFunc[go.shape.struct { a.b }]": "other",
		"main.main": "other",
		"":          "other",
	} {
		if got := bucket(fn); got != want {
			t.Errorf("bucket(%q) = %s, want %s", fn, got, want)
		}
	}
}

// TestSelfSharesOfGeneratedProfile profiles a loop that spends its time
// hashing, then checks the decoder attributes that time to crypto.
func TestSelfSharesOfGeneratedProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	data := make([]byte, 1<<20)
	for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); {
		sum := sha256.Sum256(data)
		data[0] = sum[0]
	}
	pprof.StopCPUProfile()
	shares, err := selfShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, b := range selfPackages {
		total += shares[b]
	}
	if len(shares) != len(selfPackages) || math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares over %d buckets sum to %v: %v", len(shares), total, shares)
	}
	if shares["crypto"] < 0.5 {
		t.Errorf("hashing loop: crypto share %.2f, want most of the profile: %v", shares["crypto"], shares)
	}
}

func TestSelfSharesRejectsTruncatedProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	pprof.StopCPUProfile()
	raw := buf.Bytes()
	if _, err := selfShares(raw); err != nil {
		t.Fatalf("empty profile: %v", err)
	}
	if _, err := selfShares(raw[:len(raw)/2]); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}
