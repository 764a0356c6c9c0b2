package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"respin/internal/experiments"
)

// sizes fixes the work of one op of each workload and of the layer
// probes. The benchmark runs fullSizes; the tests run a toy size.
type sizes struct {
	deepSharedQuota  uint64 // SH-STT/fft per-thread instruction budget
	deepPrivateQuota uint64 // PR-SRAM-NT/ocean per-thread instruction budget
	reproQuota       uint64 // experiments.Runner.Quota of repro-quick
	reproTraceQuota  uint64 // experiments.Runner.TraceQuota of repro-quick
	serveQuota       uint64 // quota of every /v1/run request
	hotKeys          int    // unique keys serve-hot primes and re-requests
	journalKeys      int    // results serve-journal commits before restarting
	serveSetups      int    // service start-ups timed per serve run
	probeQuota       uint64 // quota of the layer probes' simulations
	probeCalls       int    // calls per timed batch of a layer micro-probe
}

var fullSizes = sizes{
	deepSharedQuota:  100_000,
	deepPrivateQuota: 50_000,
	reproQuota:       3_000,
	reproTraceQuota:  8_000,
	serveQuota:       10_000,
	hotKeys:          16,
	journalKeys:      8,
	serveSetups:      9,
	probeQuota:       20_000,
	probeCalls:       100_000,
}

// refChecks is how many of the serve request stream's first requests are
// also computed in-process and compared with the served bytes, which
// ties every serve workload's bodies to the simulator's own output.
const refChecks = 2

// run is one workload execution: its inputs, its samples and its
// correctness tally.
type run struct {
	name   string
	seed   int64
	budget time.Duration
	sz     sizes
	work   string  // scratch directory for journals and checkpoints
	tr     *tracer // nil when untraced
	golden map[string]string

	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string
	digests   map[string]string
	setup     []float64 // seconds per set-up
	lat       []float64 // milliseconds per op of the timed phase

	wall, cpu time.Duration // of the timed phase
	peakHeap  uint64
	rt        runtimeDelta
	runner    *experiments.Runner // whose counters the traced run reports
	tails     []float64           // repro-quick: share of each op spent in the pool's tail
}

func newRun(name string, seed int64, budget time.Duration, sz sizes, work string, tr *tracer, golden map[string]string) *run {
	return &run{name: name, seed: seed, budget: budget, sz: sz, work: work, tr: tr,
		golden: golden, digests: make(map[string]string)}
}

// op counts one attempted operation, failed when err is non-nil.
func (r *run) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.notes) < 5 {
			r.notes = append(r.notes, err.Error())
		}
	}
}

// record counts one timed operation and keeps its latency when it
// succeeded.
func (r *run) record(d time.Duration, err error) {
	if err == nil {
		r.mu.Lock()
		r.lat = append(r.lat, ms(d))
		r.mu.Unlock()
	}
	r.op(err)
}

// digest records the SHA-256 of an output under key and checks it
// against the golden digest for that key, when there is one.
func (r *run) digest(key string, data []byte) {
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	r.mu.Lock()
	r.digests[key] = got
	r.mu.Unlock()
	if want, ok := r.golden[key]; ok {
		var err error
		if got != want {
			err = fmt.Errorf("%s: output digest %s, golden %s", key, got[:12], want[:12])
		}
		r.op(err)
	}
}

// sameBytes reports a mismatch between an output and the one it must
// repeat byte for byte.
func sameBytes(what string, want, got []byte) error {
	if !bytes.Equal(want, got) {
		return fmt.Errorf("%s: %d bytes differ from the expected %d", what, len(got), len(want))
	}
	return nil
}

// timed runs the measured phase: fn gets the deadline its ops must
// respect, and the phase's wall time, CPU time, peak heap and runtime
// counters are recorded around it.
func (r *run) timed(fn func(deadline time.Time)) {
	rt0 := readRuntime()
	stop := r.sampleHeap(10 * time.Millisecond)
	cpu0 := cpuTime()
	t0 := time.Now()
	fn(t0.Add(r.budget))
	r.wall = time.Since(t0)
	r.cpu = cpuTime() - cpu0
	stop()
	r.rt = readRuntime().sub(rt0)
}

// fits reports whether another op that takes about d still ends before
// deadline.
func fits(d time.Duration, deadline time.Time) bool {
	return !time.Now().Add(d).After(deadline)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// observeHeap folds the live heap (what the last collection marked
// reachable) into the phase's peak. The live heap, unlike the heap in
// use, does not depend on how much garbage awaits the next collection.
func (r *run) observeHeap() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	r.mu.Lock()
	r.peakHeap = max(r.peakHeap, s[0].Value.Uint64())
	r.mu.Unlock()
}

// sampleHeap calls observeHeap every period until the returned stop
// function is called.
func (r *run) sampleHeap(period time.Duration) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.observeHeap()
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// runtimeDelta is the change of the Go runtime's counters over a phase.
type runtimeDelta struct {
	allocBytes float64
	gcCPU      float64 // seconds
	busyCPU    float64 // seconds of non-idle CPU the runtime accounts
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	// The CPU classes are refreshed at GC ends; collect so the reading
	// is current.
	runtime.GC()
	metrics.Read(s)
	return runtimeDelta{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		busyCPU:    s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{allocBytes: a.allocBytes - b.allocBytes, gcCPU: a.gcCPU - b.gcCPU, busyCPU: a.busyCPU - b.busyCPU}
}

// endToEndValues computes the end-to-end metrics from the run's samples.
func (r *run) endToEndValues() map[string]float64 {
	lat := sortedCopy(r.lat)
	p, _ := tailPercentile(len(lat))
	ops := float64(max(len(lat), 1))
	return map[string]float64{
		"setup_s":           summarize(r.setup).Median,
		"op_p50_ms":         quantile(lat, 0.5),
		"op_tail_ms":        quantile(lat, p),
		"ops_per_s":         float64(len(lat)) / r.wall.Seconds(),
		"cpu_ms_per_op":     ms(r.cpu) / ops,
		"peak_live_heap_mb": float64(r.peakHeap) / (1 << 20),
	}
}
