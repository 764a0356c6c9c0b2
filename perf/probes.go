package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	v1 "respin/internal/api/v1"
	"respin/internal/cluster"
	"respin/internal/coherence"
	"respin/internal/config"
	"respin/internal/cpu"
	"respin/internal/mem"
	"respin/internal/power"
	"respin/internal/sharedcache"
	"respin/internal/sim"
	"respin/internal/telemetry"
	"respin/internal/trace"
	"respin/internal/variation"
)

// journalEvery mirrors respin-serve's default journal checkpoint
// cadence in simulated cycles.
const journalEvery = 20_000

// probeReps is how many times each millisecond-scale probe repeats; the
// median is reported.
const probeReps = 5

// layerProbes times each layer's public API on the workload's probe
// simulation (its configuration, benchmark and seed at the probe quota)
// and returns the per-layer metrics they define.
func layerProbes(ctx context.Context, req v1.RunRequest, sz sizes, work string) (map[string]float64, error) {
	req.Quota = sz.probeQuota
	if err := req.Normalize(); err != nil {
		return nil, err
	}
	cfg, opts, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)

	// sim: construction and the run loop, with the metrics collector
	// the service attaches (it only observes).
	var construct, runNS []float64
	var s *sim.Sim
	var res sim.Result
	for i := 0; i < probeReps; i++ {
		opts.Telemetry = telemetry.New()
		t0 := time.Now()
		if s, err = sim.New(cfg, req.Bench, opts); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if res, err = s.RunContext(ctx); err != nil {
			return nil, err
		}
		construct = append(construct, ms(t1.Sub(t0)))
		runNS = append(runNS, float64(time.Since(t1)))
	}
	run := summarize(runNS).Median
	epochs := res.Metrics.Value("sim.sched.epochs")
	out["sim.construct_ms"] = summarize(construct).Median
	out["sim.ns_per_instr"] = run / float64(res.Instructions)
	out["sim.ns_per_epoch"] = run / epochs
	out["sim.epochs"] = epochs
	out["sim.drained_requests"] = res.Metrics.Value("sim.sched.drained_requests")
	out["sim.ff_skipped_frac"] = res.Metrics.Value("sim.ff.skipped_cycles") / float64(res.Cycles)

	// checkpoint: one snapshot of the finished chip, as the journal
	// writes every journalEvery cycles.
	path := filepath.Join(work, fmt.Sprintf("probe-%d.ckpt", os.Getpid()))
	defer os.Remove(path)
	save, err := repeatMS(func() error { return s.WriteCheckpoint(path, res.Cycles) })
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	out["checkpoint.save_ms"] = save
	out["checkpoint.mb"] = float64(fi.Size()) / (1 << 20)
	out["checkpoint.writes"] = float64(res.Cycles / journalEvery)

	// v1: the envelope every surface encodes and every client decodes.
	var body []byte
	enc, err := repeatMS(func() error {
		body, err = encodeResult(req, res, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	dec, err := repeatMS(func() error {
		_, err := v1.DecodeRunResult(bytes.NewReader(body))
		return err
	})
	if err != nil {
		return nil, err
	}
	out["v1.encode_ms"] = enc
	out["v1.decode_ms"] = dec
	out["v1.body_kb"] = float64(len(body)) / 1024

	if err := probeServe(ctx, req, sz, out); err != nil {
		return nil, err
	}

	prof, err := trace.ByName(req.Bench)
	if err != nil {
		return nil, err
	}
	n := sz.probeCalls
	out["cluster.tick_ns"] = probeCluster(cfg, prof, req.Seed, sz.probeQuota)
	out["cpu.step_ns"] = probeCPU(prof, req.Seed, n)
	out["sharedcache.tick_ns"], out["sharedcache.half_miss_frac"] = probeSharedCache(cfg, prof, req.Seed, n)
	out["coherence.access_ns"] = probeCoherence(cfg, prof, req.Seed, n)
	out["mem.access_ns"], out["mem.l1d_miss_frac"] = probeMem(cfg, prof, req.Seed, n)
	out["trace.next_ns"] = probeTrace(prof, req.Seed, n)
	return out, nil
}

// repeatMS runs fn probeReps times and returns its median duration.
func repeatMS(fn func() error) (float64, error) {
	var d []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d = append(d, ms(time.Since(t0)))
	}
	return summarize(d).Median, nil
}

// probeServe serves the probe request once (a miss) and then as
// sequential hits, timing the handler and the client around it.
func probeServe(ctx context.Context, req v1.RunRequest, sz sizes, out map[string]float64) error {
	tr := newTracer()
	svc, err := startService("", tr)
	if err != nil {
		return err
	}
	c := newClient(svc.url, tr)
	body, err := v1.EncodeBytes(req)
	if err == nil {
		for i := 0; i <= max(sz.probeCalls/200, 20) && err == nil; i++ {
			_, _, err = c.post(ctx, fmt.Sprintf("probe-%d", i), body)
		}
	}
	var doc v1.MetricsDoc
	if err == nil {
		err = getJSON(ctx, c, svc.url+"/v1/metrics", &doc)
	}
	c.close()
	if cerr := svc.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	client := make(map[string]int64)
	var handler, transport []float64
	spans := tr.snapshot()
	for _, s := range spans {
		if s.Name == "client.request" && s.Req != "probe-0" {
			client[s.Req] = s.End - s.Start
		}
	}
	for _, s := range spans {
		if total, ok := client[s.Req]; ok && s.Name == "serve.handler" {
			handler = append(handler, float64(s.End-s.Start)/1e6)
			transport = append(transport, float64(total-(s.End-s.Start))/1e6)
		}
	}
	out["serve.handler_ms"] = summarize(handler).Median
	out["serve.transport_ms"] = summarize(transport).Median
	out["serve.rejected"] = doc.Metrics.Value("http.rejected")
	return nil
}

func getJSON(ctx context.Context, c *client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.Unmarshal(data, v)
}

// nsPerCall times probeReps batches of fn(n), each making n calls, and
// returns the median nanoseconds per call.
func nsPerCall(n int, fn func(n int)) float64 {
	fn(n / 10) // warm caches and lazily built state
	var per []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		fn(n)
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return summarize(per).Median
}

// events pre-generates count events per thread for threads threads of
// cluster 0, so the probes below time their layer, not the generator.
func events(prof trace.Profile, seed int64, threads, count int) [][]trace.Event {
	out := make([][]trace.Event, threads)
	for t := range out {
		g := trace.NewGen(prof, seed, t, 0)
		out[t] = make([]trace.Event, count)
		for i := range out[t] {
			out[t][i] = g.Next()
		}
	}
	return out
}

// probeTrace times trace.Gen.Next.
func probeTrace(prof trace.Profile, seed int64, n int) float64 {
	g := trace.NewGen(prof, seed, 0, 0)
	return nsPerCall(n, func(n int) {
		for i := 0; i < n; i++ {
			g.Next()
		}
	})
}

// readyMem is a memory system that accepts every request; the probe
// completes each one before the next step.
type readyMem struct{}

func (readyMem) IssueLoad(int, uint64) bool   { return true }
func (readyMem) IssueStore(int, uint64) bool  { return true }
func (readyMem) IssueIFetch(int, uint64) bool { return true }

// probeCPU times cpu.Core.Step over the workload's generator with every
// memory access answered at once.
func probeCPU(prof trace.Profile, seed int64, n int) float64 {
	core := cpu.New(0, trace.NewGen(prof, seed, 0, 0), readyMem{})
	return nsPerCall(n, func(n int) {
		for i := 0; i < n; i++ {
			core.Step()
			switch core.State() {
			case cpu.WaitLoad:
				core.CompleteLoad()
			case cpu.AtBarrier:
				core.ReleaseBarrier()
			}
			if core.FetchInFlight() {
				core.CompleteIFetch()
			}
		}
	})
}

// coreSpecs is cluster 0's share of the chip's variation map, as
// sim.New draws it.
func coreSpecs(cfg config.Config) []variation.CoreSpec {
	return variation.Generate(cfg.VariationSeed, 8, 8, cfg.CoreVdd, variation.DefaultParams()).ClusterCores(0, cfg.ClusterSize)
}

// sharedL1D is the cluster-shared L1D geometry of cfg's scale and
// cluster size; privateL1D the per-core one.
func sharedL1D(cfg config.Config) config.CacheParams {
	return config.NewWithCluster(config.SHSTT, cfg.Scale, cfg.ClusterSize).Hierarchy.L1D
}

func privateL1D(cfg config.Config) config.CacheParams {
	return config.NewWithCluster(config.PRSRAMNT, cfg.Scale, cfg.ClusterSize).Hierarchy.L1D
}

// probeSharedCache times sharedcache.Controller.Tick with one request
// stream per core: each core submits its next load or store once the
// generator's gap has elapsed at its clock multiple, and blocks on its
// loads until they are serviced.
func probeSharedCache(cfg config.Config, prof trace.Profile, seed int64, n int) (tickNS, halfMiss float64) {
	cores := cfg.ClusterSize
	specs := coreSpecs(cfg)
	evs := events(prof, seed, cores, 4096)
	ctrl := sharedcache.New(cores, sharedcache.WithSeed(seed))
	pos := make([]int, cores)
	wait := make([]uint64, cores)
	blocked := make([]bool, cores)
	tickNS = nsPerCall(n, func(n int) {
		for i := 0; i < n; i++ {
			for c := 0; c < cores; c++ {
				if blocked[c] {
					continue
				}
				if wait[c] > 0 {
					wait[c]--
					continue
				}
				ev := evs[c][pos[c]%len(evs[c])]
				mult := specs[c].Multiple
				if ev.Type == trace.Barrier || ctrl.Submit(sharedcache.Request{Core: c, Write: ev.Type == trace.Store, Multiple: mult}) {
					pos[c]++
					wait[c] = (ev.Gap/config.IssueWidth + 1) * uint64(mult)
					blocked[c] = ev.Type == trace.Load
				}
			}
			for _, s := range ctrl.Tick() {
				if !s.Req.Write {
					blocked[s.Req.Core] = false
				}
			}
		}
	})
	st := &ctrl.Stats
	return tickNS, float64(st.RequestsWithHalfMiss.Value()) / float64(max(st.Reads.Value(), 1))
}

// probeCoherence times MESI directory reads and writes of the cores'
// interleaved address streams.
func probeCoherence(cfg config.Config, prof trace.Profile, seed int64, n int) float64 {
	cores := cfg.ClusterSize
	evs := events(prof, seed, cores, 4096)
	dir := coherence.New(cores, privateL1D(cfg))
	k := 0
	return nsPerCall(n, func(n int) {
		for i := 0; i < n; i++ {
			c := k % cores
			ev := evs[c][(k/cores)%len(evs[c])]
			k++
			if ev.Type == trace.Store {
				dir.Write(c, ev.Addr)
			} else {
				dir.Read(c, ev.Addr)
			}
		}
	})
}

// probeMem times mem.Cache.Access (and Fill on a miss) on the workload's
// L1D: the shared array fed by every core of the cluster for a shared
// configuration, one core's private array otherwise.
func probeMem(cfg config.Config, prof trace.Profile, seed int64, n int) (accessNS, missFrac float64) {
	threads, geom := cfg.ClusterSize, sharedL1D(cfg)
	if cfg.L1 == config.PrivateL1 {
		threads, geom = 1, privateL1D(cfg)
	}
	evs := events(prof, seed, threads, 16384)
	c := mem.NewCache(geom)
	k := 0
	accessNS = nsPerCall(n, func(n int) {
		for i := 0; i < n; i++ {
			ev := evs[k%threads][(k/threads)%len(evs[0])]
			k++
			if ev.Type == trace.Barrier {
				continue
			}
			write := ev.Type == trace.Store
			if !c.Access(ev.Addr, write).Hit {
				c.Fill(ev.Addr, write)
			}
		}
	})
	return accessNS, c.Stats.MissRate()
}

// probeCluster drives one cluster of the configuration to completion on
// its own: L3 requests are answered after a fixed round trip and the
// global barrier is released whenever every unfinished thread of the
// cluster waits at it. It returns wall nanoseconds per Tick.
func probeCluster(cfg config.Config, prof trace.Profile, seed int64, quota uint64) float64 {
	const (
		l3RoundTrip    = 60 // cycles from L3 start to data ready
		barrierRelease = 30 // chip-wide release propagation
	)
	chip := power.NewChipWithParams(cfg, power.DefaultParams())
	specs := coreSpecs(cfg)
	var per []float64
	for rep := 0; rep < probeReps; rep++ {
		cl := cluster.New(cluster.Params{Config: cfg, Chip: chip, PCores: specs, Bench: prof, Seed: seed, QuotaInstr: quota})
		pending := false
		ticks := 0
		t0 := time.Now()
		for !cl.Done() && ticks < int(quota)*200 {
			if wake, ok := cl.NextWake(); ok && wake != cluster.NeverWake && wake > cl.Now()+1 {
				if cl.TrySkipTo(wake) == nil {
					continue
				}
			}
			cl.Tick()
			ticks++
			for i := 0; i < cl.PendingLowerLen(); i++ {
				if r := cl.LowerRequestAt(i); !r.Write {
					cl.FinishLower(i, r.Start+l3RoundTrip)
				}
			}
			cl.ResetLower()
			w, u := cl.BarrierWaiters(), cl.Unfinished()
			if !pending && u > 0 && w == u {
				cl.ScheduleBarrierRelease(cl.Now() - 1 + barrierRelease)
				pending = true
			} else if pending && w == 0 {
				pending = false
			}
		}
		per = append(per, float64(time.Since(t0))/float64(max(ticks, 1)))
	}
	return summarize(per).Median
}
