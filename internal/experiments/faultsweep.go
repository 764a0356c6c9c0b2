package experiments

import (
	"fmt"

	"respin/internal/config"
	"respin/internal/faults"
	"respin/internal/reliability"
	"respin/internal/report"
	"respin/internal/sim"
)

// FaultRow is one point of the resilience study.
type FaultRow struct {
	Label string
	// Injection knobs for this point.
	STTWriteFailProb float64
	KillPerCluster   int
	SRAMFromRail     bool
	// Measured outcome.
	Cycles    uint64
	Slowdown  float64 // time vs the same config fault-free
	EnergyRel float64 // energy vs the same config fault-free
	Counts    faults.Counts
	DeadCores int
}

// FaultStudy is the fault-injection resilience sweep: how gracefully the
// shared-STT design degrades under stochastic write failures, how the
// near-threshold SRAM baseline behaves under voltage-induced read upsets
// with SECDED, and how the VCM's consolidation remapper survives hard
// core-kill faults.
type FaultStudy struct {
	Bench string
	Rows  []FaultRow
}

// FaultSweep runs the resilience study on one representative benchmark.
// Three sweeps share the table:
//
//   - STT write-fail rates on SH-STT: every failed verify re-arbitrates
//     through the L1 controller (or retries in the L2/L3 array), so time
//     and energy rise smoothly with the rate and nothing deadlocks;
//   - rail-derived SRAM read upsets on PR-SRAM-NT with SECDED: flips are
//     corrected on the fly and counted;
//   - hard core-kill faults on SH-STT-CC: n of every cluster's 16 cores
//     die at cycle 20k and the VCM remaps their threads onto survivors.
func (r *Runner) FaultSweep() *FaultStudy {
	bench := r.Benches[0]
	if contains(r.Benches, "radix") {
		bench = "radix"
	}
	st := &FaultStudy{Bench: bench}
	run := func(tag string, kind config.ArchKind, fp faults.Params) Run {
		return Run{
			Label:  fmt.Sprintf("fault.%s.%v.%s", tag, kind, bench),
			Config: config.New(kind, config.Medium),
			Bench:  bench,
			Opts:   sim.Options{QuotaInstr: r.Quota, Seed: r.Seed, Faults: fp},
		}
	}
	probs := []float64{1e-4, 1e-3, 1e-2}
	kills := []int{2, 4, 6}

	// The whole sweep is one batch, in table order: SH-STT clean and
	// per write-fail rate, PR-SRAM-NT clean and with rail upsets, then
	// SH-STT-CC clean and per kill count.
	runs := []Run{run("clean", config.SHSTT, faults.Params{})}
	for _, p := range probs {
		runs = append(runs, run(fmt.Sprintf("stt-%g", p), config.SHSTT,
			faults.Params{Seed: r.faultSeed(), STTWriteFailProb: p}))
	}
	sramAt := len(runs)
	runs = append(runs,
		run("clean", config.PRSRAMNT, faults.Params{}),
		run("sram-rail", config.PRSRAMNT,
			faults.Params{Seed: r.faultSeed(), SRAMBitFlipPerCell: -1, ECC: reliability.SECDED}))
	killAt := len(runs)
	runs = append(runs, run("clean", config.SHSTTCC, faults.Params{}))
	for _, n := range kills {
		runs = append(runs, run(fmt.Sprintf("kill-%d", n), config.SHSTTCC, faults.Params{
			Seed:  r.faultSeed(),
			Kills: faults.KillFirstN(config.New(config.SHSTTCC, config.Medium).NumClusters(), n, 20_000),
		}))
	}
	res := r.must(runs...)

	// STT write failures (SH-STT, no consolidation: isolates the
	// retry cost).
	clean := res[0]
	st.addRow("SH-STT clean", clean, clean, 0, 0, false)
	for i, p := range probs {
		st.addRow(fmt.Sprintf("SH-STT write-fail %g", p), res[1+i], clean, p, 0, false)
	}

	// Near-threshold SRAM read upsets, SECDED-corrected (PR-SRAM-NT is
	// the paper's unreliable-at-NT baseline; its rail-derived cell
	// upset rate is what motivates the dual-rail design).
	st.addRow("PR-SRAM-NT rail upsets+SECDED", res[sramAt+1], res[sramAt], 0, 0, true)

	// Core kills (SH-STT-CC: the consolidation remapper doubles as the
	// graceful-degradation mechanism).
	killClean := res[killAt]
	st.addRow("SH-STT-CC clean", killClean, killClean, 0, 0, false)
	for i, n := range kills {
		st.addRow(fmt.Sprintf("SH-STT-CC kill %d/16 cores", n), res[killAt+1+i], killClean, 0, n, false)
	}
	return st
}

func (r *Runner) faultSeed() int64 {
	if r.FaultSeed != 0 {
		return r.FaultSeed
	}
	return 1
}

func (st *FaultStudy) addRow(label string, res, clean sim.Result, p float64, kills int, fromRail bool) {
	row := FaultRow{
		Label:            label,
		STTWriteFailProb: p,
		KillPerCluster:   kills,
		SRAMFromRail:     fromRail,
		Cycles:           res.Cycles,
		Counts:           res.Faults,
		DeadCores:        res.DeadCores,
	}
	if clean.Cycles > 0 {
		row.Slowdown = float64(res.Cycles) / float64(clean.Cycles)
	}
	if clean.EnergyPJ > 0 {
		row.EnergyRel = res.EnergyPJ / clean.EnergyPJ
	}
	st.Rows = append(st.Rows, row)
}

// Render prints the degradation report.
func (st *FaultStudy) Render() string {
	t := report.NewTable(
		fmt.Sprintf("Fault injection & resilience (%s, medium)", st.Bench),
		"scenario", "time", "energy", "wr retries", "wr aborts",
		"ecc corr", "ecc uncorr", "dead cores")
	for _, row := range st.Rows {
		t.AddRow(row.Label,
			fmt.Sprintf("%.3fx", row.Slowdown),
			fmt.Sprintf("%.3fx", row.EnergyRel),
			fmt.Sprintf("%d", row.Counts.STTWriteRetries),
			fmt.Sprintf("%d", row.Counts.STTWriteAborts),
			fmt.Sprintf("%d", row.Counts.SRAMCorrected),
			fmt.Sprintf("%d", row.Counts.SRAMUncorrectable),
			fmt.Sprintf("%d", row.DeadCores))
	}
	return t.String()
}
