package experiments

import (
	"fmt"

	"respin/internal/config"
	"respin/internal/report"
	"respin/internal/trace"
)

// WorkloadRow characterises one benchmark as observed on the baseline.
type WorkloadRow struct {
	Bench     string
	Suite     string
	MemRatio  float64
	WriteFrac float64
	ShareFrac float64
	Barriers  string
	// Measured on PR-SRAM-NT (medium):
	ChipIPC     float64
	L1DMissRate float64
}

// WorkloadTableResult is the methodology table describing the synthetic
// SPLASH-2/PARSEC workload models and their measured behaviour.
type WorkloadTableResult struct{ Rows []WorkloadRow }

// WorkloadTable characterises every benchmark (profile parameters plus
// baseline-measured IPC and L1D miss rate).
func (r *Runner) WorkloadTable() WorkloadTableResult {
	r.Prefetch(r.workloadRuns()...)
	var out WorkloadTableResult
	for _, bench := range r.Benches {
		p := trace.MustByName(bench)
		res := r.medium(config.PRSRAMNT, bench)
		barriers := "none"
		if p.BarrierInterval > 0 {
			barriers = fmt.Sprintf("every %dk instr", p.BarrierInterval/1000)
		}
		out.Rows = append(out.Rows, WorkloadRow{
			Bench: bench, Suite: p.Suite,
			MemRatio: p.MemRatio, WriteFrac: p.WriteFrac, ShareFrac: p.ShareFrac,
			Barriers:    barriers,
			ChipIPC:     res.IPC(),
			L1DMissRate: res.L1DMissRate,
		})
	}
	return out
}

// Render formats the table.
func (w WorkloadTableResult) Render() string {
	t := report.NewTable(
		"Workload models (parameters + behaviour measured on PR-SRAM-NT, medium)",
		"benchmark", "suite", "mem/instr", "writes", "shared", "barriers", "chip IPC", "L1D miss")
	for _, r := range w.Rows {
		t.AddRow(r.Bench, r.Suite,
			fmt.Sprintf("%.2f", r.MemRatio),
			report.PctU(r.WriteFrac), report.PctU(r.ShareFrac),
			r.Barriers,
			fmt.Sprintf("%.2f", r.ChipIPC),
			report.PctU(r.L1DMissRate))
	}
	return t.String()
}
