package experiments

import (
	"fmt"

	"respin/internal/report"
)

// Claim is one paper-vs-measured row of the evaluation: the paper's
// value as printed, the measured values, the format that renders them,
// and the band each value must fall in for the reproduction to hold.
// Values are in the units the row prints (percentages as percents,
// booleans as 1/0). Bands are stated at QuickRunner quota, the one the
// fidelity test runs; a wide band carries a one-line Reason.
type Claim struct {
	Artifact string    `json:"artifact"`
	Metric   string    `json:"metric"`
	Paper    string    `json:"paper"`
	Values   []float64 `json:"values"`
	// Format is a printf format with one verb per value; a %t verb
	// renders its value as a boolean (nonzero is true).
	Format string `json:"format"`
	Bands  []Band `json:"bands"`
	Reason string `json:"reason,omitempty"`
}

// Band is the closed interval a measured value must fall in.
type Band struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Measured renders the claim's values with its format.
func (c Claim) Measured() string {
	args := make([]any, len(c.Values))
	for i, v := range c.Values {
		args[i] = v
	}
	if c.Format == "%t" && len(c.Values) == 1 {
		args[0] = c.Values[0] != 0
	}
	return fmt.Sprintf(c.Format, args...)
}

// band is shorthand for a one-value band list.
func band(lo, hi float64) []Band { return []Band{{lo, hi}} }

// claimTable defines every row the evaluation can produce, keyed by
// metric, in report order: All, the consolidation traces and Ablations
// fill in the values (see claim). It is the one statement of what the
// reproduction must produce — the report, the JSON summary, the
// fidelity test and the drift gate all read it. Never widen a band to
// make a change pass: a value that leaves its band is a finding.
var claimTable = []Claim{
	{Artifact: "fig1", Metric: "NT leakage share of chip power", Paper: "~75%", Format: "%.0f%%", Bands: band(70, 90),
		Reason: "84% against ~75%: the claim held is that leakage dominates at NT"},
	{Artifact: "fig1", Metric: "NT cache share of leakage", Paper: "~50%", Format: "%.0f%%", Bands: band(35, 60)},
	{Artifact: "fig1", Metric: "nominal dynamic share", Paper: "~60%", Format: "%.0f%%", Bands: band(55, 70)},
	{Artifact: "area", Metric: "cache share of chip area, medium", Paper: "~25%", Format: "%.0f%%", Bands: band(18, 32)},
	{Artifact: "area", Metric: "cache share of chip area, large", Paper: "~50%", Format: "%.0f%%", Bands: band(35, 55),
		Reason: "Table I's doubling gives ~40%; the paper's \"approximately 50%\" is loose (area.go)"},
	{Artifact: "rails", Metric: "0.65V rail safe for all SRAM arrays (SECDED)", Paper: "yes (paper's premise)", Format: "%t", Bands: band(1, 1)},
	{Artifact: "rails", Metric: "0.4V SRAM unusable even with SECDED", Paper: "yes (paper's premise)", Format: "%t", Bands: band(1, 1)},
	{Artifact: "variation", Metric: "fmax spread at default sigma", Paper: "~2x (\"almost twice\")", Format: "%.2fx", Bands: band(1.5, 2.8)},
	{Artifact: "fig6", Metric: "SH-STT power reduction, small", Paper: "2.1%", Format: "%.1f%%", Bands: band(0, 10),
		Reason: "5.8% quick, 9.0% full against 2.1%: the claim held is that the saving grows with scale"},
	{Artifact: "fig6", Metric: "SH-STT power reduction, medium", Paper: "12.9%", Format: "%.1f%%", Bands: band(9, 18)},
	{Artifact: "fig6", Metric: "SH-STT power reduction, large", Paper: "22.1%", Format: "%.1f%%", Bands: band(18, 28)},
	{Artifact: "fig7", Metric: "SH-STT execution time vs baseline", Paper: "0.89 (11% faster)", Format: "%.3f", Bands: band(0.85, 0.93)},
	{Artifact: "fig7", Metric: "SH-STT vs SH-SRAM-Nom speed edge", Paper: "~1.2% faster", Format: "%.1f%% faster", Bands: band(0, 6),
		Reason: "4.5% quick, 4.1% full against ~1.2%: the claim held is that SH-STT is faster"},
	{Artifact: "fig8", Metric: "SH-STT energy, small/medium/large", Paper: "0.87 / ~0.77 / 0.69", Format: "%.2f / %.2f / %.2f",
		Bands: []Band{{0.80, 0.92}, {0.72, 0.82}, {0.62, 0.74}}},
	{Artifact: "fig9", Metric: "SH-STT energy", Paper: "0.77", Format: "%.2f", Bands: band(0.72, 0.82)},
	{Artifact: "fig9", Metric: "SH-SRAM-Nom energy", Paper: "1.12", Format: "%.2f", Bands: band(1.05, 1.30),
		Reason: "1.21 quick, 1.22 full against 1.12: the claim held is that nominal SRAM costs energy"},
	{Artifact: "fig9", Metric: "HP-SRAM-CMP energy", Paper: "1.40", Format: "%.2f", Bands: band(1.25, 1.65),
		Reason: "the quick subset (fft, ocean, radix, raytrace) holds HP's costliest benchmarks: 1.59 quick, 1.33 full"},
	{Artifact: "fig9", Metric: "SH-STT-CC energy", Paper: "0.67", Format: "%.2f", Bands: band(0.64, 0.78),
		Reason: "known gap: greedy consolidation saves less than the paper's (0.74 quick, 0.72 full)"},
	{Artifact: "fig9", Metric: "SH-STT-CC-Oracle energy", Paper: "0.64", Format: "%.2f", Bands: band(0.60, 0.72)},
	{Artifact: "fig9", Metric: "PR-STT-CC energy", Paper: "0.76", Format: "%.2f", Bands: band(0.70, 0.82)},
	{Artifact: "fig9", Metric: "SH-STT-CC-OS vs SH-STT", Paper: "+27%", Format: "%+.0f%%", Bands: band(5, 40),
		Reason: "+21% quick, +18% full against +27%: the claim held is that OS-interval consolidation costs energy"},
	{Artifact: "tabV-D", Metric: "optimal cluster size", Paper: "16", Format: "%.0f", Bands: band(16, 16)},
	{Artifact: "tabV-D", Metric: "time improvement at 4 cores/cluster", Paper: "~5%", Format: "%.1f%%", Bands: band(0, 9),
		Reason: "at quick quota the 4-core gain nearly vanishes (0.5%; full run 5.7%), so only its sign is held"},
	{Artifact: "tabV-D", Metric: "time improvement at 8 cores/cluster", Paper: "5-11%", Format: "%.1f%%", Bands: band(5, 11)},
	{Artifact: "tabV-D", Metric: "time improvement at 16 cores/cluster", Paper: "11%", Format: "%.1f%%", Bands: band(8, 14)},
	{Artifact: "tabV-D", Metric: "time improvement at 32 cores/cluster", Paper: "2.5%", Format: "%.1f%%", Bands: band(-12, 5),
		Reason: "known gap: 32-core clusters lose time here (-1.1% quick, -8.9% full); only the drop from 16 is held"},
	{Artifact: "fig10", Metric: "cache cycles with no request", Paper: "49%", Format: "%.0f%%", Bands: band(40, 70),
		Reason: "known gap: 63% quick, 65% full against 49%; the claim held is that the shared L1 is mostly idle"},
	{Artifact: "fig11", Metric: "reads serviced in 1 core cycle", Paper: "95.8%", Format: "%.1f%%", Bands: band(88, 98)},
	{Artifact: "fig11", Metric: "half-miss rate", Paper: "~4%", Format: "%.1f%%", Bands: band(2, 12),
		Reason: "known gap: 8.6% quick, 10.2% full; the arbitration microbenchmark reaches 2.7% (ablations)"},
	{Artifact: "fig12", Metric: "radix energy saving, greedy vs oracle", Paper: "48% / 50%", Format: "%.0f%% / %.0f%%",
		Bands:  []Band{{15, 55}, {25, 55}},
		Reason: "known gap: greedy radix saves 26% quick, 27% full against the paper's 48%"},
	{Artifact: "fig13", Metric: "lu energy saving, greedy vs oracle", Paper: "29% / 38%", Format: "%.0f%% / %.0f%%",
		Bands:  []Band{{10, 40}, {15, 45}},
		Reason: "a 120K-instruction trace spans few lu epochs: 17% / 23% quick, 32% / 35% full"},
	{Artifact: "fig14", Metric: "mean active cores per 16-core cluster", Paper: "~10", Format: "%.1f", Bands: band(8, 14)},

	// Design ablations (Ablations): the choices DESIGN.md calls out,
	// each against its alternative.
	{Artifact: "tab3", Metric: "SRAM/STT leakage ratio, 256KB @1.0V", Paper: "7.73 (881/114 mW)", Format: "%.3f", Bands: band(7.72, 7.74)},
	{Artifact: "ablation", Metric: "half-miss rate, priority arbitration", Paper: "~4%", Format: "%.2f%%", Bands: band(1, 5)},
	{Artifact: "ablation", Metric: "half-miss rate, FIFO arbitration", Paper: "above priority", Format: "%.2f%%", Bands: band(2, 8)},
	{Artifact: "ablation", Metric: "SH-STT-CC energy vs SH-STT, epoch 40K/160K/640K", Paper: "160K chosen", Format: "%.4f / %.4f / %.4f",
		Bands: []Band{{0.75, 0.95}, {0.85, 1}, {0.9, 1.05}}},
	{Artifact: "ablation", Metric: "energy without/with back-off", Paper: "back-off pays", Format: "%.4f", Bands: band(1, 1.05)},
	{Artifact: "ablation", Metric: "migrations without/with back-off", Paper: "back-off pays", Format: "%.4f", Bands: band(1, 1.5)},
	{Artifact: "ablation", Metric: "energy gating fastest/slowest cores first", Paper: "slowest first", Format: "%.4f", Bands: band(1, 1.3)},
	{Artifact: "ablation", Metric: "NT cache share of cache+core leakage", Paper: "cache-dominated", Format: "%.4f", Bands: band(0.9, 1)},
}

// claim returns the claimTable row for metric with the measured values
// filled in. An unknown metric or a value count that does not match the
// row's bands is a programming error and panics.
func claim(metric string, values ...float64) Claim {
	for _, c := range claimTable {
		if c.Metric == metric {
			if len(values) != len(c.Bands) {
				panic(fmt.Sprintf("experiments: claim %q measured with %d values, has %d bands", metric, len(values), len(c.Bands)))
			}
			c.Values = values
			return c
		}
	}
	panic(fmt.Sprintf("experiments: no claim %q in claimTable", metric))
}

// boolValue encodes a boolean claim value.
func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ordering is a qualitative result of the paper, a relation between
// claim values that must hold whatever the bands allow. Holds reads
// the first value of a row through v.
type ordering struct {
	Name  string
	Holds func(v func(metric string) float64) bool
}

// orderings are the paper's qualitative results, plus the point of the
// arbitration ablation.
var orderings = []ordering{
	{"SH-STT-CC < SH-STT < PR-SRAM-NT energy", func(v func(string) float64) bool {
		return v("SH-STT-CC energy") < v("SH-STT energy") && v("SH-STT energy") < 1
	}},
	{"HP-SRAM-CMP > SH-SRAM-Nom > 1 energy", func(v func(string) float64) bool {
		return v("HP-SRAM-CMP energy") > v("SH-SRAM-Nom energy") && v("SH-SRAM-Nom energy") > 1
	}},
	{"SH-STT-CC-OS > SH-STT energy", func(v func(string) float64) bool {
		return v("SH-STT-CC-OS vs SH-STT") > 0
	}},
	{"optimal cluster = 16", func(v func(string) float64) bool {
		return v("optimal cluster size") == 16
	}},
	{"power reduction small < medium < large", func(v func(string) float64) bool {
		return v("SH-STT power reduction, small") < v("SH-STT power reduction, medium") &&
			v("SH-STT power reduction, medium") < v("SH-STT power reduction, large")
	}},
	{"priority arbitration half-miss < FIFO", func(v func(string) float64) bool {
		return v("half-miss rate, priority arbitration") < v("half-miss rate, FIFO arbitration")
	}},
}

// RenderClaims formats claims as a paper-vs-measured table.
func RenderClaims(title string, claims []Claim) string {
	t := report.NewTable(title, "artifact", "metric", "paper", "measured")
	for _, c := range claims {
		t.AddRow(c.Artifact, c.Metric, c.Paper, c.Measured())
	}
	return t.String()
}
