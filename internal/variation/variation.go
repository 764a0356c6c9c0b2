// Package variation is the VARIUS-equivalent process-variation model.
//
// It generates a per-core threshold-voltage (Vth) map composed of a
// spatially-correlated systematic component plus uncorrelated random
// noise, converts Vth to maximum core frequency with the alpha-power law,
// and quantises each core's clock period to an integer multiple of the
// shared-cache reference clock — the PLL/clock-multiplier scheme of
// Section II. At the near-threshold supply this reproduces the paper's
// observation that core-to-core frequency variation is large (fast cores
// approach twice the speed of slow ones before quantisation) and yields
// core periods of 1.6, 2.0 and 2.4 ns.
package variation

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"respin/internal/config"
)

// Params configures the variation model.
type Params struct {
	// MeanVth is the nominal threshold voltage (V).
	MeanVth float64
	// SigmaSystematic is the std-dev of the spatially-correlated
	// component (V).
	SigmaSystematic float64
	// SigmaRandom is the std-dev of the per-core white component (V).
	SigmaRandom float64
	// CorrelationCells is the coarse-grid cell edge, in cores, over
	// which the systematic component is correlated.
	CorrelationCells int
	// Alpha is the alpha-power-law exponent for fmax.
	Alpha float64
	// FreqScaleGHz calibrates absolute frequency: fmax =
	// FreqScaleGHz * (Vdd-Vth)^Alpha / Vdd.
	FreqScaleGHz float64
}

// DefaultParams returns parameters tuned so that, at the 0.4 V NT supply,
// the raw fmax spread across a 64-core die approaches 2x and the
// quantised core periods land on the paper's 1.6/2.0/2.4 ns points.
func DefaultParams() Params {
	return Params{
		MeanVth:          config.Vth,
		SigmaSystematic:  0.008,
		SigmaRandom:      0.008,
		CorrelationCells: 4,
		Alpha:            1.3,
		// Calibrated so the mean NT core period is just under 2.0 ns.
		FreqScaleGHz: 5.85,
	}
}

// CoreSpec is the variation outcome for a single core.
type CoreSpec struct {
	// Vth is the core's effective threshold voltage.
	Vth float64
	// FmaxGHz is the raw maximum frequency at the map's supply.
	FmaxGHz float64
	// Multiple is the quantised clock-period multiple of the cache
	// clock (config.MinCoreMultiple..config.MaxCoreMultiple).
	Multiple int
	// PeriodPS is Multiple * config.CachePeriodPS.
	PeriodPS int64
}

// FrequencyGHz returns the quantised operating frequency.
func (c CoreSpec) FrequencyGHz() float64 { return 1000.0 / float64(c.PeriodPS) }

// Map holds the per-core variation outcomes for a die.
type Map struct {
	Rows, Cols int
	Vdd        float64
	Cores      []CoreSpec
}

// fmax applies the alpha-power law.
func fmax(vdd, vth float64, p Params) float64 {
	over := vdd - vth
	if over <= 0 {
		return 0
	}
	return p.FreqScaleGHz * math.Pow(over, p.Alpha) / vdd
}

// Generate builds a deterministic variation map for a rows x cols die at
// the given core supply. The same seed always produces the same silicon,
// so every architecture configuration of an experiment sees identical
// variation.
func Generate(seed int64, rows, cols int, vdd float64, p Params) *Map {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("variation: invalid die %dx%d", rows, cols))
	}
	if p.CorrelationCells <= 0 {
		p.CorrelationCells = 1
	}
	rng := rand.New(rand.NewSource(seed))

	// Systematic component: coarse grid of correlated offsets,
	// bilinearly interpolated to core positions.
	coarseRows := rows/p.CorrelationCells + 2
	coarseCols := cols/p.CorrelationCells + 2
	coarse := make([]float64, coarseRows*coarseCols)
	for i := range coarse {
		coarse[i] = rng.NormFloat64() * p.SigmaSystematic
	}
	systematic := func(r, c int) float64 {
		fr := float64(r) / float64(p.CorrelationCells)
		fc := float64(c) / float64(p.CorrelationCells)
		r0, c0 := int(fr), int(fc)
		dr, dc := fr-float64(r0), fc-float64(c0)
		at := func(rr, cc int) float64 { return coarse[rr*coarseCols+cc] }
		return at(r0, c0)*(1-dr)*(1-dc) +
			at(r0+1, c0)*dr*(1-dc) +
			at(r0, c0+1)*(1-dr)*dc +
			at(r0+1, c0+1)*dr*dc
	}

	m := &Map{Rows: rows, Cols: cols, Vdd: vdd, Cores: make([]CoreSpec, rows*cols)}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			vth := p.MeanVth + systematic(r, c) + rng.NormFloat64()*p.SigmaRandom
			// Clamp pathological tails so every core remains usable
			// at the NT supply (yield-rescue techniques are assumed,
			// as in the paper's VARIUS setup).
			maxVth := vdd - 0.04
			if vth > maxVth {
				vth = maxVth
			}
			f := fmax(vdd, vth, p)
			mult := multipleFor(f)
			m.Cores[r*cols+c] = CoreSpec{
				Vth:      vth,
				FmaxGHz:  f,
				Multiple: mult,
				PeriodPS: int64(mult) * config.CachePeriodPS,
			}
		}
	}
	return m
}

// multipleFor quantises a raw fmax to the smallest permitted clock-period
// multiple of the cache clock that the core can sustain.
func multipleFor(fGHz float64) int {
	if fGHz <= 0 {
		return config.MaxCoreMultiple
	}
	periodPS := 1000.0 / fGHz
	mult := int(math.Ceil(periodPS / config.CachePeriodPS))
	if mult < config.MinCoreMultiple {
		mult = config.MinCoreMultiple
	}
	if mult > config.MaxCoreMultiple {
		mult = config.MaxCoreMultiple
	}
	return mult
}

// MultipleCounts returns how many cores landed on each clock multiple.
func (m *Map) MultipleCounts() map[int]int {
	counts := make(map[int]int)
	for _, c := range m.Cores {
		counts[c.Multiple]++
	}
	return counts
}

// SpreadRatio reports the ratio of the fastest to the slowest raw fmax —
// the paper's "fast cores are almost twice as fast as slow ones".
func (m *Map) SpreadRatio() float64 {
	if len(m.Cores) == 0 {
		return 0
	}
	lo, hi := m.Cores[0].FmaxGHz, m.Cores[0].FmaxGHz
	for _, c := range m.Cores {
		if c.FmaxGHz < lo {
			lo = c.FmaxGHz
		}
		if c.FmaxGHz > hi {
			hi = c.FmaxGHz
		}
	}
	if lo == 0 {
		return math.Inf(1)
	}
	return hi / lo
}

// ClusterCores returns the CoreSpecs of cluster k for the given cluster
// size, assigning cores to clusters in row-major index order (cluster
// k covers cores [k*size, (k+1)*size)).
func (m *Map) ClusterCores(k, size int) []CoreSpec {
	return m.Cores[k*size : (k+1)*size]
}

// DieMap renders the die as an ASCII grid of core clock multiples, with
// horizontal separators at cluster boundaries (clusters are assigned in
// row-major index order) — the floorplan view of the variation the
// consolidation system exploits.
func (m *Map) DieMap(clusterSize int) string {
	var b strings.Builder
	rowsPerCluster := clusterSize / m.Cols
	if rowsPerCluster < 1 {
		rowsPerCluster = 1
	}
	for r := 0; r < m.Rows; r++ {
		if r > 0 && r%rowsPerCluster == 0 {
			b.WriteString(strings.Repeat("-", 2*m.Cols-1))
			b.WriteByte('\n')
		}
		for c := 0; c < m.Cols; c++ {
			if c > 0 {
				b.WriteByte(' ')
			}
			b.WriteByte(byte('0') + byte(m.Cores[r*m.Cols+c].Multiple))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
