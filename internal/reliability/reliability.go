// Package reliability models SRAM cell failures at low voltage and the
// error-correction schemes used to tolerate them — the phenomenon that
// motivates Respin's entire design space (Section I): process variation
// makes dense SRAM cells fail at exponentially increasing rates as Vdd
// approaches threshold, so SRAM caches in near-threshold chips must
// either run on a separate, higher voltage rail (the paper's 0.65 V
// PR-SRAM-NT baseline), pay for strong ECC, or be replaced outright —
// Respin's answer — by STT-RAM, whose magnetic storage does not suffer
// voltage-dependent cell failures at all.
//
// The cell-failure model follows the published low-voltage SRAM
// characterisations the paper cites: the per-cell failure probability
// grows exponentially as Vdd drops, at roughly one decade per ~122 mV.
// The model is anchored at pfail(1.0 V) = 1e-9 (essentially perfect) and
// reaches ~1e-4 at 0.4 V (hopeless for megabyte arrays), which brackets
// the 0.65 V "safe SRAM" operating point the baseline uses: every SRAM
// array of the Table I hierarchy clears a 99% yield bar at 0.65 V with
// SECDED, and none of them does at the 0.4 V core rail.
package reliability

import (
	"fmt"
	"math"
	"strings"

	"respin/internal/config"
)

// Cell-failure model anchors.
const (
	// anchorVdd and anchorLogP fix one point of the exponential law:
	// log10 pfail = anchorLogP - decadesPerVolt*(V - anchorVdd).
	anchorVdd  = 1.0
	anchorLogP = -9.0
	// decadesPerVolt is the slope of the failure exponential
	// (~one decade per 122 mV).
	decadesPerVolt = 8.2
)

// CellFailProb returns the probability that a single SRAM cell fails
// (read upset, write failure or retention loss) at the given supply.
// STT-RAM cells return 0 — the MTJ's state is magnetic, not a ratioed
// CMOS latch, so lowering the periphery voltage slows it but does not
// corrupt it.
func CellFailProb(t config.MemTech, vdd float64) float64 {
	if t == config.STTRAM {
		return 0
	}
	logP := anchorLogP + decadesPerVolt*(anchorVdd-vdd)
	if logP > 0 {
		logP = 0
	}
	return math.Pow(10, logP)
}

// ECC identifies an error-correction scheme for cache words.
type ECC int

// Supported schemes, in increasing strength.
const (
	// NoECC detects and corrects nothing.
	NoECC ECC = iota
	// Parity detects single-bit errors per word (fail-stop, no
	// correction — unusable cells remain unusable).
	Parity
	// SECDED corrects one and detects two bit errors per 64-bit word
	// (8 check bits).
	SECDED
	// DECTED corrects two and detects three bit errors per word
	// (~14 check bits) — the "strong ECC" whose overhead the paper
	// deems inefficient at near threshold.
	DECTED
)

// String returns the scheme name.
func (e ECC) String() string {
	switch e {
	case NoECC:
		return "none"
	case Parity:
		return "parity"
	case SECDED:
		return "SECDED"
	case DECTED:
		return "DECTED"
	default:
		return fmt.Sprintf("ECC(%d)", int(e))
	}
}

// ECCByName parses a scheme name (as printed by String, case-insensitive).
func ECCByName(name string) (ECC, error) {
	all := []ECC{NoECC, Parity, SECDED, DECTED}
	for _, e := range all {
		if strings.EqualFold(e.String(), name) {
			return e, nil
		}
	}
	names := make([]string, len(all))
	for i, e := range all {
		names[i] = e.String()
	}
	return NoECC, fmt.Errorf("reliability: unknown ECC scheme %q (valid: %s)",
		name, strings.Join(names, ", "))
}

// wordBits is the protected word size.
const wordBits = 64

// CheckBits returns the per-word check-bit overhead of a scheme.
func (e ECC) CheckBits() int {
	switch e {
	case Parity:
		return 1
	case SECDED:
		return 8
	case DECTED:
		return 14
	default:
		return 0
	}
}

// Corrects returns how many failed bits per word the scheme repairs.
func (e ECC) Corrects() int {
	switch e {
	case SECDED:
		return 1
	case DECTED:
		return 2
	default:
		return 0
	}
}

// AreaOverhead returns the fractional array-area cost of the scheme.
func (e ECC) AreaOverhead() float64 {
	return float64(e.CheckBits()) / wordBits
}

// LatencyOverheadPS returns the decode latency added to each read.
// Parity is a simple XOR tree; SECDED syndromes add a couple of gate
// levels; DECTED decoding is substantially deeper.
func (e ECC) LatencyOverheadPS() float64 {
	switch e {
	case Parity:
		return 40
	case SECDED:
		return 120
	case DECTED:
		return 400
	default:
		return 0
	}
}

// EnergyOverheadFrac returns the fractional per-access energy cost.
func (e ECC) EnergyOverheadFrac() float64 {
	switch e {
	case Parity:
		return 0.02
	case SECDED:
		return 0.10
	case DECTED:
		return 0.25
	default:
		return 0
	}
}

// WordFailProb returns the probability that one protected word is
// unusable (more failed bits than the scheme corrects) at the given
// per-cell failure probability.
func WordFailProb(e ECC, pCell float64) float64 {
	if pCell <= 0 {
		return 0
	}
	if pCell >= 1 {
		return 1
	}
	n := wordBits + e.CheckBits()
	k := e.Corrects()
	// P(usable) = sum_{i=0..k} C(n,i) p^i (1-p)^(n-i).
	usable := 0.0
	for i := 0; i <= k; i++ {
		usable += binom(n, i) * math.Pow(pCell, float64(i)) *
			math.Pow(1-pCell, float64(n-i))
	}
	if usable > 1 {
		usable = 1
	}
	return 1 - usable
}

// binom computes the binomial coefficient C(n, k) for small k.
func binom(n, k int) float64 {
	c := 1.0
	for i := 0; i < k; i++ {
		c *= float64(n-i) / float64(i+1)
	}
	return c
}

// CacheYield returns the probability that an entire cache array of the
// given capacity operates without an uncorrectable word.
func CacheYield(t config.MemTech, capacityBytes int, vdd float64, e ECC) float64 {
	pCell := CellFailProb(t, vdd)
	if pCell == 0 {
		return 1
	}
	words := float64(capacityBytes*8) / wordBits
	pw := WordFailProb(e, pCell)
	if pw >= 1 {
		return 0
	}
	// (1-pw)^words via logs for numerical stability.
	return math.Exp(words * math.Log1p(-pw))
}

// MinSafeVdd returns the lowest supply (to 10 mV resolution, within
// [0.35, 1.0] V) at which the cache reaches the target yield under the
// given scheme, or +Inf if even nominal voltage cannot.
func MinSafeVdd(t config.MemTech, capacityBytes int, e ECC, targetYield float64) float64 {
	if t == config.STTRAM {
		return 0.35 // any periphery voltage above threshold works
	}
	for v := 0.35; v <= 1.0+1e-9; v += 0.01 {
		if CacheYield(t, capacityBytes, v, e) >= targetYield {
			return math.Round(v*100) / 100
		}
	}
	return math.Inf(1)
}

// DefaultTargetYield is the conventional array-yield bar.
const DefaultTargetYield = 0.99
