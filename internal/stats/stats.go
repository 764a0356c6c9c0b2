// Package stats provides the lightweight statistics primitives used
// throughout the Respin simulator: event counters, bucketed histograms,
// running summaries, and down-sampled time series.
//
// All types have useful zero values and are not safe for concurrent use;
// the simulator is single-threaded per chip instance, and cross-instance
// aggregation happens after runs complete.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Counter is a monotonically increasing event counter.
type Counter struct {
	n uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.n = 0 }

// Ratio returns c/total as a float, or 0 when total is zero.
func Ratio(c, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(c) / float64(total)
}

// Histogram counts integer-valued observations in unit buckets
// [0, 1, 2, ..., cap-1] with a final overflow bucket that absorbs
// everything >= cap. It is used for distributions such as "requests
// arriving per cache cycle" (Figure 10) and "core cycles to service a
// read hit" (Figure 11).
type Histogram struct {
	buckets  []uint64
	overflow uint64
	total    uint64
	sum      uint64
}

// NewHistogram returns a histogram with the given number of unit buckets.
// A size of zero yields a histogram that counts everything as overflow.
func NewHistogram(size int) *Histogram {
	return &Histogram{buckets: make([]uint64, size)}
}

// Observe records one observation of value v. Negative values are
// clamped to bucket zero.
func (h *Histogram) Observe(v int) {
	if v < 0 {
		v = 0
	}
	h.total++
	h.sum += uint64(v)
	if v >= len(h.buckets) {
		h.overflow++
		return
	}
	h.buckets[v]++
}

// ObserveN records n observations of value v at once, exactly as if
// Observe(v) had been called n times. The batch form exists for the
// simulator's idle-cycle fast-forward, which must account millions of
// identical zero-arrival observations without looping.
func (h *Histogram) ObserveN(v int, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.total += n
	h.sum += uint64(v) * n
	if v >= len(h.buckets) {
		h.overflow += n
		return
	}
	h.buckets[v] += n
}

// Total returns the number of observations recorded.
func (h *Histogram) Total() uint64 { return h.total }

// Count returns the number of observations equal to v; values at or
// beyond the bucket range report the overflow count only when v equals
// the first overflow value.
func (h *Histogram) Count(v int) uint64 {
	if v < 0 {
		return 0
	}
	if v < len(h.buckets) {
		return h.buckets[v]
	}
	if v == len(h.buckets) {
		return h.overflow
	}
	return 0
}

// Overflow returns the count of observations >= the bucket range.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// Sum returns the exact sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// Buckets returns a copy of the unit-bucket counts.
func (h *Histogram) Buckets() []uint64 {
	return append([]uint64(nil), h.buckets...)
}

// Fraction returns the fraction of observations equal to v (with the
// overflow convention of Count). It returns 0 for an empty histogram.
func (h *Histogram) Fraction(v int) float64 { return Ratio(h.Count(v), h.total) }

// Mean returns the mean observed value, counting overflow observations
// at their true values (the running sum is exact).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Merge adds the contents of other into h. The receiving histogram's
// bucket range is preserved; other's finer counts fold into overflow as
// needed. Merging histograms with different bucket counts is allowed.
func (h *Histogram) Merge(other *Histogram) {
	for i, n := range other.buckets {
		if n == 0 {
			continue
		}
		if i < len(h.buckets) {
			h.buckets[i] += n
		} else {
			h.overflow += n
		}
	}
	h.overflow += other.overflow
	h.total += other.total
	h.sum += other.sum
}

// Reset clears all buckets and totals.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.overflow = 0
	h.total = 0
	h.sum = 0
}

// String renders the histogram as "v:count" pairs for debugging.
func (h *Histogram) String() string {
	var b strings.Builder
	for i, n := range h.buckets {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", i, n)
	}
	if h.overflow > 0 || len(h.buckets) == 0 {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d+:%d", len(h.buckets), h.overflow)
	}
	return b.String()
}

// MarshalJSON encodes the histogram with its exact internal counts, so
// snapshots round-trip losslessly through JSON output.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	buckets := h.buckets
	if buckets == nil {
		buckets = []uint64{}
	}
	return json.Marshal(struct {
		Buckets  []uint64 `json:"buckets"`
		Overflow uint64   `json:"overflow"`
		Total    uint64   `json:"total"`
		Sum      uint64   `json:"sum"`
		Mean     float64  `json:"mean"`
	}{buckets, h.overflow, h.total, h.sum, h.Mean()})
}

// Summary accumulates a running min/max/mean/variance over float64
// observations using Welford's algorithm.
type Summary struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Observe records one observation.
func (s *Summary) Observe(v float64) {
	if s.n == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.n++
	d := v - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (v - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() uint64 { return s.n }

// Mean returns the running mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation (0 when empty).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Variance returns the population variance (0 when fewer than two
// observations exist).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// StdDev returns the population standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// MarshalJSON encodes the summary's derived statistics.
func (s *Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		N      uint64  `json:"n"`
		Mean   float64 `json:"mean"`
		Min    float64 `json:"min"`
		Max    float64 `json:"max"`
		StdDev float64 `json:"stddev"`
	}{s.n, s.Mean(), s.Min(), s.Max(), s.StdDev()})
}

// TimeSeries records (time, value) samples, e.g. active-core counts per
// consolidation epoch (Figures 12 and 13).
type TimeSeries struct {
	Times  []float64
	Values []float64
}

// Append records a sample. Times are expected to be non-decreasing but
// this is not enforced.
func (ts *TimeSeries) Append(t, v float64) {
	ts.Times = append(ts.Times, t)
	ts.Values = append(ts.Values, v)
}

// Len returns the number of samples.
func (ts *TimeSeries) Len() int { return len(ts.Values) }

// MarshalJSON encodes the series as parallel arrays (empty arrays, not
// null, for a zero-sample series).
func (ts *TimeSeries) MarshalJSON() ([]byte, error) {
	times, values := ts.Times, ts.Values
	if times == nil {
		times = []float64{}
	}
	if values == nil {
		values = []float64{}
	}
	return json.Marshal(struct {
		Times  []float64 `json:"times"`
		Values []float64 `json:"values"`
	}{times, values})
}

// Downsample returns a series with at most n points, averaging values
// within each window. It returns the receiver when it already fits.
func (ts *TimeSeries) Downsample(n int) *TimeSeries {
	if n <= 0 || ts.Len() <= n {
		return ts
	}
	out := &TimeSeries{}
	window := float64(ts.Len()) / float64(n)
	for i := 0; i < n; i++ {
		lo := int(float64(i) * window)
		hi := int(float64(i+1) * window)
		if hi > ts.Len() {
			hi = ts.Len()
		}
		if lo >= hi {
			continue
		}
		var sum float64
		for j := lo; j < hi; j++ {
			sum += ts.Values[j]
		}
		out.Append(ts.Times[lo], sum/float64(hi-lo))
	}
	return out
}

// GeoMean returns the geometric mean of xs, skipping non-positive
// entries; it returns 0 when no positive entries exist. Normalised
// execution times and energies are aggregated geometrically, as is
// conventional for benchmark suites.
func GeoMean(xs []float64) float64 {
	var logSum float64
	var n int
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		logSum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
