package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d, want 0", c.Value())
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("after reset counter = %d, want 0", c.Value())
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(1, 0); got != 0 {
		t.Errorf("Ratio(1,0) = %v, want 0", got)
	}
	if got := Ratio(1, 4); got != 0.25 {
		t.Errorf("Ratio(1,4) = %v, want 0.25", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(4)
	for _, v := range []int{0, 1, 1, 2, 7, -3} {
		h.Observe(v)
	}
	if h.Total() != 6 {
		t.Fatalf("total = %d, want 6", h.Total())
	}
	// -3 clamps to 0.
	if h.Count(0) != 2 || h.Count(1) != 2 || h.Count(2) != 1 {
		t.Errorf("bucket counts = %d/%d/%d, want 2/2/1", h.Count(0), h.Count(1), h.Count(2))
	}
	if h.Overflow() != 1 || h.Count(4) != 1 {
		t.Errorf("overflow = %d (Count(4)=%d), want 1", h.Overflow(), h.Count(4))
	}
	if h.Count(5) != 0 || h.Count(-1) != 0 {
		t.Errorf("out-of-range counts should be 0")
	}
	if got := h.Fraction(1); !almostEqual(got, 2.0/6.0, 1e-12) {
		t.Errorf("Fraction(1) = %v, want %v", got, 2.0/6.0)
	}
	// mean of 0,1,1,2,7,0 = 11/6
	if got := h.Mean(); !almostEqual(got, 11.0/6.0, 1e-12) {
		t.Errorf("Mean = %v, want %v", got, 11.0/6.0)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(3)
	if h.Mean() != 0 || h.Fraction(0) != 0 {
		t.Errorf("empty histogram should report zeros")
	}
}

func TestHistogramMergeAndReset(t *testing.T) {
	a := NewHistogram(3)
	b := NewHistogram(5)
	a.Observe(1)
	a.Observe(9) // overflow in a
	b.Observe(1)
	b.Observe(4) // in range for b, overflow for a's range
	b.Observe(9) // overflow in b
	a.Merge(b)
	if a.Total() != 5 {
		t.Fatalf("merged total = %d, want 5", a.Total())
	}
	if a.Count(1) != 2 {
		t.Errorf("merged Count(1) = %d, want 2", a.Count(1))
	}
	// a's overflow should absorb: its own 9, b's 4 (beyond a's range) and b's 9.
	if a.Overflow() != 3 {
		t.Errorf("merged overflow = %d, want 3", a.Overflow())
	}
	// Sum is exact across merges: 1+9+1+4+9 = 24.
	if got := a.Mean(); !almostEqual(got, 24.0/5.0, 1e-12) {
		t.Errorf("merged mean = %v, want %v", got, 24.0/5.0)
	}
	a.Reset()
	if a.Total() != 0 || a.Overflow() != 0 || a.Count(1) != 0 {
		t.Errorf("reset histogram not empty: %v", a)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(2)
	h.Observe(0)
	h.Observe(3)
	got := h.String()
	want := "0:1 1:0 2+:1"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestHistogramFractionsSumToOne(t *testing.T) {
	f := func(vals []uint8) bool {
		h := NewHistogram(8)
		for _, v := range vals {
			h.Observe(int(v))
		}
		if len(vals) == 0 {
			return h.Total() == 0
		}
		var sum float64
		for i := 0; i <= 8; i++ {
			sum += h.Fraction(i)
		}
		return almostEqual(sum, 1.0, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.StdDev() != 0 {
		t.Errorf("empty summary should report zeros")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if !almostEqual(s.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", s.Mean())
	}
	if !almostEqual(s.StdDev(), 2, 1e-12) {
		t.Errorf("stddev = %v, want 2", s.StdDev())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", s.Min(), s.Max())
	}
}

func TestSummaryMatchesDirectComputation(t *testing.T) {
	f := func(vals []float64) bool {
		// Filter out NaN/Inf which have no meaningful mean.
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				clean = append(clean, v)
			}
		}
		var s Summary
		var sum float64
		for _, v := range clean {
			s.Observe(v)
			sum += v
		}
		if len(clean) == 0 {
			return s.N() == 0
		}
		want := sum / float64(len(clean))
		return almostEqual(s.Mean(), want, 1e-6*(1+math.Abs(want)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeSeries(t *testing.T) {
	var ts TimeSeries
	for i := 0; i < 10; i++ {
		ts.Append(float64(i), float64(i%4))
	}
	if ts.Len() != 10 {
		t.Fatalf("len = %d, want 10", ts.Len())
	}
	if lo, hi := slices.Min(ts.Values), slices.Max(ts.Values); lo != 0 || hi != 3 {
		t.Errorf("series min/max = %v/%v, want 0/3", lo, hi)
	}
}

func TestTimeSeriesDownsample(t *testing.T) {
	var ts TimeSeries
	for i := 0; i < 100; i++ {
		ts.Append(float64(i), 5)
	}
	d := ts.Downsample(10)
	if d.Len() != 10 {
		t.Fatalf("downsampled len = %d, want 10", d.Len())
	}
	for i, v := range d.Values {
		if v != 5 {
			t.Errorf("downsampled value[%d] = %v, want 5", i, v)
		}
	}
	// Downsampling preserves overall mean for constant series; check a ramp too.
	var ramp TimeSeries
	for i := 0; i < 1000; i++ {
		ramp.Append(float64(i), float64(i))
	}
	rd := ramp.Downsample(7)
	if rm, om := Mean(rd.Values), Mean(ramp.Values); !almostEqual(rm, om, 80) {
		t.Errorf("ramp downsample mean %v far from %v", rm, om)
	}
	// No-op when already small.
	small := &TimeSeries{}
	small.Append(0, 1)
	if small.Downsample(10) != small {
		t.Errorf("Downsample should return receiver when already small")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", got)
	}
	if got := GeoMean([]float64{-1, 0}); got != 0 {
		t.Errorf("GeoMean(nonpositive) = %v, want 0", got)
	}
	if got := GeoMean([]float64{2, 8}); !almostEqual(got, 4, 1e-12) {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean([]float64{3, 3, 3}); !almostEqual(got, 3, 1e-12) {
		t.Errorf("GeoMean(3,3,3) = %v, want 3", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{1, 2, 3}); !almostEqual(got, 2, 1e-12) {
		t.Errorf("Mean = %v, want 2", got)
	}
}

func TestGeoMeanBetweenMinAndMax(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if v > 0 && !math.IsInf(v, 0) && v < 1e9 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		g := GeoMean(xs)
		lo, hi := xs[0], xs[0]
		for _, v := range xs {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return g >= lo*(1-1e-9) && g <= hi*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramMergeIntoEmpty(t *testing.T) {
	a := NewHistogram(0) // everything overflows
	b := NewHistogram(3)
	b.Observe(1)
	b.Observe(2)
	a.Merge(b)
	if a.Total() != 2 || a.Overflow() != 2 {
		t.Fatalf("zero-bucket merge: total=%d overflow=%d", a.Total(), a.Overflow())
	}
	if a.String() == "" {
		t.Fatal("empty String for overflow-only histogram")
	}
}

func TestTimeSeriesDownsampleEdge(t *testing.T) {
	var ts TimeSeries
	ts.Append(0, 1)
	ts.Append(1, 3)
	d := ts.Downsample(0) // non-positive: no-op
	if d != &ts {
		t.Fatal("Downsample(0) should return receiver")
	}
}
