package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Count != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Errorf("summary = %+v", s)
	}
	// Sample std of this classic set is ~2.138.
	if math.Abs(s.Std-2.138) > 0.01 {
		t.Errorf("std = %f", s.Std)
	}
	empty := Summarize(nil)
	if empty.Count != 0 || empty.Mean != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
	one := Summarize([]float64{3})
	if one.Mean != 3 || one.Std != 0 || one.Min != 3 || one.Max != 3 {
		t.Errorf("single summary = %+v", one)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 5.5, 9.99, 10, 100} {
		h.Add(x)
	}
	if h.Underflow != 1 || h.Overflow != 2 {
		t.Errorf("under=%d over=%d", h.Underflow, h.Overflow)
	}
	if h.Total() != 5 {
		t.Errorf("total = %d", h.Total())
	}
	if h.Bins[0] != 2 { // 0 and 1.9
		t.Errorf("bin 0 = %d", h.Bins[0])
	}
	if mass := h.MassBetween(0, 2); math.Abs(mass-0.4) > 1e-9 {
		t.Errorf("mass [0,2) = %f", mass)
	}
	if h.Render(20) == "" {
		t.Errorf("render empty")
	}
}

func TestHistogramMode(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(4.5)
	}
	h.Add(1.5)
	if m := h.ModeBin(); m != 4.5 {
		t.Errorf("mode = %f", m)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	if s.Last() != (Point{}) || s.Max() != 0 {
		t.Errorf("empty series accessors wrong")
	}
	for i := 1; i <= 10; i++ {
		s.Add(float64(i), float64(2*i))
	}
	if s.Last().Y != 20 || s.Max() != 20 {
		t.Errorf("last/max wrong: %+v", s.Last())
	}
	if y := s.YAt(5.5); y != 10 {
		t.Errorf("YAt(5.5) = %f", y)
	}
	if y := s.YAt(0.5); y != 0 {
		t.Errorf("YAt before first point = %f", y)
	}
}

func TestLinearFit(t *testing.T) {
	var s Series
	for i := 0; i < 50; i++ {
		s.Add(float64(i), 3*float64(i)+7)
	}
	slope, intercept, r := s.LinearFit()
	if math.Abs(slope-3) > 1e-9 || math.Abs(intercept-7) > 1e-9 {
		t.Errorf("fit = %f x + %f", slope, intercept)
	}
	if math.Abs(r-1) > 1e-9 {
		t.Errorf("r = %f for a perfect line", r)
	}
	var flat Series
	flat.Add(1, 5)
	flat.Add(2, 5)
	_, b, _ := flat.LinearFit()
	if math.Abs(b-5) > 1e-9 {
		t.Errorf("flat intercept = %f", b)
	}
}

// Property: Summarize matches a direct recomputation, and min <= mean
// <= max.
func TestQuickSummary(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		sorted := append([]float64(nil), clean...)
		sort.Float64s(sorted)
		if s.Min != sorted[0] || s.Max != sorted[len(sorted)-1] {
			return false
		}
		return s.Min <= s.Mean+1e-6 && s.Mean <= s.Max+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: histogram total + under + over equals the number of added
// samples.
func TestQuickHistogramConservation(t *testing.T) {
	f := func(xs []float64) bool {
		h := NewHistogram(0, 100, 10)
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
			n++
		}
		return h.Total()+h.Underflow+h.Overflow == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
