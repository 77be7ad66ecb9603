// Package metrics provides the statistics the paper reports: summary
// statistics of invocation run times (Table 4), fixed-bin histograms
// (Figure 7), and time series sampled against completed-invocation
// counts (Figures 10 and 11).
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Summary holds mean/std/min/max of a sample, as in Table 4.
type Summary struct {
	Count int
	Mean  float64
	Std   float64
	Min   float64
	Max   float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	s := Summary{Count: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// Histogram is a fixed-width binned histogram over [Lo, Hi); values
// outside the range land in the overflow/underflow counters.
type Histogram struct {
	Lo, Hi    float64
	Bins      []int
	Underflow int
	Overflow  int
	width     float64
}

// NewHistogram creates a histogram with n bins over [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n < 1 {
		n = 1
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int, n), width: (hi - lo) / float64(n)}
}

// Add records a value.
func (h *Histogram) Add(x float64) {
	if x < h.Lo {
		h.Underflow++
		return
	}
	if x >= h.Hi {
		h.Overflow++
		return
	}
	i := int((x - h.Lo) / h.width)
	if i >= len(h.Bins) {
		i = len(h.Bins) - 1
	}
	h.Bins[i]++
}

// Total returns the number of in-range samples.
func (h *Histogram) Total() int {
	t := 0
	for _, b := range h.Bins {
		t += b
	}
	return t
}

// ModeBin returns the center of the most populated bin.
func (h *Histogram) ModeBin() float64 {
	best := 0
	for i, b := range h.Bins {
		if b > h.Bins[best] {
			best = i
		}
	}
	return h.Lo + (float64(best)+0.5)*h.width
}

// MassBetween returns the fraction of in-range samples in [a, b).
func (h *Histogram) MassBetween(a, b float64) float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	count := 0
	for i, n := range h.Bins {
		lo := h.Lo + float64(i)*h.width
		hi := lo + h.width
		if lo >= a && hi <= b {
			count += n
		}
	}
	return float64(count) / float64(total)
}

// Render draws an ASCII histogram (for vinebench output).
func (h *Histogram) Render(width int) string {
	max := 0
	for _, b := range h.Bins {
		if b > max {
			max = b
		}
	}
	if max == 0 {
		return "(empty)\n"
	}
	var sb strings.Builder
	for i, b := range h.Bins {
		lo := h.Lo + float64(i)*h.width
		bar := strings.Repeat("#", b*width/max)
		fmt.Fprintf(&sb, "%8.1f-%-8.1f %7d %s\n", lo, lo+h.width, b, bar)
	}
	if h.Overflow > 0 {
		fmt.Fprintf(&sb, "%17s %7d\n", ">"+fmt.Sprintf("%.1f", h.Hi), h.Overflow)
	}
	return sb.String()
}

// Point is one sample of a value against a progress axis (completed
// invocations for Figures 10 and 11).
type Point struct {
	X float64
	Y float64
}

// Series collects sampled points.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// Last returns the final point (zero if empty).
func (s *Series) Last() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

// Max returns the maximum Y (zero if empty).
func (s *Series) Max() float64 {
	m := 0.0
	for _, p := range s.Points {
		if p.Y > m {
			m = p.Y
		}
	}
	return m
}

// YAt returns Y at the largest X <= x (zero if none).
func (s *Series) YAt(x float64) float64 {
	y := 0.0
	for _, p := range s.Points {
		if p.X > x {
			break
		}
		y = p.Y
	}
	return y
}

// LinearFit returns slope and intercept of a least-squares fit, plus
// the correlation coefficient r — used to verify Figure 11's "share
// value grows linearly".
func (s *Series) LinearFit() (slope, intercept, r float64) {
	n := float64(len(s.Points))
	if n < 2 {
		return 0, 0, 0
	}
	var sx, sy, sxx, syy, sxy float64
	for _, p := range s.Points {
		sx += p.X
		sy += p.Y
		sxx += p.X * p.X
		syy += p.Y * p.Y
		sxy += p.X * p.Y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n, 0
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	rden := math.Sqrt((n*sxx - sx*sx) * (n*syy - sy*sy))
	if rden != 0 {
		r = (n*sxy - sx*sy) / rden
	}
	return slope, intercept, r
}
