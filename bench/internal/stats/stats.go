// Package stats holds the benchmark's aggregation rules: medians and
// percentiles over samples, and the cut of a timed phase into
// fixed-size epochs whose median rate is the reported throughput. No
// end-to-end number the benchmark prints is a single short sample;
// every one passes through here.
package stats

import (
	"math"
	"slices"
	"sort"
)

// Median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, or 0 for an empty slice. xs is
// not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// percentileSorted interpolates linearly between the closest ranks of
// a sorted, non-empty sample.
func percentileSorted[T int64 | float64](s []T, p float64) float64 {
	if p <= 0 {
		return float64(s[0])
	}
	if p >= 100 {
		return float64(s[len(s)-1])
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return float64(s[lo]) + float64(s[hi]-s[lo])*(rank-float64(lo))
}

// DurationsNs summarises a latency sample held as nanoseconds. The
// slice is sorted in place (the timed phase is over by the time
// anything is summarised, so the order of arrival no longer matters).
func DurationsNs(ns []int64) (p50, p99 float64) {
	if len(ns) == 0 {
		return 0, 0
	}
	slices.Sort(ns)
	return percentileSorted(ns, 50), percentileSorted(ns, 99)
}

// Reading is one reading of what the host has done so far: the CPU
// time the process has used, the time the host has kept the machine's
// CPUs waiting (steal), and how many samples the host-speed sampler has
// taken.
type Reading struct {
	CPU, Steal int64 // nanoseconds
	Ref        int
}

// Interval is what the host did between two Readings.
type Interval struct {
	CPU, Steal     int64
	RefFrom, RefTo int // the host-speed samples taken meanwhile
}

// To is the interval from r to a later reading.
func (r Reading) To(later Reading) Interval {
	return Interval{CPU: later.CPU - r.CPU, Steal: later.Steal - r.Steal, RefFrom: r.Ref, RefTo: later.Ref}
}

// Granted is the share of the CPU time the process had work for that
// the host let it have: cpu / (cpu + steal). Work that keeps every CPU
// busy takes 1/Granted as long as it would have on a host that stole
// nothing, whether it runs on one CPU or on all of them, because steal
// is only counted while a CPU has something to run.
func (iv Interval) Granted() float64 {
	if iv.CPU <= 0 || iv.Steal <= 0 {
		return 1
	}
	return float64(iv.CPU) / float64(iv.CPU+iv.Steal)
}

// Epochs cuts a timed phase into epochs of a fixed number of
// operations. The collector calls Done once per completed operation
// with the completion time; every Size-th completion closes an epoch.
// Operations completed after the last full epoch belong to no epoch, so
// a partial epoch never enters a median.
type Epochs struct {
	// Size is the number of operations per epoch.
	Size int
	// Walls are the closed epochs' wall times in nanoseconds, and Host
	// what the host did during each.
	Walls []int64
	Host  []Interval

	read  func() Reading
	start int64 // start of the open epoch
	from  Reading
	open  int // operations completed in the open epoch
}

// NewEpochs starts the first epoch at startNs. read reads the host; it
// is called once now and once per closed epoch.
func NewEpochs(size int, startNs int64, read func() Reading) *Epochs {
	if size < 1 {
		size = 1
	}
	return &Epochs{Size: size, start: startNs, read: read, from: read()}
}

// Done records one completed operation at nowNs.
func (e *Epochs) Done(nowNs int64) {
	e.DoneN(1, nowNs)
}

// DoneN records n operations completing together at nowNs (a simulated
// run finishes all of its invocations at once). Epoch boundaries that
// fall inside the group close at nowNs.
func (e *Epochs) DoneN(n int, nowNs int64) {
	e.open += n
	for e.open >= e.Size {
		now := e.read()
		e.Walls = append(e.Walls, nowNs-e.start)
		e.Host = append(e.Host, e.from.To(now))
		e.start, e.from = nowNs, now
		e.open -= e.Size
	}
}

// Append adds the closed epochs of o, a later pass cut into epochs of
// the same size.
func (e *Epochs) Append(o *Epochs) {
	e.Walls = append(e.Walls, o.Walls...)
	e.Host = append(e.Host, o.Host...)
}

// Closed is the number of full epochs.
func (e *Epochs) Closed() int { return len(e.Walls) }

// Seconds is the wall time the closed epochs cover.
func (e *Epochs) Seconds() float64 {
	var ns int64
	for _, w := range e.Walls {
		ns += w
	}
	return float64(ns) / 1e9
}

// scaled returns xs[i] * scale[i] per epoch; a nil scale is all ones.
func scaled(xs []int64, scale []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
		if scale != nil {
			out[i] *= scale[i]
		}
	}
	return out
}

// RatePerSec is the median over closed epochs of operations per second
// (0 when no epoch closed). scale, when not nil, holds one factor per
// closed epoch by which that epoch's wall time is multiplied first: the
// correction for what the host did during it.
func (e *Epochs) RatePerSec(scale []float64) float64 {
	rates := make([]float64, 0, len(e.Walls))
	for _, w := range scaled(e.Walls, scale) {
		if w > 0 {
			rates = append(rates, float64(e.Size)/(w/1e9))
		}
	}
	return Median(rates)
}

// CPUPerOpNs is the median over closed epochs of CPU nanoseconds per
// operation (0 when no epoch closed), each epoch's CPU time multiplied
// by its factor in scale first (nil: by 1). An epoch that the host
// stalled (a page-fault storm while the heap grows, a noisy neighbour)
// moves a phase total but not this median.
func (e *Epochs) CPUPerOpNs(scale []float64) float64 {
	cpus := make([]int64, len(e.Host))
	for i, h := range e.Host {
		cpus[i] = h.CPU
	}
	per := scaled(cpus, scale)
	for i := range per {
		per[i] /= float64(e.Size)
	}
	return Median(per)
}

// RelDiff is |a-b| relative to the larger magnitude of the two, the
// symmetric deviation the calibration table and -selfcheck report.
func RelDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// IQRShare is the distance between the first and third quartile of xs
// as a share of their median, using the same exclusive quartile method
// as Python's statistics.quantiles(xs, n=4). It needs at least two
// values.
func IQRShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile, exclusive method
		m := len(s)
		pos := float64(k) * float64(m+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	med := percentileSorted(s, 50)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
