package stats

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndPercentile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 100, 4},
		{[]float64{10, 20, 30, 40, 50}, 25, 20},
		{[]float64{10, 20, 30, 40, 50}, 90, 46},
	} {
		if got := Percentile(c.xs, c.p); !near(got, c.want) {
			t.Errorf("Percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median reordered its argument: %v", xs)
	}
}

func TestDurationsNs(t *testing.T) {
	ns := make([]int64, 0, 101)
	for i := 100; i >= 0; i-- {
		ns = append(ns, int64(i)*1000)
	}
	p50, p99 := DurationsNs(ns)
	if !near(p50, 50000) || !near(p99, 99000) {
		t.Errorf("p50, p99 = %v, %v, want 50000, 99000", p50, p99)
	}
	if p50, p99 := DurationsNs(nil); p50 != 0 || p99 != 0 {
		t.Errorf("empty sample gave %v, %v", p50, p99)
	}
	if p50, _ := DurationsNs([]int64{5, 1, 9, 3}); !near(p50, 4) {
		t.Errorf("p50 of an even count = %v, want 4", p50)
	}
}

// fakeCPU is a CPU clock the test advances by hand.
type fakeCPU struct{ ns int64 }

func (f *fakeCPU) read() Reading { return Reading{CPU: f.ns} }

func TestEpochsAggregation(t *testing.T) {
	cpu := &fakeCPU{ns: 500}
	e := NewEpochs(10, 1000, cpu.read)
	// Three epochs of 10 operations lasting 1 ms, 2 ms and 4 ms and
	// costing 10, 30 and 20 µs of CPU, then 7 operations of a fourth.
	now := int64(1000)
	for i, step := range []struct{ wall, cpu int64 }{{100_000, 1000}, {200_000, 3000}, {400_000, 2000}} {
		for j := 0; j < 10; j++ {
			now += step.wall
			cpu.ns += step.cpu
			e.Done(now)
		}
		if e.Closed() != i+1 {
			t.Fatalf("after %d operations %d epochs are closed, want %d", 10*(i+1), e.Closed(), i+1)
		}
	}
	for j := 0; j < 7; j++ {
		now += 1
		e.Done(now)
	}
	if e.Closed() != 3 {
		t.Fatalf("%d epochs closed after 37 operations, want 3: a partial epoch closes nothing", e.Closed())
	}
	// Rates are 10000, 5000 and 2500 operations per second; CPU per
	// operation 1000, 3000 and 2000 ns. The medians are the middle ones.
	if got := e.RatePerSec(nil); !near(got, 5000) {
		t.Errorf("RatePerSec = %v, want the median epoch's 5000", got)
	}
	if got := e.CPUPerOpNs(nil); !near(got, 2000) {
		t.Errorf("CPUPerOpNs = %v, want the median epoch's 2000", got)
	}
	if got := e.Seconds(); !near(got, 0.007) {
		t.Errorf("Seconds = %v, want the 7 ms the three closed epochs cover", got)
	}

	// A later pass of two 8 ms epochs joins the same medians; the idle
	// time between the passes belongs to no epoch.
	later := NewEpochs(10, now+1_000_000_000, cpu.read)
	for j := 0; j < 20; j++ {
		cpu.ns += 5000
		later.Done(now + 1_000_000_000 + int64(j+1)*800_000)
	}
	e.Append(later)
	if e.Closed() != 5 || !near(e.Seconds(), 0.023) {
		t.Errorf("%d epochs covering %v s after Append, want 5 covering 0.023", e.Closed(), e.Seconds())
	}
	if got := e.RatePerSec(nil); !near(got, 2500) {
		t.Errorf("RatePerSec = %v after Append, want 2500 (of 10000, 5000, 2500, 1250, 1250)", got)
	}
}

func TestEpochsScaleAndGranted(t *testing.T) {
	// Three epochs of 10 operations: 1 ms, 1 ms, 2 ms. The third ran
	// while the host stole as much CPU time as it granted and ran
	// everything at the reference speed; the second on a host a quarter
	// slower. Corrected, all three are the same 1 ms.
	host := Reading{}
	e := NewEpochs(10, 0, func() Reading { return host })
	now := int64(0)
	for _, step := range []struct {
		wall, cpu, steal int64
		ref              int
	}{{1_000_000, 2_000_000, 0, 40}, {1_250_000, 2_500_000, 0, 40}, {2_000_000, 2_000_000, 2_000_000, 40}} {
		now += step.wall
		host.CPU += step.cpu
		host.Steal += step.steal
		host.Ref += step.ref
		e.DoneN(10, now)
	}
	if iv := e.Host[2]; iv.RefFrom != 80 || iv.RefTo != 120 || !near(iv.Granted(), 0.5) {
		t.Errorf("third epoch's interval %+v granted %v, want samples 80..120 and 0.5", iv, iv.Granted())
	}
	if g := (Interval{CPU: 5}).Granted(); g != 1 {
		t.Errorf("no steal: granted %v, want 1", g)
	}
	if g := (Interval{Steal: 5}).Granted(); g != 1 {
		t.Errorf("no CPU time to compare the steal with: granted %v, want 1", g)
	}
	scale := []float64{1, 1 / 1.25, 0.5}
	if got := e.RatePerSec(scale); !near(got, 10000) {
		t.Errorf("corrected rate %v, want 10000", got)
	}
	if got := e.RatePerSec(nil); !near(got, 8000) {
		t.Errorf("raw rate %v, want the median epoch's 8000", got)
	}
	if got := e.CPUPerOpNs([]float64{1, 1 / 1.25, 1}); !near(got, 200_000) {
		t.Errorf("corrected CPU per operation %v ns, want 200000", got)
	}
}

func TestEpochsDoneNSpansBoundaries(t *testing.T) {
	cpu := &fakeCPU{}
	e := NewEpochs(100, 0, cpu.read)
	cpu.ns = 700
	e.DoneN(250, 1_000_000) // two epochs close at once, 50 operations stay open
	if e.Closed() != 2 {
		t.Fatalf("%d epochs closed, want 2", e.Closed())
	}
	if e.Walls[0] != 1_000_000 || e.Walls[1] != 0 || e.Host[0].CPU != 700 || e.Host[1].CPU != 0 {
		t.Errorf("walls %v host %v: the first epoch takes the whole interval, the second closes at the same instant", e.Walls, e.Host)
	}
	if empty := NewEpochs(5, 0, cpu.read); empty.RatePerSec(nil) != 0 || empty.CPUPerOpNs(nil) != 0 {
		t.Error("an Epochs with no closed epoch must report 0")
	}
}

func TestRelDiff(t *testing.T) {
	if got := RelDiff(100, 90); !near(got, 0.1) {
		t.Errorf("RelDiff(100, 90) = %v, want 0.1", got)
	}
	if RelDiff(90, 100) != RelDiff(100, 90) {
		t.Error("RelDiff is not symmetric")
	}
	if RelDiff(0, 0) != 0 {
		t.Error("RelDiff(0, 0) != 0")
	}
}

// TestIQRShareMatchesPython pins the quartile rule to Python's
// statistics.quantiles(xs, n=4), which the acceptance procedure uses.
func TestIQRShareMatchesPython(t *testing.T) {
	// >>> xs = [12.1, 11.7, 12.9, 12.3, 11.9, 12.0, 12.6, 12.2, 11.8, 12.4]
	// >>> q = statistics.quantiles(xs, n=4); (q[2] - q[0]) / statistics.median(xs)
	// 0.047325102880658526
	xs := []float64{12.1, 11.7, 12.9, 12.3, 11.9, 12.0, 12.6, 12.2, 11.8, 12.4}
	if got := IQRShare(xs); !near(got, 0.047325102880658526) {
		t.Errorf("IQRShare = %v, want 0.047325102880658526", got)
	}
	// >>> q = statistics.quantiles([1.0, 2.0, 4.0], n=4); (q[2] - q[0]) / 2.0
	// 1.5
	if got := IQRShare([]float64{1, 2, 4}); !near(got, 1.5) {
		t.Errorf("IQRShare of three values = %v, want 1.5", got)
	}
	if IQRShare([]float64{3}) != 0 {
		t.Error("IQRShare of one value must be 0")
	}
}
