package event

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSimOrdering(t *testing.T) {
	s := NewSim()
	var log []int
	s.At(3, func() { log = append(log, 3) })
	s.At(1, func() { log = append(log, 1) })
	s.At(2, func() { log = append(log, 2) })
	s.At(1, func() { log = append(log, 11) }) // same time: FIFO by seq
	end := s.Run()
	want := []int{1, 11, 2, 3}
	if len(log) != 4 {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
	if end != 3 {
		t.Errorf("end time = %f", end)
	}
	if s.Events() != 4 {
		t.Errorf("Events() = %d, want 4", s.Events())
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	s := NewSim()
	var times []Time
	s.After(1, func() {
		times = append(times, s.Now())
		s.After(2, func() {
			times = append(times, s.Now())
		})
	})
	s.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v", times)
	}
}

func TestPastEventClamped(t *testing.T) {
	s := NewSim()
	fired := false
	s.After(5, func() {
		s.At(1, func() { // in the past: clamp to now
			if s.Now() != 5 {
				t.Errorf("past event fired at %f", s.Now())
			}
			fired = true
		})
	})
	s.Run()
	if !fired {
		t.Errorf("clamped event never fired")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("different seeds look identical")
	}
}

func TestRNGDistributions(t *testing.T) {
	r := NewRNG(7)
	n := 20000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of range: %f", x)
		}
		sum += x
	}
	if mean := sum / float64(n); math.Abs(mean-0.5) > 0.02 {
		t.Errorf("uniform mean = %f", mean)
	}
	// Exponential mean.
	sum = 0
	for i := 0; i < n; i++ {
		sum += r.Exp(3.0)
	}
	if mean := sum / float64(n); math.Abs(mean-3.0) > 0.15 {
		t.Errorf("exp mean = %f, want ~3", mean)
	}
	// LogNormal median.
	var xs []float64
	for i := 0; i < n; i++ {
		xs = append(xs, r.LogNormal(10, 0.5))
	}
	sort.Float64s(xs)
	if med := xs[n/2]; math.Abs(med-10) > 0.6 {
		t.Errorf("lognormal median = %f, want ~10", med)
	}
}

func TestFairShareSingleFlow(t *testing.T) {
	s := NewSim()
	fs := NewFairShare(s, 100, 0) // 100 units/s
	var doneAt Time
	fs.Start(500, func() { doneAt = s.Now() })
	s.Run()
	if math.Abs(doneAt-5) > 1e-6 {
		t.Errorf("single flow finished at %f, want 5", doneAt)
	}
}

func TestFairShareTwoEqualFlows(t *testing.T) {
	s := NewSim()
	fs := NewFairShare(s, 100, 0)
	var a, b Time
	fs.Start(500, func() { a = s.Now() })
	fs.Start(500, func() { b = s.Now() })
	s.Run()
	// Sharing halves the rate: both finish at 10.
	if math.Abs(a-10) > 1e-6 || math.Abs(b-10) > 1e-6 {
		t.Errorf("flows finished at %f, %f; want 10, 10", a, b)
	}
}

func TestFairShareLateArrivalSlowsFirst(t *testing.T) {
	s := NewSim()
	fs := NewFairShare(s, 100, 0)
	var a, b Time
	fs.Start(500, func() { a = s.Now() })
	s.After(2.5, func() {
		fs.Start(500, func() { b = s.Now() })
	})
	s.Run()
	// First flow: 250 units alone (2.5s), then shares: remaining 250 at
	// 50/s → finishes at 7.5. Second: 250 shared (5s) + 250 alone
	// (2.5s) → 10.
	if math.Abs(a-7.5) > 1e-6 {
		t.Errorf("first flow at %f, want 7.5", a)
	}
	if math.Abs(b-10) > 1e-6 {
		t.Errorf("second flow at %f, want 10", b)
	}
}

func TestFairSharePerFlowCap(t *testing.T) {
	s := NewSim()
	fs := NewFairShare(s, 1000, 100) // huge capacity, 100/s per flow
	var a Time
	fs.Start(500, func() { a = s.Now() })
	s.Run()
	if math.Abs(a-5) > 1e-6 {
		t.Errorf("capped flow at %f, want 5", a)
	}
}

func TestFairShareCancel(t *testing.T) {
	s := NewSim()
	fs := NewFairShare(s, 100, 0)
	fired := false
	f := fs.Start(500, func() { fired = true })
	var b Time
	fs.Start(500, func() { b = s.Now() })
	s.After(1, func() { fs.Cancel(f) })
	s.Run()
	if fired {
		t.Errorf("cancelled flow completed")
	}
	// b receives 50 units during the shared first second, then the
	// remaining 450 alone at 100/s → finishes at 5.5.
	if math.Abs(b-5.5) > 1e-6 {
		t.Errorf("remaining flow at %f, want 5.5", b)
	}
	if fs.Active() != 0 {
		t.Errorf("active = %d", fs.Active())
	}
}

func TestFairShareManyFlowsConservation(t *testing.T) {
	s := NewSim()
	fs := NewFairShare(s, 1000, 0)
	const n = 200
	var last Time
	total := 0.0
	for i := 0; i < n; i++ {
		size := float64(100 + i)
		total += size
		fs.Start(size, func() { last = s.Now() })
	}
	s.Run()
	// Work conservation: everything finishes no earlier than
	// total/capacity, and close to it (the largest flow lingers
	// slightly).
	lower := total / 1000
	if last < lower-1e-6 {
		t.Errorf("finished at %f, impossible before %f", last, lower)
	}
	if last > lower*1.3 {
		t.Errorf("finished at %f, way beyond work-conserving bound %f", last, lower)
	}
}

func TestDualFairShareIOPSDominates(t *testing.T) {
	s := NewSim()
	// 1000 bytes/s, 10 ops/s.
	d := NewDualFairShare(s, 1000, 0, 10, 0)
	var doneAt Time
	d.Start(100, 50, func() { doneAt = s.Now() }) // 0.1s of bytes, 5s of ops
	s.Run()
	if math.Abs(doneAt-5) > 1e-6 {
		t.Errorf("dual flow at %f, want 5 (ops-bound)", doneAt)
	}
}

// Property: with k simultaneous equal flows, each finishes at
// k*size/capacity.
func TestQuickFairShareEqualFlows(t *testing.T) {
	f := func(k uint8, sz uint16) bool {
		n := int(k%8) + 1
		size := float64(sz%1000) + 1
		s := NewSim()
		fs := NewFairShare(s, 100, 0)
		finish := make([]Time, n)
		for i := 0; i < n; i++ {
			i := i
			fs.Start(size, func() { finish[i] = s.Now() })
		}
		s.Run()
		want := float64(n) * size / 100
		for _, ft := range finish {
			if math.Abs(ft-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSimAfterAllocs pins what the event loop allocates per event once
// its heap has grown: nothing. Each run keeps 64 events pending, every
// one of which reschedules its own bound handler until 4 096 have run.
func TestSimAfterAllocs(t *testing.T) {
	const pending, events = 64, 4096
	s := NewSim()
	left := 0
	var fire func()
	fire = func() {
		if left--; left >= pending {
			s.After(float64(left%7), fire)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		left = events
		for i := 0; i < pending; i++ {
			s.After(float64(i), fire)
		}
		s.Run()
	})
	if perEvent := allocs / events; perEvent != 0 {
		t.Errorf("Sim.After: %.4f allocations per event, want 0", perEvent)
	}
}

// TestFairShareStepAllocs pins what a fair-share step allocates once the
// flow heap and the free lists have grown: nothing, for a FairShare (a
// flow finishing, the wake rescheduling, the next flow starting) and for
// a DualFairShare (its request's two flows and the join that waits for
// both).
func TestFairShareStepAllocs(t *testing.T) {
	const active, steps = 32, 2048
	s := NewSim()
	link := NewFairShare(s, 1e9, 0)
	dual := NewDualFairShare(s, 1e9, 0, 1e4, 100)
	left := 0
	var next, nextDual func()
	next = func() {
		if left--; left >= active {
			link.Start(1e6*float64(1+left%5), next)
		}
	}
	nextDual = func() {
		if left--; left >= active {
			dual.Start(1e6*float64(1+left%5), float64(1+left%3), nextDual)
		}
	}
	for _, c := range []struct {
		name  string
		start func()
	}{
		{"FairShare", func() { link.Start(1e6, next) }},
		{"DualFairShare", func() { dual.Start(1e6, 1, nextDual) }},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			left = steps
			for i := 0; i < active; i++ {
				c.start()
			}
			s.Run()
		})
		if perStep := allocs / steps; perStep != 0 {
			t.Errorf("%s: %.4f allocations per step, want 0", c.name, perStep)
		}
	}
}
