package hostref

import (
	"testing"
	"time"
)

func TestKernelIsFixedWorkAndAllocatesNothing(t *testing.T) {
	k := new(kernel)
	a := k.run(7)
	if b := k.run(7); a != b {
		t.Errorf("the same seed gave %d then %d", a, b)
	}
	if c := k.run(8); a == c {
		t.Errorf("seeds 7 and 8 both gave %d", a)
	}
	if n := testing.AllocsPerRun(3, func() { k.run(9) }); n != 0 {
		t.Errorf("a repetition allocated %v times", n)
	}
}

// fake is a sampler that never ran, holding the given samples.
func fake(cpu ...float64) *Sampler {
	s := &Sampler{cpu: cpu}
	s.n.Store(int64(len(cpu)))
	return s
}

func TestSpeedIsTheMedianOfAWidenedWindow(t *testing.T) {
	if got := fake().Speed(0, 0); got != 1 {
		t.Errorf("no samples: speed %v, want 1", got)
	}
	// 100 samples: the first 50 at nominal, the rest a quarter slower.
	cpu := make([]float64, 100)
	for i := range cpu {
		cpu[i] = NominalNs
		if i >= 50 {
			cpu[i] = 1.25 * NominalNs
		}
	}
	s := fake(cpu...)
	for _, c := range []struct {
		from, to int
		want     float64
	}{
		{0, 50, 1}, // wide enough as it is
		{50, 100, 1.25},
		{2, 4, 1},       // widened to [0, 40): still all nominal
		{97, 99, 1.25},  // widened to [60, 100)
		{49, 51, 1.125}, // widened evenly to [30, 70): half and half
		{-5, 500, 1.125},
	} {
		if got := s.Speed(c.from, c.to); got != c.want {
			t.Errorf("Speed(%d, %d) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if got := fake(3*NominalNs, NominalNs, 2*NominalNs).Speed(1, 2); got != 2 {
		t.Errorf("three samples in all: speed %v, want their median 2", got)
	}
}

func TestSamplerRunsAndStops(t *testing.T) {
	s := Start()
	deadline := time.Now().Add(5 * time.Second)
	for s.Samples() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	s.Stop()
	n := s.Samples()
	if n < 3 {
		t.Fatalf("%d samples after five seconds", n)
	}
	if sp := s.Speed(0, n); !(sp > 0.05 && sp < 50) {
		t.Errorf("speed %v: a repetition should take milliseconds", sp)
	}
	if s.UsedNs() <= 0 {
		t.Errorf("the sampler reports no CPU time of its own")
	}
	time.Sleep(2 * gap)
	if s.Samples() != n {
		t.Errorf("sampling went on after Stop")
	}
}
