package layers

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// event: the discrete-event core by itself — the raw rate of the event
// heap with a thousand events pending, and one FairShare step (a flow
// finishing and the next one starting) with 256 flows in service.
func (s *suite) event() error {
	total := s.n(400000)
	ns, err := s.timed("event.loop", reps, func() (int, int64, error) {
		loop := event.NewSim()
		rng := rand.New(rand.NewSource(3))
		fired := 0
		var fire func()
		fire = func() {
			if fired++; fired+1024 <= total {
				loop.After(rng.Float64(), fire)
			}
		}
		for i := 0; i < 1024 && i < total; i++ {
			loop.After(rng.Float64(), fire)
		}
		loop.Run()
		if got := int(loop.Events()); got != fired {
			return 0, 0, fmt.Errorf("event loop ran %d events, callbacks saw %d", got, fired)
		}
		return fired, 0, nil
	})
	if err != nil {
		return err
	}
	s.out["event.events_per_s"] = 1e9 / ns

	steps := s.n(100000)
	ns, err = s.timed("event.fairshare_step", reps, func() (int, int64, error) {
		loop := event.NewSim()
		link := event.NewFairShare(loop, 1e9, 0)
		rng := rand.New(rand.NewSource(4))
		finished := 0
		var next func()
		next = func() {
			if finished++; finished+256 <= steps {
				link.Start(1e6*(0.5+rng.Float64()), next)
			}
		}
		for i := 0; i < 256 && i < steps; i++ {
			link.Start(1e6*(0.5+rng.Float64()), next)
		}
		loop.Run()
		if link.Active() != 0 {
			return 0, 0, fmt.Errorf("fair-share link still has %d flows after the run", link.Active())
		}
		return finished, 0, nil
	})
	if err != nil {
		return err
	}
	s.out["event.fairshare_step_ns"] = ns
	return nil
}

// sim: the simulator on the standard LNNI configuration at the default
// seed, at a twentieth of sim_replay's size and run once — events per
// simulated invocation (a count that must repeat exactly) and wall time
// per invocation at L3 and L2. At this size building the 150-worker
// cluster is much of the time; sim_replay's own traced run replaces
// these with the values of its full-size epochs.
func (s *suite) sim() error {
	workers, l3, l2 := 150, s.n(5000), s.n(300)
	if s.short {
		workers = 8
	}
	var events, invs int64
	for _, c := range []struct {
		level core.ReuseLevel
		inv   int
		name  string
	}{{core.L3, l3, "sim.l3"}, {core.L2, l2, "sim.l2"}} {
		ns, err := s.timed(c.name, 1, func() (int, int64, error) {
			st, loop := sim.DebugStart(experiments.SeedConfig(c.level, workers, c.inv))
			loop.Run()
			if done := sim.DebugCompleted(st); done != c.inv {
				return 0, 0, fmt.Errorf("simulator completed %d of %d invocations", done, c.inv)
			}
			events, invs = events+loop.Events(), invs+int64(c.inv)
			return c.inv, 0, nil
		})
		if err != nil {
			return err
		}
		s.out[c.name+"_us_per_inv"] = ns / 1e3
	}
	s.out["sim.events_per_inv"] = float64(events) / float64(invs)
	return nil
}
