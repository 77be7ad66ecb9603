package layers

import (
	"fmt"
	"time"

	"repro/bench/internal/stats"
	"repro/internal/minipy"
	"repro/taskvine"
)

const probeTimeout = 60 * time.Second

// engine: three readings that need a live (one-worker) cluster — what
// taskvine.Call costs the submitter, the call→collect round trip with
// nothing else in flight (the sum of every layer with no queueing), and
// the deploy path from InstallLibrary to the first result.
func (s *suite) engine() error {
	m, err := taskvine.NewManager(taskvine.Options{})
	if err != nil {
		return err
	}
	defer m.Shutdown()
	if err := m.SpawnLocalWorkers(1, taskvine.WorkerOptions{}); err != nil {
		return err
	}
	env, err := m.Exec("def noop(x):\n    return x\n")
	if err != nil {
		return err
	}
	lib, err := m.CreateLibraryFromFunctions(probeLib, taskvine.LibraryOptions{Slots: 16}, env, "noop")
	if err != nil {
		return err
	}
	if err := m.InstallLibrary(lib); err != nil {
		return err
	}
	arg := minipy.Int(1234567890123)
	pingPong := func() error {
		if _, err := m.Call(probeLib, "noop", arg); err != nil {
			return err
		}
		res, err := m.Collect(1, probeTimeout)
		if err != nil {
			return err
		}
		if !res[0].Ok {
			return fmt.Errorf("noop failed: %s", res[0].Err)
		}
		return nil
	}
	if err := pingPong(); err != nil { // deploys the instance
		return err
	}

	// Submit cost: only the Calls of each burst are inside the counted
	// time; collecting the burst is not.
	burst := s.n(2000)
	ns, err := s.timed("taskvine.call", reps, func() (int, int64, error) {
		t0 := s.clock.Now()
		for i := 0; i < burst; i++ {
			if _, err := m.Call(probeLib, "noop", arg); err != nil {
				return 0, 0, err
			}
		}
		inCalls := s.clock.Now() - t0
		res, err := m.Collect(burst, probeTimeout)
		if err != nil {
			return 0, 0, err
		}
		for _, r := range res {
			if !r.Ok {
				return 0, 0, fmt.Errorf("noop failed: %s", r.Err)
			}
		}
		return burst, inCalls, nil
	})
	if err != nil {
		return err
	}
	s.out["taskvine.call_us"] = ns / 1e3

	trips := s.n(2000)
	rtts := make([]float64, 0, trips)
	t0 := s.clock.Now()
	for i := 0; i < trips; i++ {
		a := s.clock.Now()
		if err := pingPong(); err != nil {
			return err
		}
		rtts = append(rtts, float64(s.clock.Now()-a))
	}
	s.st.Add(0, 0, "client.serial_rtt", t0, s.clock.Now(), int64(trips))
	s.out["client.serial_rtt_us"] = stats.Median(rtts) / 1e3

	// Deploy path: a fresh one-worker cluster per repetition, timed from
	// InstallLibrary to the first result of the LNNI library (plan the
	// deploy, stage the environment, start the instance, run one call).
	ns, err = s.timed("taskvine.install", reps, func() (int, int64, error) {
		c, err := taskvine.NewManager(taskvine.Options{})
		if err != nil {
			return 0, 0, err
		}
		defer c.Shutdown()
		if err := c.SpawnLocalWorkers(1, taskvine.WorkerOptions{}); err != nil {
			return 0, 0, err
		}
		env, err := c.Exec(LNNIApp)
		if err != nil {
			return 0, 0, err
		}
		lib, err := c.CreateLibraryFromFunctions("mllib", taskvine.LibraryOptions{ContextSetup: "context_setup", Slots: 4}, env, "classify")
		if err != nil {
			return 0, 0, err
		}
		t0 := s.clock.Now()
		if err := c.InstallLibrary(lib); err != nil {
			return 0, 0, err
		}
		if _, err := c.Call("mllib", "classify", minipy.Int(1), minipy.Int(2)); err != nil {
			return 0, 0, err
		}
		res, err := c.Collect(1, probeTimeout)
		if err != nil {
			return 0, 0, err
		}
		if !res[0].Ok {
			return 0, 0, fmt.Errorf("classify failed: %s", res[0].Err)
		}
		return 1, s.clock.Now() - t0, nil
	})
	if err != nil {
		return err
	}
	s.out["taskvine.install_ms"] = ns / 1e6
	return nil
}
