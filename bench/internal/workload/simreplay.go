package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/bench/internal/stats"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// simReplay is sim_replay: the discrete-event simulator. Each epoch
// runs the standard LNNI configuration at L3 (150 workers, 100 000
// invocations) and then at L2 (150 workers, 5 000 invocations) with
// seed + epoch. It is the only place policy runs over a 150-worker view
// for 10⁵ decisions and event.FairShare runs at all, so it is where a
// policy, sim or event change must show "no worse". One operation is
// one simulated invocation; a latency sample is one epoch's wall time.
type simReplay struct {
	cfg Config

	workers, l3Inv, l2Inv int
	pinned                string
}

// PinnedSim is bench/testdata/sim_pinned.json: the simulated
// application times of the two standard configurations at the default
// seed, which every run's warm-up must reproduce exactly.
type PinnedSim struct {
	Workers     int     `json:"workers"`
	L3Inv       int     `json:"l3_invocations"`
	L3TotalTime float64 `json:"l3_total_time_s"`
	L2Inv       int     `json:"l2_invocations"`
	L2TotalTime float64 `json:"l2_total_time_s"`
}

// pinnedSimPath is where the pinned values live, relative to the
// directory the benchmark is run from (the repository root).
const pinnedSimPath = "bench/testdata/sim_pinned.json"

func newSimReplay(cfg Config) *simReplay {
	w := &simReplay{cfg: cfg, workers: 150, l3Inv: 100000, l2Inv: 5000, pinned: pinnedSimPath}
	if cfg.Short {
		w.workers, w.l3Inv, w.l2Inv, w.pinned = 8, 400, 64, ""
	}
	return w
}

func (w *simReplay) config(level core.ReuseLevel, seed uint64) sim.Config {
	n := w.l3Inv
	if level == core.L2 {
		n = w.l2Inv
	}
	cfg := experiments.SeedConfig(level, w.workers, n)
	if seed != 0 {
		cfg.Seed = seed
	}
	return cfg
}

// checkRun verifies one simulator result: every invocation completed
// and the application time is a positive finite number.
func checkRun(r *sim.Result, want int) error {
	if len(r.Times) != want {
		return fmt.Errorf("simulator completed %d of %d invocations", len(r.Times), want)
	}
	if !(r.TotalTime > 0) || math.IsInf(r.TotalTime, 0) {
		return fmt.Errorf("simulated application time is %v", r.TotalTime)
	}
	return nil
}

// setup is the warm-up: both configurations at the default seed, whose
// simulated times must equal the pinned ones — the simulator is
// deterministic, so any difference is a behaviour change.
func (w *simReplay) setup() error {
	l3 := sim.Run(w.config(core.L3, 0))
	if err := checkRun(l3, w.l3Inv); err != nil {
		return err
	}
	l2 := sim.Run(w.config(core.L2, 0))
	if err := checkRun(l2, w.l2Inv); err != nil {
		return err
	}
	if w.pinned == "" {
		return nil
	}
	data, err := os.ReadFile(w.pinned)
	if err != nil {
		return fmt.Errorf("reading the pinned simulator times (run from the repository root): %w", err)
	}
	var pin PinnedSim
	if err := json.Unmarshal(data, &pin); err != nil {
		return fmt.Errorf("%s: %w", w.pinned, err)
	}
	if pin.Workers != w.workers || pin.L3Inv != w.l3Inv || pin.L2Inv != w.l2Inv {
		return fmt.Errorf("%s pins %d workers, %d/%d invocations; the workload runs %d, %d/%d", w.pinned, pin.Workers, pin.L3Inv, pin.L2Inv, w.workers, w.l3Inv, w.l2Inv)
	}
	if l3.TotalTime != pin.L3TotalTime || l2.TotalTime != pin.L2TotalTime {
		return fmt.Errorf("simulated times at the default seed are L3 %v, L2 %v; pinned are L3 %v, L2 %v", l3.TotalTime, l2.TotalTime, pin.L3TotalTime, pin.L2TotalTime)
	}
	return nil
}

// Pin computes the values for pinnedSimPath at full size.
func Pin() PinnedSim {
	w := newSimReplay(Config{})
	return PinnedSim{
		Workers: w.workers,
		L3Inv:   w.l3Inv, L3TotalTime: sim.Run(w.config(core.L3, 0)).TotalTime,
		L2Inv: w.l2Inv, L2TotalTime: sim.Run(w.config(core.L2, 0)).TotalTime,
	}
}

func (w *simReplay) phase(seconds float64, tr *tracer) (*phaseResult, error) {
	var l3us, l2us []float64
	var events, invs int64
	pr := syncPhase(w.cfg.host, seconds, tr, w.l3Inv+w.l2Inv, func(n int) (int, error) {
		seed := w.cfg.Seed + uint64(n) + 1
		if tr == nil {
			if err := checkRun(sim.Run(w.config(core.L3, seed)), w.l3Inv); err != nil {
				return w.l3Inv + w.l2Inv, err
			}
			return w.l3Inv + w.l2Inv, checkRun(sim.Run(w.config(core.L2, seed)), w.l2Inv)
		}
		// Traced: step the same run through the simulator's debug entry
		// point, which exposes the event loop and so the event count.
		t0 := tr.clock.Now()
		root := tr.st.Add(0, int64(n+1), "client.op", t0, t0, 1)
		idx := len(tr.st.Spans) - 1
		var firstErr error
		for _, level := range []core.ReuseLevel{core.L3, core.L2} {
			want, name := w.l3Inv, "sim.l3"
			if level == core.L2 {
				want, name = w.l2Inv, "sim.l2"
			}
			s0 := tr.clock.Now()
			st, loop := sim.DebugStart(w.config(level, seed))
			total := loop.Run()
			s1 := tr.clock.Now()
			tr.st.Add(root, int64(n+1), name, s0, s1, int64(want))
			if n == 0 {
				// The first traced epoch alone, so that the count depends on
				// the seed and not on how many epochs the phase had time for.
				events += loop.Events()
				invs += int64(want)
			}
			perInv := float64(s1-s0) / 1e3 / float64(want)
			if level == core.L3 {
				l3us = append(l3us, perInv)
			} else {
				l2us = append(l2us, perInv)
			}
			if done := sim.DebugCompleted(st); firstErr == nil && (done != want || !(total > 0)) {
				firstErr = fmt.Errorf("simulator completed %d of %d invocations in %v simulated seconds", done, want, total)
			}
		}
		tr.st.Spans[idx].EndNs = tr.clock.Now()
		return w.l3Inv + w.l2Inv, firstErr
	})
	if tr != nil && invs > 0 {
		pr.extra["sim.l3_us_per_inv"] = stats.Median(l3us)
		pr.extra["sim.l2_us_per_inv"] = stats.Median(l2us)
		pr.extra["sim.events_per_inv"] = float64(events) / float64(invs)
	}
	return pr, nil
}

func (w *simReplay) counters() counters { return counters{} }

func (w *simReplay) teardown() error { return nil }

// attributedUs: one simulated invocation costs its share of the event
// loop (events per invocation at the measured raw event rate) and one
// ready-instance placement.
func (w *simReplay) attributedUs(m map[string]float64) float64 {
	var loop float64
	if rate := m["event.events_per_s"]; rate > 0 {
		loop = m["sim.events_per_inv"] / rate * 1e6
	}
	return loop + us(m, "policy.place_ready_batch_ns_per_inv_64")
}
