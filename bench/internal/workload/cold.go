package workload

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/content"
	"repro/internal/minipy"
	"repro/internal/pickle"
	"repro/taskvine"
)

// cold is context_cold: every operation is one full cold start on a
// fresh cluster — Discover (Exec, CreateLibraryFromFunctions: hoist
// scan, poncho resolve + pack), Distribute (a fresh 1 MB
// peer-transferable input, InstallLibrary, library start-up on every
// worker), one Call per slot, Collect, CheckQuiescence, Shutdown. It is
// what a user waits for before the first result (the paper's
// "overhead/worker", Table 2); steady-state dispatch does almost
// nothing.
type cold struct {
	cfg Config

	workers, slots, cyclesPerEpoch, warmCycles int
	blobBytes                                  int

	rng  *rand.Rand
	args [][]minipy.Value // one (seed, n) per slot of the cluster
	want [][]byte
	acc  counters // summed over the cycles' clusters
}

func newCold(cfg Config) *cold {
	w := &cold{cfg: cfg, workers: 8, slots: 4, cyclesPerEpoch: 5, warmCycles: 20, blobBytes: 1 << 20}
	if cfg.Short {
		w.workers, w.slots, w.cyclesPerEpoch, w.warmCycles, w.blobBytes = 2, 2, 1, 1, 16<<10
	}
	return w
}

func (w *cold) setup() error {
	w.rng = rand.New(rand.NewSource(int64(w.cfg.Seed)))
	// The expected values come from the application's own interpreter:
	// run context_setup, then classify, with no cluster involved.
	m, err := taskvine.NewManager(taskvine.Options{})
	if err != nil {
		return err
	}
	defer m.Shutdown()
	env, err := m.Exec(lnniApp)
	if err != nil {
		return err
	}
	setupFn, err := taskvine.FuncFrom(env, "context_setup")
	if err != nil {
		return err
	}
	classify, err := taskvine.FuncFrom(env, "classify")
	if err != nil {
		return err
	}
	if _, err := m.Interp().Call(setupFn, nil, nil); err != nil {
		return fmt.Errorf("context_setup in the application interpreter: %w", err)
	}
	for i := 0; i < w.workers*w.slots; i++ {
		args := []minipy.Value{minipy.Int(w.rng.Int63n(1 << 30)), minipy.Int(lnniBatch)}
		out, err := m.Interp().Call(classify, args, nil)
		if err != nil {
			return fmt.Errorf("computing the expected result: %w", err)
		}
		data, err := pickle.Marshal(out)
		if err != nil {
			return err
		}
		w.args = append(w.args, args)
		w.want = append(w.want, data)
	}
	for i := 0; i < w.warmCycles; i++ {
		if err := w.cycle(nil, 0); err != nil {
			return fmt.Errorf("warm-up cycle %d: %w", i, err)
		}
	}
	return nil
}

// cycle is one operation. In a traced phase each stage is a child span
// of the cycle's client.op span.
func (w *cold) cycle(tr *tracer, op int64) (err error) {
	var root int64
	stage := func(name string, f func() error) error {
		if tr == nil {
			return f()
		}
		t0 := tr.clock.Now()
		err := f()
		tr.st.Add(root, op, name, t0, tr.clock.Now(), 1)
		return err
	}
	if tr != nil {
		t0 := tr.clock.Now()
		root = tr.st.Add(0, op, "client.op", t0, t0, 1)
		idx := len(tr.st.Spans) - 1
		defer func() { tr.st.Spans[idx].EndNs = tr.clock.Now() }()
	}

	var m *taskvine.Manager
	if err := stage("cold.new_manager", func() (e error) {
		m, e = taskvine.NewManager(taskvine.Options{})
		return e
	}); err != nil {
		return err
	}
	defer func() {
		// Quiescence is part of the operation's output check.
		stopErr := stage("cold.shutdown", func() error {
			w.acc.add(readCounters(m))
			q := quiesce(m)
			m.Shutdown()
			return q
		})
		if err == nil && stopErr != nil {
			err = fmt.Errorf("engine not quiescent after the cycle: %w", stopErr)
		}
	}()
	if err := stage("cold.spawn_workers", func() error {
		return m.SpawnLocalWorkers(w.workers, taskvine.WorkerOptions{})
	}); err != nil {
		return err
	}
	var env *minipy.Env
	if err := stage("cold.exec", func() (e error) {
		env, e = m.Exec(lnniApp)
		return e
	}); err != nil {
		return err
	}
	var lib *taskvine.Library
	if err := stage("cold.create_library", func() (e error) {
		lib, e = m.CreateLibraryFromFunctions("mllib", taskvine.LibraryOptions{ContextSetup: "context_setup", Slots: w.slots}, env, "classify")
		return e
	}); err != nil {
		return err
	}
	if err := stage("cold.install", func() error {
		blob := make([]byte, w.blobBytes)
		w.rng.Read(blob) // fresh content: nothing about it is cached anywhere
		lib.AddInput(content.NewBlob("dataset", blob), true)
		return m.InstallLibrary(lib)
	}); err != nil {
		return err
	}
	ids := make(map[int64]int, len(w.args))
	if err := stage("client.submit", func() error {
		for i, args := range w.args {
			id, err := m.Call("mllib", "classify", args...)
			if err != nil {
				return err
			}
			ids[id] = i
		}
		return nil
	}); err != nil {
		return err
	}
	return stage("client.wait", func() error {
		results, err := m.Collect(len(w.args), collectTimeout)
		if err != nil {
			return err
		}
		for i := range results {
			res := &results[i]
			if !res.Ok {
				return fmt.Errorf("call %d failed: %s", res.ID, res.Err)
			}
			if k, ok := ids[res.ID]; !ok || !bytes.Equal(res.Value, w.want[k]) {
				return fmt.Errorf("call %d returned a value that differs from the application's own result", res.ID)
			}
			if tr != nil {
				tr.observed(res)
			}
		}
		return nil
	})
}

func (w *cold) phase(seconds float64, tr *tracer) (*phaseResult, error) {
	return syncPhase(w.cfg.host, seconds, tr, w.cyclesPerEpoch, func(n int) (int, error) {
		return 1, w.cycle(tr, int64(n+1))
	}), nil
}

func (w *cold) counters() counters { return w.acc }

func (w *cold) teardown() error { return nil }

// attributedUs: the driven costs of one cold start — Discover
// (create_library, which contains the poncho resolve and pack),
// Distribute with the first library start-up (install), the start-up
// on each of the other workers, and one invocation per slot.
func (w *cold) attributedUs(m map[string]float64) float64 {
	calls := float64(w.workers * w.slots)
	return us(m, "taskvine.create_library_ms") + us(m, "taskvine.install_ms") +
		float64(w.workers-1)*us(m, "library.start_ms") +
		calls*(us(m, "taskvine.call_us")+us(m, "library.invoke_ns"))
}
