package workload

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/bench/internal/layers"
	"repro/bench/internal/loadgen"
	"repro/bench/internal/stats"
	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/pickle"
	"repro/taskvine"
)

// lnniApp is the paper's LNNI application (§4.1.1): context_setup +
// classify for L3, and classify_task — the "naive transformation" that
// reloads the model inside every call — for L1 and L2. The layer probes
// drive the same source.
const lnniApp = layers.LNNIApp

// lnniBatch is the images per call: small, so that what a task pays
// for is reloading its context, not the inference.
const lnniBatch = 2

// reload is context_reload: stateless L1/L2 tasks. Every operation
// unpickles the function, imports its modules and reloads the model;
// L1 also reads code and environment from the shared filesystem, L2
// hits the worker's cache. The dispatch plane is nearly idle — the
// mirror image of invoke_burst.
type reload struct {
	cfg Config

	workers, window, epochOps, warmOps int

	c       *cluster
	wrapped *taskvine.WrappedFunction
	// args are the seeded (seed, n) pairs; op seq runs
	// classify_task(*args[seq%len], id) and must return want[seq%len],
	// the pickled value the application's own interpreter computes. id
	// numbers the cluster's operations, so no two argument tuples are the
	// same bytes (see layers.LNNIApp).
	args   [][]minipy.Value
	want   [][]byte
	nextOp int64
}

func newReload(cfg Config) *reload {
	w := &reload{cfg: cfg, workers: 8, window: 64, epochOps: 1000, warmOps: 4000}
	if cfg.Short {
		w.workers, w.window, w.epochOps, w.warmOps = 2, 8, 100, 50
	}
	return w
}

// levelOf alternates L1 and L2 by operation index.
func levelOf(seq int) core.ReuseLevel {
	if seq%2 == 0 {
		return core.L1
	}
	return core.L2
}

func (w *reload) setup() error {
	c, err := startCluster(w.cfg.host, w.workers, taskvine.Options{}, taskvine.WorkerOptions{})
	if err != nil {
		return err
	}
	w.c = c
	env, err := c.m.Exec(lnniApp)
	if err != nil {
		return err
	}
	fn, err := taskvine.FuncFrom(env, "classify_task")
	if err != nil {
		return err
	}
	if w.wrapped, err = c.m.WrapFunction(fn); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(int64(w.cfg.Seed)))
	const distinct = 64
	for i := 0; i < distinct; i++ {
		args := []minipy.Value{minipy.Int(rng.Int63n(1 << 30)), minipy.Int(lnniBatch)}
		out, err := c.m.Interp().Call(fn, append(args, minipy.Int(0)), nil)
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

	if _, err := c.prime(func() (int64, error) { return w.submit(1) }); err != nil {
		return err
	}
	h, submit := w.windowed(nil)
	return c.warm(w.warmOps, h, submit)
}

func (w *reload) submit(seq int) (int64, error) {
	args := w.args[seq%len(w.args)]
	w.nextOp++
	return w.c.m.SubmitWrappedCall(w.wrapped, levelOf(seq), core.Resources{Cores: 2}, args[0], args[1], minipy.Int(w.nextOp))
}

func (w *reload) check(seq int, res *core.Result) error {
	if !bytes.Equal(res.Value, w.want[seq%len(w.want)]) {
		return fmt.Errorf("classify_task returned %d bytes that differ from the application's own result", len(res.Value))
	}
	return nil
}

// windowed builds the closed-loop pass with `window` tasks in flight.
// byLevel, when set, receives each latency under its reuse level.
func (w *reload) windowed(byLevel *[2]loadgen.I64List) (hooks, func(l *loop) error) {
	tokens := make(chan struct{}, w.window)
	for i := 0; i < w.window; i++ {
		tokens <- struct{}{}
	}
	h := hooks{check: w.check, onResult: func(seq int, _ *core.Result, from, now int64) {
		if byLevel != nil {
			byLevel[seq%2].Append(now - from)
		}
		tokens <- struct{}{}
	}}
	return h, func(l *loop) error {
		for seq := 0; ; seq++ {
			if l.stopAt(seq, w.epochOps) {
				return nil
			}
			if err := l.wait(tokens); err != nil {
				return err
			}
			now := l.clock.Now()
			l.begin(now)
			id, err := w.submit(seq)
			if err := l.end(seq, now, id, err); err != nil {
				return err
			}
		}
	}
}

func (w *reload) phase(seconds float64, tr *tracer) (*phaseResult, error) {
	var byLevel *[2]loadgen.I64List
	if tr != nil {
		byLevel = new([2]loadgen.I64List)
	}
	h, submit := w.windowed(byLevel)
	pr := w.c.run(w.epochOps, budget{seconds: seconds}, tr, h, submit)
	if byLevel != nil {
		for i, name := range []string{"client.l1_p50_us", "client.l2_p50_us"} {
			p50, _ := stats.DurationsNs(byLevel[i].Flatten())
			pr.extra[name] = p50 / 1e3
		}
	}
	return pr, nil
}

func (w *reload) counters() counters { return readCounters(w.c.m) }

func (w *reload) teardown() error {
	if w.c == nil {
		return nil
	}
	return w.c.stop()
}

// attributedUs: the driven costs of one stateless task — pickling its
// arguments, planning its placement, unpickling function and arguments
// on the worker, importing its two modules, and one cache lookup per
// cached input (L2; L1 reads the shared filesystem instead). The
// function body itself (model reload + inference) is not a layer of
// the engine and stays in the unattributed remainder.
func (w *reload) attributedUs(m map[string]float64) float64 {
	return us(m, "pickle.marshal_args_ns") + us(m, "policy.plan_task_batch_ns_per_task") +
		us(m, "pickle.unmarshal_func_ns") + us(m, "pickle.unmarshal_args_ns") +
		us(m, "minipy.module_load_us") + 2*us(m, "dataplane.pin_resolve_hit_ns")
}
