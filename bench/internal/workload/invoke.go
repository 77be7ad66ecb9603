package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/bench/internal/loadgen"
	"repro/bench/internal/stats"
	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/pickle"
	"repro/taskvine"
)

// invoke is invoke_burst and invoke_paced: the same cluster (64
// in-process workers × 16 slots) and the same warm no-op library,
// driven closed loop in bursts or open loop from a due-time schedule.
// Context reuse is fully amortised, so only the dispatch plane works:
// taskvine.Call → pickle → shard intake → policy → sender/proto →
// worker → library → onResult.
type invoke struct {
	cfg   Config
	paced bool

	workers, slots int
	// burst mode: bursts of `burst` Calls then a barrier; an epoch is
	// burstsPerEpoch bursts.
	burst, burstsPerEpoch, warmBursts int
	// paced mode: a fixed arrival schedule; an epoch is epochOps
	// operations.
	sched             loadgen.Schedule
	epochOps, warmOps int

	c *cluster
	// args are the seeded arguments; op seq calls noop(args[seq%len]),
	// which must echo the argument: want holds the pickled echoes.
	args []minipy.Value
	want [][]byte
}

const (
	invokeLib = "dispatch"
	invokeFn  = "noop"
)

func newInvoke(cfg Config, paced bool) *invoke {
	w := &invoke{
		cfg: cfg, paced: paced,
		workers: 64, slots: 16,
		burst: 2000, burstsPerEpoch: 10, warmBursts: 100,
		sched:    loadgen.Schedule{Rate: 20000, Tick: time.Millisecond},
		epochOps: 20000, warmOps: 30000,
	}
	if cfg.Short {
		w.workers, w.slots = 4, 4
		w.burst, w.burstsPerEpoch, w.warmBursts = 50, 2, 2
		w.sched.Rate, w.epochOps, w.warmOps = 2000, 200, 100
	}
	return w
}

func (w *invoke) setup() error {
	rng := rand.New(rand.NewSource(int64(w.cfg.Seed)))
	w.args = make([]minipy.Value, w.burst)
	w.want = make([][]byte, w.burst)
	for i := range w.args {
		v := minipy.Int(rng.Int63())
		w.args[i] = v
		echo, err := pickle.Marshal(v)
		if err != nil {
			return err
		}
		w.want[i] = echo
	}

	c, err := startCluster(w.cfg.host, w.workers, taskvine.Options{}, taskvine.WorkerOptions{})
	if err != nil {
		return err
	}
	w.c = c
	env, err := c.m.Exec("def noop(x):\n    return x\n")
	if err != nil {
		return err
	}
	lib, err := c.m.CreateLibraryFromFunctions(invokeLib, taskvine.LibraryOptions{Slots: w.slots}, env, invokeFn)
	if err != nil {
		return err
	}
	if err := c.m.InstallLibrary(lib); err != nil {
		return err
	}
	if _, err := c.prime(func() (int64, error) { return c.m.Call(invokeLib, invokeFn, w.args[0]) }); err != nil {
		return err
	}
	// The warm-up deploys a library instance on every worker and runs a
	// fixed count of bursts: the same set-up for both loops.
	h, submit := w.bursts()
	return c.warm(w.warmBursts*w.burst, h, submit)
}

// settle runs the open loop in for a fixed count of operations. Its
// length is the schedule's on any host, so it is no part of setup_s.
func (w *invoke) settle() error {
	if !w.paced {
		return nil
	}
	return w.c.warm(w.warmOps, hooks{check: w.check}, w.submitPaced(nil))
}

func (w *invoke) check(seq int, res *core.Result) error {
	if want := w.want[seq%len(w.want)]; !bytes.Equal(res.Value, want) {
		return fmt.Errorf("noop did not echo its argument: got %d bytes %x", len(res.Value), res.Value)
	}
	return nil
}

// bursts builds the closed-loop pass: a burst of Calls, then a barrier
// the collector signals once it has seen the whole burst.
func (w *invoke) bursts() (hooks, func(l *loop) error) {
	barrier := make(chan struct{}, 1)
	collected := 0
	h := hooks{check: w.check, onResult: func(int, *core.Result, int64, int64) {
		if collected++; collected%w.burst == 0 {
			barrier <- struct{}{}
		}
	}}
	return h, func(l *loop) error {
		for b := 0; ; b++ {
			if l.stopAt(b*w.burst, w.burst*w.burstsPerEpoch) {
				return nil
			}
			for j := 0; j < w.burst; j++ {
				now := l.clock.Now()
				seq := l.begin(now)
				id, err := w.c.m.Call(invokeLib, invokeFn, w.args[seq%len(w.args)])
				if err := l.end(seq, now, id, err); err != nil {
					return err
				}
			}
			if err := l.wait(barrier); err != nil {
				return err
			}
		}
	}
}

// submitPaced is the open-loop submitter: operation seq is due at
// start + Due(seq) and is submitted as soon after that as the
// generator manages; its latency counts from the due time. late
// collects how far behind the schedule each submission ran.
func (w *invoke) submitPaced(late *loadgen.I64List) func(l *loop) error {
	return func(l *loop) error {
		start := l.clock.Now() + int64(w.sched.Tick)
		for seq := 0; ; seq++ {
			due := start + w.sched.Due(seq)
			if l.budget.ops > 0 {
				if seq >= l.budget.ops {
					return nil
				}
			} else if seq%w.epochOps == 0 && float64(due-start)/1e9 >= l.budget.seconds {
				// The schedule, not the clock, ends the phase: the number
				// of operations attempted is the same on every run.
				return nil
			}
			now := l.clock.Now()
			if now < due {
				now = l.clock.SleepUntil(due)
			}
			if late != nil {
				late.Append(now - due)
			}
			l.begin(due)
			id, err := w.c.m.Call(invokeLib, invokeFn, w.args[seq%len(w.args)])
			if err := l.end(seq, now, id, err); err != nil {
				return err
			}
		}
	}
}

func (w *invoke) phase(seconds float64, tr *tracer) (*phaseResult, error) {
	b := budget{seconds: seconds}
	if !w.paced {
		h, submit := w.bursts()
		return w.c.run(w.burst*w.burstsPerEpoch, b, tr, h, submit), nil
	}
	var late loadgen.I64List
	pr := w.c.run(w.epochOps, b, tr, hooks{check: w.check}, w.submitPaced(&late))
	pr.openLoop = true
	if tr != nil {
		_, p99 := stats.DurationsNs(late.Flatten())
		pr.extra["client.gen_late_p99_us"] = p99 / 1e3
	}
	return pr, nil
}

func (w *invoke) counters() counters { return readCounters(w.c.m) }

func (w *invoke) teardown() error {
	if w.c == nil {
		return nil
	}
	return w.c.stop()
}

// attributedUs: one no-op invocation crosses submit (taskvine.Call,
// which pickles the arguments and routes to a shard), placement, the
// invoke frame's encode → flush → decode, the library slot, and the
// result frame's encode → flush → decode. Bursts coalesce frames into
// shared flushes; the paced schedule flushes almost every frame alone.
func (w *invoke) attributedUs(m map[string]float64) float64 {
	flush := "proto.flush_ns_per_frame_64"
	if w.paced {
		flush = "proto.flush_ns_per_frame_1"
	}
	return us(m, "taskvine.call_us") + us(m, "policy.place_ready_batch_ns_per_inv_64") +
		us(m, "proto.encode_invoke_ns") + 2*us(m, flush) + us(m, "proto.decode_invoke_ns") +
		us(m, "library.invoke_ns") + us(m, "proto.encode_result_ns") + us(m, "proto.decode_result_ns")
}
