package workload

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/bench/internal/loadgen"
	"repro/bench/internal/stats"
	"repro/internal/core"
	"repro/taskvine"
)

const (
	collectTimeout = 60 * time.Second
	quiesceTimeout = 10 * time.Second
)

// errAborted is returned by a submitter that stopped because the
// collector gave up.
var errAborted = errors.New("collector stalled; submission abandoned")

// cluster is a live engine: one manager with its in-process workers
// over loopback TCP. The workers and their connections are the system
// under test, not part of the load generator.
type cluster struct {
	m *taskvine.Manager
	// host reads the machine at every epoch boundary.
	host *meter
	// nextID is the spec ID the manager will assign to the next
	// submission. The benchmark is the manager's only submitter, so IDs
	// are consecutive and a result's ID gives its sequence number.
	nextID int64
}

func startCluster(host *meter, workers int, mo taskvine.Options, wo taskvine.WorkerOptions) (*cluster, error) {
	m, err := taskvine.NewManager(mo)
	if err != nil {
		return nil, err
	}
	if err := m.SpawnLocalWorkers(workers, wo); err != nil {
		m.Shutdown()
		return nil, err
	}
	return &cluster{m: m, host: host}, nil
}

// prime submits the cluster's first operation on its own and waits for
// it, which tells the benchmark the spec ID numbering starts where it
// assumes.
func (c *cluster) prime(submit func() (int64, error)) (core.Result, error) {
	id, err := submit()
	if err != nil {
		return core.Result{}, err
	}
	res, err := c.m.Collect(1, collectTimeout)
	if err != nil {
		return core.Result{}, err
	}
	if res[0].ID != id {
		return res[0], fmt.Errorf("first result has spec id %d, submitted %d", res[0].ID, id)
	}
	if !res[0].Ok {
		return res[0], fmt.Errorf("first operation failed: %s", res[0].Err)
	}
	c.nextID = id + 1
	return res[0], nil
}

// quiesce waits for the manager's bookkeeping to come clean once every
// result has been collected. Results can overtake the last file
// acknowledgements of a deploy that was still spreading, so quiescence
// is polled, as the engine's own fault tests do; it must arrive, or the
// run's output is wrong.
func quiesce(m *taskvine.Manager) error {
	deadline := time.Now().Add(quiesceTimeout)
	for {
		err := m.CheckQuiescence()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop checks quiescence and shuts the cluster down.
func (c *cluster) stop() error {
	err := quiesce(c.m)
	c.m.Shutdown()
	if err != nil {
		return fmt.Errorf("engine not quiescent after the run: %w", err)
	}
	return nil
}

// budget says when a submitter stops: after a fixed count of
// operations (warm-up), at the first epoch boundary past a deadline
// (timed phase), or at whichever of the two comes first.
type budget struct {
	ops     int
	seconds float64
}

// loop is one submitter/collector pass over a cluster. The calling
// goroutine is the submitter; run starts the collector.
type loop struct {
	c      *cluster
	clock  loadgen.Clock
	ledger *loadgen.Ledger
	col    *loadgen.Collector
	tr     *tracer
	budget budget
	// startNs is the clock reading at the start of the pass.
	startNs int64
	// gone is closed when the collector has returned.
	gone chan struct{}
}

// stopAt reports whether a submitter that has submitted so many
// operations should stop. A count budget ends as soon as it is spent;
// a time budget only at an epoch boundary, so an epoch is never cut
// short.
func (l *loop) stopAt(submitted, epochOps int) bool {
	if l.budget.ops > 0 && submitted >= l.budget.ops {
		return true
	}
	return l.budget.seconds > 0 && submitted > 0 && submitted%epochOps == 0 && float64(l.clock.Now()-l.startNs)/1e9 >= l.budget.seconds
}

// begin records the latency origin of the next operation and returns
// its sequence number; call it right before submitting.
func (l *loop) begin(fromNs int64) int { return l.ledger.Submit(fromNs) }

// end checks what the submit call returned; startNs is when the call
// was made.
func (l *loop) end(seq int, startNs, id int64, err error) error {
	if err != nil {
		return fmt.Errorf("submitting op %d: %w", seq, err)
	}
	if want := l.ledger.ExpectID(seq); id != want {
		return fmt.Errorf("op %d got spec id %d, want %d: another submitter is using the manager", seq, id, want)
	}
	if l.tr != nil {
		l.tr.submitted(startNs, l.clock.Now())
	}
	return nil
}

// wait blocks on ch unless the collector has given up.
func (l *loop) wait(ch <-chan struct{}) error {
	select {
	case <-ch:
		return nil
	case <-l.gone:
		return errAborted
	}
}

// hooks are a workload's per-result callbacks, run on the collector
// goroutine.
type hooks struct {
	check    func(seq int, res *core.Result) error
	onResult func(seq int, res *core.Result, fromNs, nowNs int64)
}

// run drives one pass: submit (on this goroutine) submits operations
// until its budget is spent and returns; the collector stamps, checks
// and counts every result. A submit error or a stalled collector ends
// the pass with the outstanding operations counted as failed.
func (c *cluster) run(epochSize int, b budget, tr *tracer, h hooks, submit func(l *loop) error) *phaseResult {
	clock := loadgen.NewClock()
	if tr != nil {
		clock = tr.clock // one time base for everything in the trace file
	}
	start := clock.Now()
	ledger := loadgen.NewLedger(c.nextID)
	col := loadgen.NewCollector(clock, ledger, stats.NewEpochs(epochSize, start, c.host.read))
	col.IdleTimeout = collectTimeout
	col.Check = h.check
	traced := tr.submissions() // submit intervals are indexed across the passes of a phase
	col.OnResult = func(seq int, res *core.Result, fromNs, nowNs int64) {
		tr.completed(traced+seq, fromNs, nowNs, res)
		if h.onResult != nil {
			h.onResult(seq, res, fromNs, nowNs)
		}
	}
	l := &loop{c: c, clock: clock, ledger: ledger, col: col, tr: tr, budget: b, startNs: start, gone: make(chan struct{})}
	go func() {
		defer close(l.gone)
		col.Run(c.m.Results())
	}()
	err := submit(l)
	total := ledger.Next()
	col.Finish(total)
	<-l.gone
	c.nextID += int64(total)

	pr := &phaseResult{
		latNs:     col.Lat.Flatten(),
		epochs:    col.Epochs,
		ops:       col.Completed,
		attempted: total,
		failed:    col.Failed + (total - col.Completed),
		firstErr:  col.FirstErr,
		extra:     map[string]float64{},
	}
	if err != nil && pr.firstErr == "" {
		pr.firstErr = err.Error()
	}
	if err != nil && pr.failed == 0 {
		pr.failed = 1
	}
	return pr
}

// warm runs a fixed-count warm-up pass and fails if any operation did.
func (c *cluster) warm(ops int, h hooks, submit func(l *loop) error) error {
	pr := c.run(ops, budget{ops: ops}, nil, h, submit)
	if pr.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d operations failed: %s", pr.failed, pr.attempted, pr.firstErr)
	}
	return nil
}

// syncPhase is the timed phase of a workload whose operations are
// synchronous calls (a cold-start cycle, a simulator run): op(n) runs
// the n-th call and reports how many operations it performed. Each
// call contributes one latency sample; the phase ends at the first
// epoch boundary past `seconds`.
func syncPhase(host *meter, seconds float64, tr *tracer, epochOps int, op func(n int) (int, error)) *phaseResult {
	clock := loadgen.NewClock()
	if tr != nil {
		clock = tr.clock
	}
	start := clock.Now()
	pr := &phaseResult{epochs: stats.NewEpochs(epochOps, start, host.read), extra: map[string]float64{}}
	for n, failures := 0, 0; ; n++ {
		t0 := clock.Now()
		if pr.ops > 0 && pr.ops%epochOps == 0 && float64(t0-start)/1e9 >= seconds {
			break
		}
		ops, err := op(n)
		now := clock.Now()
		pr.attempted += ops
		pr.ops += ops
		pr.latNs = append(pr.latNs, now-t0)
		pr.epochs.DoneN(ops, now)
		if err != nil {
			pr.failed += ops
			if pr.firstErr == "" {
				pr.firstErr = fmt.Sprintf("call %d: %v", n, err)
			}
			// What failed once will fail again; do not spend the whole
			// phase repeating it.
			if failures++; failures >= 3 {
				break
			}
		}
	}
	return pr
}

// us reads a per-layer metric as microseconds, going by the unit in
// its name.
func us(m map[string]float64, name string) float64 {
	v := m[name]
	switch {
	case strings.Contains(name, "_ns"):
		return v / 1e3
	case strings.Contains(name, "_ms"):
		return v * 1e3
	}
	return v
}

// moveUs is the time to move mb megabytes at the rate the named
// throughput metric (MB/s) measured, in microseconds.
func moveUs(m map[string]float64, name string, mb float64) float64 {
	if rate := m[name]; rate > 0 {
		return mb / rate * 1e6
	}
	return 0
}
