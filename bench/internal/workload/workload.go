// Package workload holds the benchmark's six workloads and the harness
// that runs one of them: set-up with a fixed warm-up, a timed phase cut
// into fixed-size epochs, output checks, and — in a traced run — the
// per-layer measurements.
//
// Every layer is measured from outside: by timing calls into its
// exported functions and by reading the counters it already exposes.
//
// Every time an untraced run reports is stated at the reference host's
// speed (see meter): the benchmark's hosts are a few virtual CPUs of a
// shared machine whose speed moves by a fifth from minute to minute.
package workload

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/bench/internal/hostinfo"
	"repro/bench/internal/hostref"
	"repro/bench/internal/layers"
	"repro/bench/internal/span"
	"repro/bench/internal/stats"
)

// Config selects and sizes one run.
type Config struct {
	Workload string
	Seed     uint64
	// Seconds is the length of the timed phase. Epochs are never cut
	// short, so the phase ends at the first epoch boundary past it.
	Seconds float64
	// Trace makes this the traced run: the timed phase is split into an
	// untraced reference part and a traced part, the driven-layer probes
	// run, and the per-layer metrics are reported instead of the
	// end-to-end ones.
	Trace bool
	// Short shrinks clusters, epochs and warm-ups to a few hundred
	// operations. Tests only: a short run's numbers mean nothing.
	Short bool
	// OutDir receives trace-<workload>.json from a traced run ("" writes
	// nothing).
	OutDir string
	// Start is the first line of main; setup_s counts from it.
	Start time.Time

	// host reads the machine for this run; run sets it. A driver built
	// without it (a test) measures uncorrected.
	host *meter
}

// meter reads what the host does to a run, so that the run's times can
// be stated at the reference host's speed. It knows two things the
// guest can see of a shared machine: how slowly the host-speed sampler's
// fixed kernel ran beside the workload (hostref), and how long the host
// kept the virtual CPUs waiting for a physical one (steal). A nil meter
// reads the CPU clock and steal only, and corrects nothing for speed.
type meter struct{ ref *hostref.Sampler }

// read is one reading; the sampler's own CPU time is not the
// workload's.
func (m *meter) read() stats.Reading {
	r := stats.Reading{CPU: hostinfo.CPUNs(), Steal: hostinfo.StealNs()}
	if m != nil {
		r.CPU -= m.ref.UsedNs()
		r.Ref = m.ref.Samples()
	}
	return r
}

// speed is how slow the host ran during iv, 1 being the reference host.
func (m *meter) speed(iv stats.Interval) float64 {
	if m == nil {
		return 1
	}
	return m.ref.Speed(iv.RefFrom, iv.RefTo)
}

// atReference is the factor that turns a wall time measured over iv
// into the time the same CPU-bound work takes on the reference host
// with no neighbours: less what the host stole, divided by how slow it
// ran.
func (m *meter) atReference(iv stats.Interval) float64 { return iv.Granted() / m.speed(iv) }

// Result is what one run measured.
type Result struct {
	Workload  string
	Attempted int
	Failed    int
	// Correct is false when any operation failed, any output check
	// failed, or the engine was not quiescent afterwards.
	Correct bool
	Err     string
	// Metrics holds the end-to-end metrics (untraced run) or the
	// per-layer metrics (traced run), by name.
	Metrics map[string]float64
	// AsMeasured holds, for an untraced run, the times behind Metrics
	// before they were stated at the reference host's speed, and what the
	// host did meanwhile (host_speed, steal_share). It is printed, not
	// judged.
	AsMeasured map[string]float64
	// Epochs and TimedSeconds describe the timed phase that produced
	// the metrics.
	Epochs       int
	TimedSeconds float64
	Host         hostinfo.Host
}

// phaseResult is what a driver's timed phase hands back.
type phaseResult struct {
	latNs     []int64 // one per completed operation (or per epoch for sim_replay)
	epochs    *stats.Epochs
	ops       int // operations completed
	attempted int
	failed    int // failed + timed out
	firstErr  string
	// extra carries workload-specific client-side readings
	// (client.l1_p50_us, client.gen_late_p99_us, sim.* ...).
	extra map[string]float64
	// openLoop says that a schedule, not the system, set the pace: the
	// epochs' wall times are the schedule's and are not corrected for
	// the host.
	openLoop bool
	// untimed is what the phase allocated between its epochs, outside
	// any of them (data_fanout replacing its cluster): it does not count
	// as a cost of the operations.
	untimed hostinfo.Usage
}

// append adds a later pass of the same phase to pr.
func (pr *phaseResult) append(o *phaseResult) {
	pr.latNs = append(pr.latNs, o.latNs...)
	pr.epochs.Append(o.epochs)
	pr.ops += o.ops
	pr.attempted += o.attempted
	pr.failed += o.failed
	if pr.firstErr == "" {
		pr.firstErr = o.firstErr
	}
}

// driver is one workload.
type driver interface {
	// setup starts the system under test, discovers and installs its
	// contexts, and runs the workload's fixed-count warm-up.
	setup() error
	// phase runs a timed phase of about the given length. tr is nil in
	// an untraced phase.
	phase(seconds float64, tr *tracer) (*phaseResult, error)
	// counters reads the layer counters the engine exposes.
	counters() counters
	// teardown checks quiescence and stops everything the driver
	// started.
	teardown() error
	// attributedUs sums, from the traced run's per-layer metrics, the
	// driven-layer costs that make up one operation of this workload, in
	// microseconds; manager.unattributed_us_per_op is the measured CPU
	// per operation minus this sum.
	attributedUs(m map[string]float64) float64
}

// settler is a driver whose load generator has to run in before the
// timed phase, after the last set-up and outside setup_s: an open
// loop's schedule is the generator's warm-up, not the system's set-up,
// and it lasts as long as its schedule says on any host.
type settler interface{ settle() error }

// workloads are the six workloads in the order BENCHMARK.json lists
// them, which is the order they are run and reported in.
var workloads = []struct {
	name string
	new  func(Config) driver
}{
	{"invoke_burst", func(cfg Config) driver { return newInvoke(cfg, false) }},
	{"invoke_paced", func(cfg Config) driver { return newInvoke(cfg, true) }},
	{"context_reload", func(cfg Config) driver { return newReload(cfg) }},
	{"context_cold", func(cfg Config) driver { return newCold(cfg) }},
	{"data_fanout", func(cfg Config) driver { return newFanout(cfg) }},
	{"sim_replay", func(cfg Config) driver { return newSimReplay(cfg) }},
}

// Names lists the workloads.
func Names() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func newDriver(cfg Config) (driver, error) {
	for _, w := range workloads {
		if w.name == cfg.Workload {
			return w.new(cfg), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.Workload, Names())
}

// setUps is how many times an untraced run sets the workload up;
// setup_s is the median.
const setUps = 3

// measured is a phase plus the process-wide resource deltas around it
// and the host's part in each of its epochs.
type measured struct {
	*phaseResult
	bytes  uint64
	allocs uint64
	// speed is how slow the host ran during each closed epoch, and wall
	// the factor that states the epoch's wall time at the reference
	// host's speed.
	speed, wall []float64
}

func measure(host *meter, d driver, seconds float64, tr *tracer) (*measured, error) {
	before := hostinfo.ReadUsage()
	pr, err := d.phase(seconds, tr)
	after := hostinfo.ReadUsage()
	if err != nil {
		return nil, err
	}
	m := &measured{
		phaseResult: pr,
		bytes:       after.AllocBytes - before.AllocBytes - pr.untimed.AllocBytes,
		allocs:      after.Mallocs - before.Mallocs - pr.untimed.Mallocs,
	}
	for _, iv := range pr.epochs.Host {
		sp := host.speed(iv)
		m.speed = append(m.speed, sp)
		if pr.openLoop {
			// Operations wait for nothing but the system, which is mostly
			// idle: they take longer on a slower host, but steal is counted
			// against the whole machine and says little about any one of them.
			m.wall = append(m.wall, 1/sp)
		} else {
			m.wall = append(m.wall, host.atReference(iv))
		}
	}
	return m, nil
}

func (m *measured) perOp(total float64) float64 {
	if m.ops == 0 {
		return 0
	}
	return total / float64(m.ops)
}

// opsPerSec is the median epoch's rate at the reference host's speed;
// an open loop's is the rate its schedule set.
func (m *measured) opsPerSec() float64 {
	if m.openLoop {
		return m.epochs.RatePerSec(nil)
	}
	return m.epochs.RatePerSec(m.wall)
}

// cpuUsPerOp is the median epoch's CPU time per operation, as measured.
func (m *measured) cpuUsPerOp() float64 { return m.epochs.CPUPerOpNs(nil) / 1e3 }

// stealShare is the part of the CPU time the phase had work for that
// the host kept back.
func (m *measured) stealShare() float64 {
	var sum stats.Interval
	for _, iv := range m.epochs.Host {
		sum.CPU, sum.Steal = sum.CPU+iv.CPU, sum.Steal+iv.Steal
	}
	return 1 - sum.Granted()
}

// endToEnd derives the end-to-end metrics, and the readings they were
// corrected from; setupS are the run's set-up times, already corrected,
// and rawSetupS as the clock gave them. The median latency is stated at
// the reference host's speed by the median epoch's factor.
func (m *measured) endToEnd(setupS, rawSetupS []float64) (metrics, asMeasured map[string]float64) {
	p50, _ := stats.DurationsNs(m.latNs)
	metrics = map[string]float64{
		"setup_s":         stats.Median(setupS),
		"ops_per_s":       m.opsPerSec(),
		"latency_p50_us":  p50 / 1e3 * stats.Median(m.wall),
		"alloc_kb_per_op": m.perOp(float64(m.bytes) / 1024),
		"allocs_per_op":   m.perOp(float64(m.allocs)),
	}
	asMeasured = map[string]float64{
		"setup_s":        stats.Median(rawSetupS),
		"ops_per_s":      m.epochs.RatePerSec(nil),
		"latency_p50_us": p50 / 1e3,
		"cpu_us_per_op":  m.cpuUsPerOp(),
		"host_speed":     stats.Median(m.speed),
		"steal_share":    m.stealShare(),
	}
	return metrics, asMeasured
}

// Run executes one run of one workload.
func Run(cfg Config) (*Result, error) { return run(cfg, newDriver) }

// run is Run with the driver's constructor as a parameter, so that a
// test can damage a workload's expectations.
func run(cfg Config, newDriver func(Config) (driver, error)) (*Result, error) {
	host := hostinfo.Describe()
	if err := host.CheckProcs(); err != nil {
		return nil, err
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Now()
	}
	res := &Result{Workload: cfg.Workload, Host: host}
	ref := hostref.Start()
	defer ref.Stop()
	cfg.host = &meter{ref: ref}

	// Set up several times, each from nothing, and report the median: one
	// set-up is a second or two of TCP and goroutine start-up plus the
	// warm-up, and a single such reading drifts by a tenth between runs.
	// The last set-up stays up for the timed phase; the first is counted
	// from the first line of main. Each is stated at the reference host's
	// speed. A traced run does not report setup_s and sets up once.
	n := setUps
	if cfg.Trace {
		n = 1
	}
	var d driver
	var setupS, rawSetupS []float64
	for i := 0; i < n; i++ {
		t0, from := time.Now(), cfg.host.read()
		if i == 0 {
			t0 = cfg.Start
		}
		var err error
		if d, err = newDriver(cfg); err != nil {
			return nil, err
		}
		if err := d.setup(); err != nil {
			_ = d.teardown()
			return nil, fmt.Errorf("%s: set-up: %w", cfg.Workload, err)
		}
		runtime.GC()
		took := time.Since(t0).Seconds()
		rawSetupS = append(rawSetupS, took)
		setupS = append(setupS, took*cfg.host.atReference(from.To(cfg.host.read())))
		if i < n-1 {
			if err := d.teardown(); err != nil {
				return nil, fmt.Errorf("%s: tearing down set-up %d: %w", cfg.Workload, i+1, err)
			}
		}
	}

	err := func() error {
		if s, ok := d.(settler); ok {
			if err := s.settle(); err != nil {
				return fmt.Errorf("running the load generator in: %w", err)
			}
		}
		if cfg.Trace {
			return res.traced(cfg, d)
		}
		m, err := measure(cfg.host, d, cfg.Seconds, nil)
		if err != nil {
			return err
		}
		res.note(m)
		res.Metrics, res.AsMeasured = m.endToEnd(setupS, rawSetupS)
		return nil
	}()
	if err != nil {
		_ = d.teardown()
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	if err := d.teardown(); err != nil {
		res.Failed++
		if res.Err == "" {
			res.Err = err.Error()
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		if res.Err == "" {
			res.Err = "no operation was attempted"
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// note adds a phase's operation counts to the result; the last phase
// noted is the one Epochs and TimedSeconds describe.
func (res *Result) note(m *measured) {
	res.Attempted += m.attempted
	res.Failed += m.failed
	if res.Err == "" {
		res.Err = m.firstErr
	}
	res.Epochs, res.TimedSeconds = m.epochs.Closed(), m.epochs.Seconds()
}

// traced is the timed part of a traced run: an untraced reference
// phase, then the traced phase on the same cluster — their ratio is the
// tracing overhead — then the layer probes, and the trace file.
func (res *Result) traced(cfg Config, d driver) error {
	ref, err := measure(cfg.host, d, cfg.Seconds/3, nil)
	if err != nil {
		return fmt.Errorf("reference phase: %w", err)
	}
	res.note(ref)
	tr := newTracer()
	before := d.counters()
	m, err := measure(cfg.host, d, cfg.Seconds*2/3, tr)
	if err != nil {
		return fmt.Errorf("traced phase: %w", err)
	}
	after := d.counters()
	res.note(m)

	if res.Metrics, err = layers.RunAll(tr.st, tr.clock, cfg.Short); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	after.sub(before).perOp(m.ops, res.Metrics)
	tr.phases(res.Metrics)
	_, p99 := stats.DurationsNs(m.latNs)
	res.Metrics["client.latency_p99_us"] = p99 / 1e3
	for _, name := range []string{"client.l1_p50_us", "client.l2_p50_us", "client.gen_late_p99_us"} {
		res.Metrics[name] = 0
	}
	for k, v := range m.extra {
		res.Metrics[k] = v
	}
	res.Metrics["client.peak_rss_mb"] = hostinfo.PeakRSSMB()
	if r := ref.opsPerSec(); r > 0 {
		res.Metrics["trace.overhead_ratio"] = m.opsPerSec() / r
	}
	// The per-layer times are as measured; client.host_speed says how
	// slow the host ran meanwhile, and client.steal_share how much of the
	// CPU time the run had work for the host kept back.
	res.Metrics["client.host_speed"] = stats.Median(m.speed)
	res.Metrics["client.steal_share"] = m.stealShare()
	res.Metrics["client.cpu_us_per_op"] = m.cpuUsPerOp()
	res.Metrics["manager.unattributed_us_per_op"] = m.cpuUsPerOp() - d.attributedUs(res.Metrics)

	if cfg.OutDir == "" {
		return nil
	}
	// The aggregates must cover every traced operation, the file only a
	// sample: roll the rest up without keeping their spans.
	sampled := tr.spans(tr.st, 2000)
	f := span.File{
		Workload: cfg.Workload, Seed: cfg.Seed,
		Aggregates: mergeAggs(span.Aggregate(tr.st.Spans), tr.restAggregates(sampled)),
		TracedOps:  len(tr.ops), SampledOps: sampled,
		Spans: tr.st.Spans,
	}
	if err := f.Write(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".json")); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

func mergeAggs(a, b []span.Agg) []span.Agg {
	byName := map[string]span.Agg{}
	for _, x := range append(a, b...) {
		cur := byName[x.Name]
		cur.Name = x.Name
		cur.Spans += x.Spans
		cur.Calls += x.Calls
		cur.TotalUs += x.TotalUs
		cur.SelfUs += x.SelfUs
		byName[x.Name] = cur
	}
	out := make([]span.Agg, 0, len(byName))
	for _, x := range byName {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
