// Package sim is the scale simulator: it replays the paper's
// experiments (up to 100k invocations on 150 heterogeneous workers)
// under a deterministic virtual clock, and the calibrated cost models
// of internal/apps. Contention is modeled with processor-sharing
// resources: the shared filesystem (bandwidth + IOPS), the manager's
// NIC, per-worker NICs and local disks.
//
// The real engine (internal/manager, internal/worker) demonstrates the
// mechanisms; this simulator reproduces the paper's numbers. Both are
// thin drivers of the same pure policy core: the simulator maintains a
// policy.ClusterView mirroring its virtual cluster and calls
// internal/policy for every scheduling decision — task placement,
// ready-instance selection, library deploys, peer-source picks,
// first-copy suppression — exactly as the manager does.
//
// There are two drivers over that state machine. This file is the timed
// one (Run): it executes decisions under the virtual clock. replay.go
// is the untimed one (Replay): N shards behind the event surface the
// manager has — submissions, tenants, acks and faults, results by value
// and by reference, joins and deaths — over shardplane.Plane's router,
// submission plane and ref catalog and per-shard views, so the
// differential harness can diff its decision traces against the real
// manager's at any shard count.
package sim

import (
	"strconv"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/policy"
)

// Config parameterizes one simulated run.
type Config struct {
	App   *apps.CostModel
	Level core.ReuseLevel
	// Workers is the number of TaskVine workers (each 32 cores / 64 GB,
	// §4.2).
	Workers int
	// SlotsPerWorker is the concurrent invocation capacity (16 for
	// LNNI's 2-core invocations, 8 for ExaMol's 4-core ones).
	SlotsPerWorker int
	// Invocations is the workload size.
	Invocations int
	// Units scales one invocation's work (inferences per invocation).
	Units int
	Seed  uint64
	// PeerTransfers enables worker-to-worker environment distribution
	// (Figure 3b); off forces manager-only (3a).
	PeerTransfers bool
	// PeerCap is the per-source concurrent transfer cap N.
	PeerCap int
	// ManagerSourceCap is how many environment copies the manager sends
	// concurrently itself (1 = the paper's sequential initial sends).
	ManagerSourceCap int
	// Machines overrides the default Table 3 proportional sample.
	Machines []cluster.Machine
	// Clusters splits workers into k equal network-locality groups with
	// constrained cross-group transfers (Figure 3c). 0 or 1 = one
	// cluster.
	Clusters int
	// CrossClusterBytesPerSec is the constrained inter-cluster
	// bandwidth (used when Clusters > 1).
	CrossClusterBytesPerSec float64
	// DropTimes discards the per-invocation runtimes (Result.Times;
	// Table 4 / Figure 7) to save memory on huge sweeps.
	DropTimes bool
	// ExecDraws optionally fixes the per-invocation base execution
	// times (reference-machine seconds): invocation i uses ExecDraws[i].
	// Experiments use this as common random numbers so different reuse
	// levels face the identical workload and differences reflect only
	// the mechanisms.
	ExecDraws []float64
	// DecisionTrace, when set, records every scheduling decision the
	// policy core hands this run (differential and golden tests). nil
	// keeps tracing off the dispatch path.
	DecisionTrace *policy.Recorder
	// Tenants enables the submission plane (DESIGN.md §14): every
	// arrival passes admission control and waits in its tenant's plane
	// queue until the weighted fair-share drain releases it — in the
	// same policy.TenantPlane the manager drives. In replay runs tenant
	// specs arrive via the *Tenant entry points; the timed simulator
	// replaces Invocations with per-tenant Poisson arrival processes.
	Tenants []core.TenantSpec
	// TenantRates are per-tenant Poisson arrival rates in
	// invocations/second, index-aligned with Tenants as given (timed
	// runs only; unset entries default to 1/s).
	TenantRates []float64
	// TenantInvocations are per-tenant arrival counts, index-aligned
	// with Tenants as given (timed runs only). Their sum replaces
	// Invocations as the workload size.
	TenantInvocations []int
	// RefOwnedBytesCap bounds the owned (cache-tier) proxy-object bytes
	// per worker in the Replay's ref catalog — the manager's
	// Options.RefOwnedBytesCap. 0 means unbounded (no spills).
	RefOwnedBytesCap int64
}

const (
	// fetchConcurrency bounds how many inbound transfers one worker runs
	// concurrently — the virtual-time mirror of the worker data plane's
	// bounded fetch pool (internal/dataplane). Transfers beyond the cap
	// queue FIFO on the destination; staging *decisions* are made (and
	// traced) before the queueing, so the bound shapes timing only, never
	// decision order.
	fetchConcurrency = 4
	// seriesSamples is the number of points recorded for the
	// deployed-libraries and share-value series.
	seriesSamples = 200
	// maxEvents bounds a run's event count: a backstop, not a budget.
	maxEvents = 2_000_000_000
	// fsPerFlowBW caps one client's shared-FS streaming rate (bytes per
	// second: the effective per-client rate of a many-small-file read
	// pattern on the paper's Panasas system); fsPerFlowOps caps its
	// metadata operation rate (per second — latency-bound RPCs).
	fsPerFlowBW  = 60e6
	fsPerFlowOps = 200
	// evictIdleLibraries: the simulator runs one application per run, so
	// §3.5.2's empty-library eviction has nothing to reclaim.
	evictIdleLibraries = false
)

func (c *Config) defaults() {
	if c.SlotsPerWorker == 0 {
		c.SlotsPerWorker = 16
	}
	if c.Units == 0 {
		c.Units = 16
	}
	if c.PeerCap == 0 {
		c.PeerCap = 3
	}
	if c.ManagerSourceCap == 0 {
		c.ManagerSourceCap = 1
	}
	if c.Seed == 0 {
		c.Seed = 0xC0FFEE
	}
	if len(c.Tenants) > 0 && c.Invocations == 0 {
		for _, n := range c.TenantInvocations {
			c.Invocations += n
		}
	}
}

// Breakdown is the Table 5 style per-phase decomposition, in seconds.
type Breakdown struct {
	Transfer float64 // invocation & data transfer
	Worker   float64 // worker-side environment setup (unpack, sandbox)
	Setup    float64 // library/invocation state reconstruction
	Exec     float64 // function execution
}

// Total sums the phases.
func (b Breakdown) Total() float64 { return b.Transfer + b.Worker + b.Setup + b.Exec }

// Result is everything a run produces.
type Result struct {
	Level       core.ReuseLevel
	Workers     int
	Invocations int
	Units       int

	// TotalTime is the application execution time (Figure 6/8/9).
	TotalTime float64
	// Times are per-invocation runtimes, slot-assignment to completion
	// (Table 4 / Figure 7).
	Times   []float64
	Summary metrics.Summary

	// DeployedSeries is deployed library instances vs completed
	// invocations (Figure 10); ShareSeries is average share value vs
	// completed invocations (Figure 11). L3 only.
	DeployedSeries metrics.Series
	ShareSeries    metrics.Series
	LibsDeployed   int

	// ColdBreakdown and HotBreakdown decompose the first and the
	// steady-state invocation on a worker (Table 5 L2 rows); LibBreakdown
	// and InvBreakdown decompose L3's library install and per-invocation
	// costs (Table 5 L3 rows).
	ColdBreakdown Breakdown
	HotBreakdown  Breakdown
	LibBreakdown  Breakdown
	InvBreakdown  Breakdown

	// ManagerBusySeconds is time the manager spent serialized on
	// dispatch+retrieval.
	ManagerBusySeconds float64
	// SubmitsShed and SubmitsThrottled count submission-plane admission
	// outcomes (tenant runs only): shed arrivals never enter the
	// engine; throttled ones are admitted with backpressure signaled.
	SubmitsShed      int
	SubmitsThrottled int
	// EnvDirect and EnvPeer count environment transfers by source.
	EnvDirect int
	EnvPeer   int
	// SharedFSBytes is the total volume read from the shared FS.
	SharedFSBytes float64
	// PeakInFlight is the maximum concurrent invocations observed.
	PeakInFlight int
}

// state is the live simulation.
type state struct {
	cfg Config
	S   *event.Sim
	rng *event.RNG

	fs         *event.DualFairShare
	managerNIC *event.FairShare
	crossNIC   *event.FairShare

	workers []*wstate
	// byView finds a worker from the view entry a decision names, with
	// no hash of its ID string.
	byView map[*policy.WorkerView]*wstate
	// machines is the sampled (and shuffled) machine pool.
	machines []cluster.Machine

	// view mirrors the virtual cluster for the policy core: worker
	// resources are invocation slots (1 core = 1 slot), the library's
	// per-slot instances, the environment tarball's replicas and
	// in-flight copies. All placement decisions read it.
	view *policy.ClusterView
	rec  *policy.Recorder
	// envSpec is the environment tarball as a policy-visible file spec
	// (L2/L3); envObj is its identity.
	envSpec core.FileSpec
	envObj  string
	lib     string
	// taskInputs (L2: the environment) and stack (stackFilter) are what
	// every timed placement passes the policy core, built once.
	taskInputs []core.FileSpec
	stack      policy.Filter

	pending    int
	nextInv    int
	mgrBusy    bool
	completed  int
	inFlight   int
	sampleStep int
	// deployed counts the timed run's ready instances: a ready slot
	// never un-readies, and every L3 completion runs on one, so the
	// completions they served sum to completed.
	deployed int

	// plane is the timed simulator's submission plane (Config.Tenants);
	// a Replay's is its shardplane.Plane's, in front of every shard and
	// with its own recorder, exactly as the manager's is.
	plane *policy.TenantPlane[specRef]
	// owners threads admitted-spec identity through the timed pending
	// pool in tenant runs: the FIFO of admitted-but-unplaced invocation
	// refs, popped at bind. (Replay's invocations wait, refs and all, in
	// the shared scheduler's library queue.)
	owners core.FIFO[specRef]
	// arrivalsLeft and nextSpecID drive the timed per-tenant Poisson
	// arrival processes; arrivals[i] is tenant i's arrival handler, bound
	// once.
	arrivalsLeft []int
	arrivals     []func()
	nextSpecID   int64

	// deploy is the library's deploy spec: one single-slot instance per
	// slot on the timed path, one taking the worker whole under Replay.
	deploy policy.DeploySpec

	// replay bypasses the virtual clock: decisions and view/slot state
	// advance, timing callbacks do not (replay.go drives transitions).
	replay bool

	res *Result

	coldN, hotN, libN, invN float64
}

type wstate struct {
	id      string
	mach    cluster.Machine
	cluster int
	disk    *event.FairShare
	nic     *event.FairShare

	// v and lv are this worker's entries in the policy view. Under the
	// timed Run lv models the application library with one single-slot
	// instance per deploy-committed slot (MaxInstances = SlotsPerWorker) —
	// Figure 10 counts those; under Replay the plane deploys the manager's
	// one instance of SlotsPerWorker slots into v and lv is nil. Either way
	// the policy core sees the same FreeReady quantity.
	v  *policy.WorkerView
	lv *policy.LibraryView

	hasEnv   bool // environment unpacked and usable
	envReqAt float64
	// envWaiters are the slots whose invocations wait for the
	// environment, in arrival order.
	envWaiters []*slot
	// envSrc is the peer serving the in-flight environment fetch (nil
	// for manager sends); its transfer slot is released on arrival.
	envSrc *wstate

	// fetchActive/fetchq implement the destination-side transfer bound
	// (fetchConcurrency): inbound transfers beyond the cap wait
	// here FIFO, after their staging decision was already recorded.
	fetchActive int
	fetchq      []func()

	// slots (timed only) are the worker's invocation slots; Replay keeps
	// what runs where in the shared scheduler's in-flight table instead.
	slots []slot

	// freeReady (timed only) counts the free slots of ready instances:
	// what the view's ready index publishes.
	freeReady int
}

type slot struct {
	w        *wstate
	busy     bool
	libReady bool
	invIdx   int // index of the invocation currently assigned
	// owner and tenant identify the bound spec in tenant runs: the spec
	// ID, and whose quota the completion releases.
	owner  int64
	tenant string

	// A slot runs one invocation at a time, which has at most one event
	// pending: the invocation's values live here. start is its assignment
	// time, cold whether the environment was missing then (L2), readAt
	// and read the start and length of its shared-FS (L1) or disk (L2)
	// read, and deser, build and exec its sampled phase times.
	start              float64
	cold               bool
	readAt, read       float64
	deser, build, exec float64
	// next is what the pending event continues with; fire, bound once
	// per slot, runs it. One handler per slot rather than one per phase:
	// a bound handler is an allocation, and at 15 000 workers the slots
	// outnumber a short run's invocations.
	next phase
	fire func()
}

// phase names a continuation of an invocation that an event resumes.
// The environment becoming ready is not one: ensureEnv and the unpack's
// end call envReady directly.
type phase uint8

const (
	dispatchDone phase = iota // the manager's dispatch cost is paid
	setupDone                 // L3: the library's context setup ran
	readDone                  // L1: the shared-FS read; L2: the disk read
	execDone                  // the invocation finished executing
)

// after schedules the slot's next continuation d seconds from now.
func (st *state) after(sl *slot, d float64, next phase) {
	sl.next = next
	st.S.After(d, sl.fire)
}

// resume runs the continuation the slot's event was scheduled for.
func (st *state) resume(sl *slot) {
	switch sl.next {
	case dispatchDone:
		st.mgrBusy = false
		st.assign(sl)
		st.tryDispatch()
	case setupDone:
		st.setupDone(sl)
	case readDone:
		st.readDone(sl)
	case execDone:
		st.execDone(sl)
	}
}

var oneSlot = core.Resources{Cores: 1}

// takeSlot marks a slot occupied, maintaining the free-ready count and
// the worker's view commitment. Commitment follows the manager's
// model: tasks (L1/L2) commit per running task, but L3 commits per
// *installed instance* — charged at deploy time in deploy and held
// across idle periods, exactly like the manager's Deploy — so binding
// or freeing an invocation moves no resources.
func (st *state) takeSlot(w *wstate, sl *slot) {
	sl.busy = true
	if sl.libReady {
		w.freeReady--
	}
	if st.cfg.Level != core.L3 {
		w.v.Commit = w.v.Commit.Add(oneSlot)
	}
	st.syncLib(w)
}

// freeSlot releases a slot.
func (st *state) freeSlot(w *wstate, sl *slot) {
	sl.busy = false
	if sl.libReady {
		w.freeReady++
	}
	if st.cfg.Level != core.L3 {
		w.v.Commit = w.v.Commit.Sub(oneSlot)
	}
	st.syncLib(w)
}

// markLibReady flags a deploying slot's instance as ready — the
// simulator's LibraryAck.
func (st *state) markLibReady(w *wstate, sl *slot) {
	sl.libReady = true
	st.deployed++
	if !sl.busy {
		w.freeReady++
	}
	w.lv.Ready = true
	st.syncLib(w)
}

// syncLib republishes the worker's free ready-slot count into the
// view's ready index (L3 only — tasks have no library).
func (st *state) syncLib(w *wstate) {
	if st.cfg.Level != core.L3 {
		return
	}
	st.view.SetFreeReady(w.v, w.lv, w.freeReady)
}

// firstFree returns the worker's first free slot in slot order,
// optionally restricted to deployed-library slots. Callers invoke it
// only after the counters guarantee a match exists, so the single
// inner scan happens once per dispatch, not once per candidate worker.
func (w *wstate) firstFree(needLib bool) *slot {
	for i := range w.slots {
		if sl := &w.slots[i]; !sl.busy && (!needLib || sl.libReady) {
			return sl
		}
	}
	return nil
}

// Run executes one simulated experiment.
func Run(cfg Config) *Result {
	cfg.defaults()
	st := newState(cfg, false)
	st.startTenantArrivals()
	st.tryDispatch()
	st.res.TotalTime = st.S.Run()
	if st.plane != nil {
		for _, ts := range st.plane.Stats() {
			st.res.SubmitsShed += int(ts.Shed)
			st.res.SubmitsThrottled += int(ts.Throttled)
		}
	}
	st.res.Summary = metrics.Summarize(st.res.Times)
	st.finishBreakdowns()
	return st.res
}

// newState builds the initial simulation state. A replay state starts
// with no workers: the Replay joins cfg.Workers of them through its own
// event surface, which numbers them globally and routes each to its
// shard.
func newState(cfg Config, replay bool) *state {
	st := &state{
		cfg:    cfg,
		replay: replay,
		S:      event.NewSim(),
		rng:    event.NewRNG(cfg.Seed),
		res: &Result{
			Level:       cfg.Level,
			Workers:     cfg.Workers,
			Invocations: cfg.Invocations,
			Units:       cfg.Units,
		},
		byView: map[*policy.WorkerView]*wstate{},
		rec:    cfg.DecisionTrace,
	}
	st.S.MaxEvents = maxEvents
	st.res.DeployedSeries.Name = "deployed-libraries"
	st.res.ShareSeries.Name = "avg-share-value"

	st.view = policy.NewClusterView(policy.Options{
		PeerTransfers:       cfg.PeerTransfers,
		PeerTransferCap:     cfg.PeerCap,
		ClusterAware:        cfg.Clusters > 1,
		EvictEmptyLibraries: evictIdleLibraries,
		ManagerSourceCap:    cfg.ManagerSourceCap,
	})
	if cfg.App != nil {
		st.lib = cfg.App.Name
		st.envObj = "env:" + cfg.App.Name
		st.envSpec = core.FileSpec{
			Object: &content.Object{
				ID:          st.envObj,
				Name:        st.envObj,
				LogicalSize: cfg.App.EnvPackedBytes + cfg.App.FuncBlobBytes,
			},
			Cache:        true,
			PeerTransfer: true,
			Unpack:       true,
		}
	}
	st.deploy = policy.DeploySpec{Name: st.lib, Res: oneSlot, Slots: 1, Files: []core.FileSpec{st.envSpec}}
	if cfg.Level != core.L1 {
		st.taskInputs = []core.FileSpec{st.envSpec}
		st.stack = st.stackFilter
	}
	if replay {
		st.deploy.Res, st.deploy.Slots = core.Resources{Cores: cfg.SlotsPerWorker}, cfg.SlotsPerWorker
	}

	// Shared filesystem: the Panasas figures of §4.3 with per-client
	// effective-rate caps.
	st.fs = event.NewDualFairShare(st.S, 84e9/8, fsPerFlowBW, 94000, fsPerFlowOps)
	st.managerNIC = event.NewFairShare(st.S, cluster.NIC10GbE, 0)
	if cfg.Clusters > 1 {
		bw := cfg.CrossClusterBytesPerSec
		if bw == 0 {
			bw = cluster.NIC10GbE / 8 // constrained WAN-ish link
		}
		st.crossNIC = event.NewFairShare(st.S, bw, 0)
	}

	machines := cfg.Machines
	if machines == nil {
		// Workers may be 0 (a replay whose workers all join mid-run):
		// keep at least one machine sampled so joins have hardware to
		// draw from.
		n := cfg.Workers
		if n < 1 {
			n = 1
		}
		machines = cluster.Sample(cluster.Table3(), n)
	}
	// Deterministically shuffle so machine groups interleave across the
	// dispatch order.
	perm := st.rng
	for i := len(machines) - 1; i > 0; i-- {
		j := perm.Intn(i + 1)
		machines[i], machines[j] = machines[j], machines[i]
	}
	st.machines = machines
	if !replay {
		// The whole roster joins in one batch: the ring sorts once rather
		// than merging each join into a ring that grows with the roster.
		roster := make([]*policy.WorkerView, cfg.Workers)
		for i := range roster {
			roster[i] = st.addWorker(i).v
		}
		st.view.AddWorkers(roster)
	}

	st.pending = cfg.Invocations
	st.sampleStep = cfg.Invocations / seriesSamples
	if st.sampleStep == 0 {
		st.sampleStep = 1
	}
	if !cfg.DropTimes {
		st.res.Times = make([]float64, 0, cfg.Invocations)
	}
	return st
}

// addWorker builds the cluster's i-th worker ("wNNNN") with a fresh
// view, which the caller registers (ClusterView.AddWorkers). i is the
// index over the whole cluster — a Replay's shards each hold a subset —
// so the ID, the machine and the locality cluster do not depend on how
// the cluster is partitioned.
func (st *state) addWorker(i int) *wstate {
	cfg := st.cfg
	m := st.machines[i%len(st.machines)]
	w := &wstate{
		id:   "w" + pad4(i),
		mach: m,
		disk: event.NewFairShare(st.S, m.DiskBytesPerSec, 0),
		nic:  event.NewFairShare(st.S, m.NICBytesPerSec, 0),
	}
	if cfg.Clusters > 1 {
		if i < cfg.Workers {
			w.cluster = i * cfg.Clusters / cfg.Workers
		} else {
			w.cluster = i % cfg.Clusters
		}
	}
	clusterName := ""
	if cfg.Clusters > 1 {
		clusterName = strconv.Itoa(w.cluster)
	}
	total := core.Resources{Cores: cfg.SlotsPerWorker}
	w.v = &policy.WorkerView{ID: w.id, Cluster: clusterName, Total: total}
	if !st.replay {
		w.lv = &policy.LibraryView{Name: st.lib, Slots: 1, MaxInstances: cfg.SlotsPerWorker, Res: oneSlot}
		w.slots = make([]slot, cfg.SlotsPerWorker)
		for k := range w.slots {
			sl := &w.slots[k]
			sl.w = w
			sl.fire = func() { st.resume(sl) }
		}
	}
	st.workers = append(st.workers, w)
	st.byView[w.v] = w
	return w
}

// worker finds a live worker by ID (Replay's event surface names
// workers by ID; decisions name their view entries).
func (st *state) worker(id string) *wstate { return st.byView[st.view.Workers[id]] }

// pad4 renders a worker index as a fixed-width suffix so worker IDs
// sort (and hash) identically across engines.
func pad4(i int) string {
	s := strconv.Itoa(i)
	for len(s) < 4 {
		s = "0" + s
	}
	return s
}

func (st *state) finishBreakdowns() {
	if st.coldN > 0 {
		st.res.ColdBreakdown = scaleBreakdown(st.res.ColdBreakdown, 1/st.coldN)
	}
	if st.hotN > 0 {
		st.res.HotBreakdown = scaleBreakdown(st.res.HotBreakdown, 1/st.hotN)
	}
	if st.libN > 0 {
		st.res.LibBreakdown = scaleBreakdown(st.res.LibBreakdown, 1/st.libN)
	}
	if st.invN > 0 {
		st.res.InvBreakdown = scaleBreakdown(st.res.InvBreakdown, 1/st.invN)
	}
}

func scaleBreakdown(b Breakdown, f float64) Breakdown {
	return Breakdown{Transfer: b.Transfer * f, Worker: b.Worker * f, Setup: b.Setup * f, Exec: b.Exec * f}
}

// cpuScale converts a reference-machine duration to this machine.
func cpuScale(m cluster.Machine) float64 {
	if m.GFlops <= 0 {
		return 1
	}
	return cluster.ReferenceGFlops / m.GFlops
}

func (st *state) dispatchCost() float64 {
	switch st.cfg.Level {
	case core.L1:
		return st.cfg.App.DispatchL1
	case core.L2:
		return st.cfg.App.DispatchL2
	default:
		return st.cfg.App.DispatchL3
	}
}

// tryDispatch runs the manager's serialized dispatch loop: one
// dispatch at a time, each charging the per-level manager cost, each
// requiring a placement decision from the policy core.
func (st *state) tryDispatch() {
	if st.replay || st.mgrBusy || st.pending == 0 {
		return
	}
	sl := st.place()
	if sl == nil {
		return
	}
	st.inFlight++
	if st.inFlight > st.res.PeakInFlight {
		st.res.PeakInFlight = st.inFlight
	}
	st.mgrBusy = true
	d := st.dispatchCost()
	st.res.ManagerBusySeconds += d
	st.after(sl, d, dispatchDone)
}

// speculativeCap bounds how many invocations stack on a worker whose
// environment has not arrived yet: a deep queue there would burst into
// the local disk all at once on arrival. It is driver knowledge (a
// virtual-time admission heuristic), expressed as a view filter.
const speculativeCap = 4

func (st *state) stackFilter(wv *policy.WorkerView) bool {
	return st.byView[wv].hasEnv || wv.Commit.Cores < speculativeCap
}

// place asks the policy core where the next invocation runs, executes
// the staging decisions, and binds the invocation to a slot. nil means
// no placement is possible until some event (arrival, completion,
// unpack) changes the view.
func (st *state) place() *slot {
	if st.cfg.Level == core.L3 {
		return st.placeL3()
	}
	return st.placeTask()
}

// bind takes the next invocation off the timed pending pool and assigns
// it to the chosen slot, with its owner in tenant runs (one engine: any
// consistent assignment works).
func (st *state) bind(w *wstate, sl *slot) *slot {
	st.takeSlot(w, sl)
	sl.invIdx = st.nextInv
	st.nextInv++
	st.pending--
	if st.plane != nil {
		ref, _ := st.owners.Pop()
		sl.owner, sl.tenant = ref.id, ref.tenant
	}
	return sl
}

// placeTask places an L1/L2 invocation as a stateless task: hash-ring
// walk keyed by the task, environment staged as an input (L2).
func (st *state) placeTask() *slot {
	key := "task-" + strconv.Itoa(st.nextInv+1)
	d := st.view.PlanTask(key, oneSlot, st.taskInputs, st.stack)
	if d.Worker == nil {
		return nil
	}
	w := st.byView[d.Worker]
	st.rec.Record(policy.Decision{Kind: policy.KindTask, Key: key, Worker: w.id, Stages: len(d.Stages)})
	for _, sf := range d.Stages {
		st.execStage(sf)
	}
	return st.bind(w, w.firstFree(false))
}

// placeL3 places an invocation on a ready library instance, or deploys
// a new per-slot instance when none has room (§3.5.2) and binds the
// invocation to the deploying slot: the timed model charges a deploy to
// the invocation that rides it (Table 4, Figure 7), where the manager
// and Replay bind only once the instance is ready.
func (st *state) placeL3() *slot {
	if d := st.view.PlaceReady(st.lib, nil); d.Worker != nil {
		w := st.byView[d.Worker]
		st.rec.Record(policy.Decision{Kind: policy.KindPlace, Lib: st.lib, Worker: w.id})
		return st.bind(w, w.firstFree(true))
	}
	d := st.view.PlanDeploy(st.deploy, st.stack)
	if d.Worker == nil {
		return nil
	}
	if st.rec != nil { // EvictNames allocates
		st.rec.Record(policy.Decision{Kind: policy.KindDeploy, Lib: st.lib, Worker: d.Worker.ID, Stages: len(d.Stages), Evict: d.EvictNames()})
	}
	for _, sf := range d.Stages {
		st.execStage(sf)
	}
	w := st.install(d)
	return st.bind(w, w.firstFree(false))
}

// install starts the instance d plans, its stages out: the view's
// instance record and the install's resource claim, held for the
// instance's lifetime (the plane releases it only on eviction, install
// failure, or worker death — none of which Run's instances hit).
func (st *state) install(d policy.DeployLibrary) *wstate {
	w := st.byView[d.Worker]
	st.view.AddInstance(w.v, w.lv)
	w.v.Commit = w.v.Commit.Add(d.Res)
	return w
}

// ---- environment distribution (§3.3) ----

func (st *state) envBytes() float64 {
	return float64(st.cfg.App.EnvPackedBytes + st.cfg.App.FuncBlobBytes)
}

// startFetch admits an inbound transfer on the destination worker:
// run starts it on its link now if the worker has a free fetch slot
// (fetchConcurrency — the data plane's bounded pool), otherwise
// it queues FIFO until fetchDone frees one. The staging decision was
// already made and traced; the gate only delays the wire time.
func (st *state) startFetch(w *wstate, run func()) {
	if w.fetchActive < fetchConcurrency {
		w.fetchActive++
		run()
		return
	}
	w.fetchq = append(w.fetchq, run)
}

// fetchDone releases one inbound-transfer slot, starting the oldest
// queued transfer if any.
func (st *state) fetchDone(w *wstate) {
	if len(w.fetchq) > 0 {
		run := w.fetchq[0]
		w.fetchq = w.fetchq[1:]
		run()
		return
	}
	if w.fetchActive > 0 {
		w.fetchActive--
	}
}

// execStage carries out one environment staging decision, peer or
// direct: record it, account it in the view (in-flight copy, source
// transfer slot, manager sends) and start the transfer on the owning
// link.
func (st *state) execStage(sf policy.StageFile) {
	dst := st.byView[sf.Dst]
	d := policy.Decision{Kind: policy.KindStage, Obj: sf.Object, Dst: dst.id, Mode: sf.Mode.String()}
	link := st.managerNIC
	if sf.Mode == policy.StagePeer {
		src := st.byView[sf.Src]
		src.v.TransfersOut++
		dst.envSrc = src
		st.res.EnvPeer++
		d.Src, link = src.id, src.nic
		if st.crossNIC != nil && src.cluster != dst.cluster {
			link = st.crossNIC
		}
	} else {
		st.view.ManagerSends++
		st.res.EnvDirect++
	}
	st.view.NotePending(dst.v, sf.Object)
	st.rec.Record(d)
	dst.envReqAt = st.S.Now()
	st.startFetch(dst, func() {
		link.Start(st.envBytes(), func() {
			st.fetchDone(dst)
			st.envArrived(dst)
		})
	})
}

// unsource releases the link serving w's environment copy: the peer's
// transfer slot, or one of the manager's sends.
func (st *state) unsource(w *wstate) {
	if src := w.envSrc; src != nil {
		w.envSrc = nil
		if src.v.TransfersOut > 0 {
			src.v.TransfersOut--
		}
	} else if st.view.ManagerSends > 0 {
		st.view.ManagerSends--
	}
}

// envArrived (timed path) charges the transfer and unpack breakdowns,
// then wakes the invocations waiting on the environment.
func (st *state) envArrived(w *wstate) {
	app := st.cfg.App
	transfer := st.S.Now() - w.envReqAt
	unpack := st.jitter(app.UnpackSeconds)
	if st.cfg.Level == core.L3 {
		st.res.LibBreakdown.Worker += unpack
		st.res.LibBreakdown.Transfer += transfer
	} else {
		st.res.ColdBreakdown.Worker += unpack
		st.res.ColdBreakdown.Transfer += transfer
	}
	// The in-flight copy is a confirmed replica (a peer-transfer source,
	// before unpacking even starts).
	st.unsource(w)
	st.view.ClearPending(w.v, st.envObj)
	st.view.NoteReplica(w.v, st.envObj)
	// A new source (and a freed serving slot) can unblock placements
	// that the policy answered with Wait.
	st.tryDispatch()
	st.S.After(unpack, func() {
		w.hasEnv = true
		waiters := w.envWaiters
		w.envWaiters = nil
		for _, sl := range waiters {
			st.envReady(sl)
		}
		st.tryDispatch()
	})
}

// ensureEnv continues the slot's invocation (envReady) once its worker's
// environment is unpacked and ready. The transfer itself was already
// started by the placement's staging decision (or an earlier one);
// invocations placed behind an in-flight copy just wait here.
func (st *state) ensureEnv(sl *slot) {
	if sl.w.hasEnv {
		st.envReady(sl)
		return
	}
	sl.w.envWaiters = append(sl.w.envWaiters, sl)
}

// ---- invocation execution ----
//
// An invocation runs through its level's phases on its slot: assign
// starts it, envReady continues it once the worker's environment is
// ready (L2, L3), and the slot's pending event resumes it at setupDone
// (L3), readDone (L1, L2) and execDone.

// assign starts one invocation on the slot: L1 reads its context from
// the shared filesystem, L2 and L3 wait for the worker's environment.
func (st *state) assign(sl *slot) {
	sl.start = st.S.Now()
	switch st.cfg.Level {
	case core.L1:
		st.readShared(sl)
	case core.L2:
		sl.cold = !sl.w.hasEnv
		st.ensureEnv(sl)
	default:
		st.ensureEnv(sl)
	}
}

// envReady continues an invocation on a worker whose environment is
// unpacked: L2 samples its phase times and reads its context from the
// local disk; L3 invokes the slot's library instance, deploying it
// first if the invocation rides the deploy.
func (st *state) envReady(sl *slot) {
	app := st.cfg.App
	if st.cfg.Level == core.L2 {
		st.sample(sl)
		sl.readAt, sl.next = st.S.Now(), readDone
		sl.w.disk.Start(float64(app.LocalDiskBytes), sl.fire)
		return
	}
	if sl.libReady {
		st.invokeL3(sl)
		return
	}
	// Deploy the library on this slot: run the context setup once
	// (Table 5's L3 library overhead).
	setup := st.jitter(app.ContextSetupSeconds * cpuScale(sl.w.mach))
	st.res.LibBreakdown.Setup += setup
	st.libN++
	st.after(sl, setup, setupDone)
}

// sample draws the invocation's deserialise and build times on its
// machine, and its execution time.
func (st *state) sample(sl *slot) {
	app := st.cfg.App
	scale := cpuScale(sl.w.mach)
	sl.deser = st.jitter(app.DeserializeSeconds * scale)
	sl.build = st.jitter(app.BuildSeconds * scale)
	sl.exec = st.execFor(sl)
}

// readDone ends the invocation's read (L1: shared FS, L2: local disk)
// and runs the rest of it. L1 samples and charges its phases now; L2
// sampled them before the read and charges them at execDone.
func (st *state) readDone(sl *slot) {
	sl.read = st.S.Now() - sl.readAt
	if st.cfg.Level == core.L1 {
		st.sample(sl)
		st.res.ColdBreakdown.Worker += sl.read
		st.res.ColdBreakdown.Setup += sl.deser
		st.res.ColdBreakdown.Exec += sl.build + sl.exec
		st.coldN++
	}
	st.after(sl, sl.deser+sl.build+sl.exec, execDone)
}

// execDone finishes an executed invocation, charging an L2 one to the
// cold or the hot breakdown.
func (st *state) execDone(sl *slot) {
	if st.cfg.Level == core.L2 {
		if sl.cold {
			st.res.ColdBreakdown.Setup += sl.deser
			st.res.ColdBreakdown.Exec += sl.build + sl.read + sl.exec
			st.coldN++
		} else {
			st.res.HotBreakdown.Transfer += st.fsArgTime()
			st.res.HotBreakdown.Setup += sl.deser
			st.res.HotBreakdown.Exec += sl.build + sl.read + sl.exec
			st.hotN++
		}
	}
	st.complete(sl)
}

// execFor samples (or looks up) the invocation's base execution time
// and scales it to the slot's machine.
func (st *state) execFor(sl *slot) float64 {
	if d := st.cfg.ExecDraws; len(d) > 0 {
		t := d[sl.invIdx%len(d)]
		if g := sl.w.mach.GFlops; g > 0 {
			t *= cluster.ReferenceGFlops / g
		}
		return t
	}
	return st.cfg.App.ExecOn(st.rng, st.cfg.Units, sl.w.mach.GFlops, cluster.ReferenceGFlops)
}

func (st *state) jitter(x float64) float64 {
	if st.cfg.App.JitterSigma <= 0 || x <= 0 {
		return x
	}
	return st.rng.LogNormal(x, st.cfg.App.JitterSigma)
}

// fsArgTime is an invocation's argument transfer time at 10 GbE.
func (st *state) fsArgTime() float64 {
	return float64(st.cfg.App.ArgsBytes) / cluster.NIC10GbE
}

// complete finishes an invocation: record metrics, free the slot,
// resume dispatch.
func (st *state) complete(sl *slot) {
	runtime := st.S.Now() - sl.start
	if !st.cfg.DropTimes {
		st.res.Times = append(st.res.Times, runtime)
	}
	st.freeSlot(sl.w, sl)
	st.inFlight--
	st.completed++
	if st.cfg.Level == core.L3 && st.completed%st.sampleStep == 0 {
		st.sampleSeries()
	}
	if st.plane != nil {
		tenant := sl.tenant
		sl.owner, sl.tenant = 0, ""
		st.plane.Release(tenant, st.routeTimed)
	}
	st.tryDispatch()
}

// sampleSeries records one point of Figures 10 and 11: the ready
// instances, and the invocations each has served on average.
func (st *state) sampleSeries() {
	x := float64(st.completed)
	st.res.DeployedSeries.Add(x, float64(st.deployed))
	if st.deployed > 0 {
		st.res.ShareSeries.Add(x, float64(st.completed)/float64(st.deployed))
	}
	st.res.LibsDeployed = st.deployed
}

// ---- L1: no reuse; everything through the shared filesystem ----

// readShared starts an L1 invocation's read of its whole context from
// the shared filesystem.
func (st *state) readShared(sl *slot) {
	app := st.cfg.App
	bytes := float64(app.SharedFSBytes + app.FuncBlobBytes)
	if app.FSBytesSigma > 0 {
		bytes = st.rng.LogNormal(bytes, app.FSBytesSigma)
	}
	ops := app.SharedFSOps
	if app.FSStormProb > 0 && st.rng.Float64() < app.FSStormProb {
		// A storm replaces the usual spread: the cost is re-walking the
		// whole environment through the metadata server.
		ops = app.SharedFSOps * app.FSStormFactor
	} else if app.FSOpsSigma > 0 {
		ops = st.rng.LogNormal(ops, app.FSOpsSigma)
	}
	st.res.SharedFSBytes += bytes
	sl.readAt, sl.next = st.S.Now(), readDone
	st.fs.Start(bytes, ops, sl.fire)
}

// ---- L3: context retained in library memory ----

// setupDone: the library instance deployed on this slot is ready, and
// the invocation that rode the deploy runs on it.
func (st *state) setupDone(sl *slot) {
	st.markLibReady(sl.w, sl)
	st.rec.Record(policy.Decision{Kind: policy.KindPlace, Lib: st.lib, Worker: sl.w.id})
	st.invokeL3(sl)
}

func (st *state) invokeL3(sl *slot) {
	app := st.cfg.App
	argLoad := app.ArgLoadSeconds
	exec := st.execFor(sl)
	st.res.InvBreakdown.Transfer += st.fsArgTime()
	st.res.InvBreakdown.Setup += argLoad
	st.res.InvBreakdown.Exec += exec
	st.invN++
	st.after(sl, argLoad+exec, execDone)
}

// DebugStart initializes a run without executing it, returning the
// internal state and simulator for stepping the event loop by hand
// (bench/ times it that way).
func DebugStart(cfg Config) (*state, *event.Sim) {
	cfg.defaults()
	st := newState(cfg, false)
	st.startTenantArrivals()
	st.tryDispatch()
	return st, st.S
}

// DebugCompleted reports the completed-invocation count of a debug run.
func DebugCompleted(st *state) int { return st.completed }
