// Package policy is the shared, pure scheduling-policy core of the
// TaskVine reproduction. Both engines — the real manager
// (internal/manager) and the scale simulator (internal/sim) — maintain
// one ClusterView of cluster state and call the decision functions in
// decide.go for every scheduling choice: ready-instance placement and
// hash-ring library deploys (§3.5.2), spanning-tree peer source
// selection under a per-source cap with first-copy-in-flight
// suppression (§3.3), stateless task placement, and empty-library
// eviction order.
//
// The decision functions are side-effect free and deterministic: they
// read the view and return typed decisions (PlaceInvocation,
// DeployLibrary, PickPeerSource, StageFile, EvictCandidate, PlaceTask)
// without mutating anything. The drivers execute decisions — send
// messages, advance the virtual clock — and report the resulting state
// transitions back through the view mutators in this file. A policy
// change therefore lands once and applies to both the real engine and
// the simulated numbers, and the differential replay harness
// (internal/manager's differential test) proves the two drivers emit
// identical decision sequences for identical event traces.
package policy

import (
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/hashring"
)

// Options are the policy knobs shared by both engines.
type Options struct {
	// PeerTransfers enables worker-to-worker distribution (Figure 3b);
	// off means every byte flows from the manager (Figure 3a).
	PeerTransfers bool
	// PeerTransferCap is the per-worker cap N on concurrent outbound
	// transfers, avoiding sinks in the spanning tree (§3.3).
	PeerTransferCap int
	// ClusterAware prefers same-cluster peers as transfer sources
	// (Figure 3c); cross-cluster peers are used only when the manager's
	// own link is saturated (see PickSource).
	ClusterAware bool
	// EvictEmptyLibraries allows deploys to reclaim workers occupied by
	// idle foreign libraries (§3.5.2).
	EvictEmptyLibraries bool
	// ManagerSourceCap bounds how many copies the manager itself sends
	// concurrently; 0 means unbounded (the real manager's link is not
	// modeled as a constrained resource).
	ManagerSourceCap int
}

// LibraryView is the policy-visible state of one library on one
// worker. The real manager and sim.Replay run one multi-slot instance
// per worker (Instances/MaxInstances = 1); the timed sim.Run runs one
// single-slot instance per occupied slot (MaxInstances = slots per
// worker). All report the same FreeReady quantity — invocation slots
// that are ready and idle — which is all placement reads.
type LibraryView struct {
	Name   string
	Ready  bool
	Failed bool
	// Slots and SlotsUsed describe one instance's invocation capacity.
	Slots     int
	SlotsUsed int
	// FreeReady is the maintained count of free, ready invocation slots
	// this worker offers for the library (set via SetFreeReady).
	FreeReady int
	// Instances and MaxInstances bound how many instances this worker
	// can host; a worker at MaxInstances is skipped by deploys.
	Instances    int
	MaxInstances int
	// Res is the resource commitment of one instance.
	Res core.Resources

	// worker is the worker whose library table holds this entry (set by
	// AddInstance when it binds, cleared by RemoveLibrary); readyPos is
	// its position + 1 in the library's ready index, 0 when not a member.
	worker   *WorkerView
	readyPos int
}

// WorkerView is the policy-visible state of one worker.
type WorkerView struct {
	ID      string
	Cluster string
	Alive   bool
	Total   core.Resources
	Commit  core.Resources
	// TransfersOut counts in-flight outbound peer transfers (the
	// spanning-tree cap N applies to it).
	TransfersOut int
	// Files are confirmed cached objects; Pending are copies in flight
	// to this worker. An object in either set needs no further staging
	// (messages on one connection are ordered).
	Files   map[string]bool
	Pending map[string]bool
	Libs    map[string]*LibraryView
}

// Avail is the worker's uncommitted resources.
func (w *WorkerView) Avail() core.Resources { return w.Total.Sub(w.Commit) }

// HasFile reports whether the object is cached or already on its way.
func (w *WorkerView) HasFile(id string) bool { return w.Files[id] || w.Pending[id] }

// ClusterView is the full cluster snapshot the decision functions read:
// the worker table, the consistent-hash placement ring, and the derived
// indexes that make a decision pay only for the candidates it examines
// (DESIGN.md §9 has the per-decision costs). Drivers keep it current
// through the mutators below; the decision functions never write it.
type ClusterView struct {
	Opts    Options
	Workers map[string]*WorkerView
	// Sorted is the same workers ordered by ID, for scans that must not
	// depend on map order.
	Sorted []*WorkerView
	// Ring is the consistent-hash ring over worker IDs that task
	// placement and library deploys walk.
	Ring *hashring.Ring
	// Holders: object ID → workers with a confirmed cached replica
	// (peer-transfer source candidates, §3.3).
	Holders map[string]map[string]*WorkerView
	// PendingCopies: object ID → copies in flight cluster-wide (the
	// O(1) "first copy in flight, everyone else waits" check).
	PendingCopies map[string]int
	// ready: library → the live workers offering at least one free
	// ready slot, ordered by PlaceReady's own key (ready-instance
	// placement never walks the ring, §3.5.2). An index that empties
	// keeps its storage — a 1-slot worker goes free⇄busy on every
	// dispatch — until RemoveLibrary finds it empty.
	ready map[string]*readyIndex
	// LibFull: library → workers at MaxInstances; when every worker is
	// full the deploy path skips its ring walk outright.
	LibFull map[string]int
	// ManagerSends counts copies the manager is currently sending on
	// its own link (meaningful only under ManagerSourceCap).
	ManagerSends int

	// freeSets recycles emptied Holders member sets: an object whose
	// last replica goes and comes back would otherwise delete and
	// re-allocate its set each cycle; the recycled maps keep their
	// buckets. Contents are identical either way — decisions never
	// observe the difference.
	freeSets []map[string]*WorkerView
	// undoScratch is the batch planners' reusable overlay-undo log
	// (always empty between calls; batch calls never nest).
	undoScratch []undoOp
	// ringSeen/seenScratch/stageScratch are PlanTask/PlanDeploy's
	// reusable ring-walk state: the members this walk has visited, the
	// blocked objects it has reported, the objects it has staged. The
	// planners never nest, so one set per view suffices; each walk
	// re-stamps or clears before use.
	ringSeen     hashring.Visited
	seenScratch  map[string]bool
	stageScratch map[string]bool
}

// clearedSeen returns the reusable blocked-object dedup set, emptied.
func (v *ClusterView) clearedSeen() map[string]bool {
	if v.seenScratch == nil {
		v.seenScratch = map[string]bool{}
	} else {
		clear(v.seenScratch)
	}
	return v.seenScratch
}

// clearedStage returns the reusable staged-object commit set, emptied.
func (v *ClusterView) clearedStage() map[string]bool {
	if v.stageScratch == nil {
		v.stageScratch = map[string]bool{}
	} else {
		clear(v.stageScratch)
	}
	return v.stageScratch
}

// newSet returns an empty member set, recycled when possible.
func (v *ClusterView) newSet() map[string]*WorkerView {
	if n := len(v.freeSets); n > 0 {
		set := v.freeSets[n-1]
		v.freeSets[n-1] = nil
		v.freeSets = v.freeSets[:n-1]
		return set
	}
	return map[string]*WorkerView{}
}

// releaseSet recycles an emptied member set.
func (v *ClusterView) releaseSet(set map[string]*WorkerView) {
	if len(v.freeSets) < 64 {
		v.freeSets = append(v.freeSets, set)
	}
}

// NewClusterView creates an empty view with option defaults applied.
func NewClusterView(opts Options) *ClusterView {
	if opts.PeerTransferCap <= 0 {
		opts.PeerTransferCap = 3
	}
	return &ClusterView{
		Opts:          opts,
		Workers:       map[string]*WorkerView{},
		Ring:          hashring.New(0),
		Holders:       map[string]map[string]*WorkerView{},
		PendingCopies: map[string]int{},
		ready:         map[string]*readyIndex{},
		LibFull:       map[string]int{},
	}
}

// ---- view mutators ----
//
// Drivers call these to report state transitions; each maintains the
// derived indexes so decisions stay cheap. The manager's randomized
// index-consistency test asserts they always match a brute-force
// recomputation from ground-truth worker state.

// AddWorker registers a joined worker and returns its view.
func (v *ClusterView) AddWorker(id, clusterName string, total core.Resources) *WorkerView {
	// Files/Pending/Libs are allocated lazily by the first mutator that
	// writes them: many workers in large runs never cache an object.
	w := &WorkerView{
		ID:      id,
		Cluster: clusterName,
		Alive:   true,
		Total:   total,
	}
	v.Workers[id] = w
	v.Sorted = append(v.Sorted, w)
	slices.SortFunc(v.Sorted, func(a, b *WorkerView) int { return cmp.Compare(a.ID, b.ID) })
	v.Ring.Add(id)
	return w
}

// RemoveWorker drops a dead worker from every index, returning the
// objects whose replica sets changed and the objects whose in-flight
// copies were cleared (so the driver can republish counters and wake
// anything queued behind a first copy that will never confirm).
func (v *ClusterView) RemoveWorker(w *WorkerView) (droppedReplicas, clearedPending []string) {
	delete(v.Workers, w.ID)
	v.Sorted = slices.DeleteFunc(v.Sorted, func(x *WorkerView) bool { return x == w })
	v.Ring.Remove(w.ID)
	w.Alive = false
	for _, name := range core.SortedKeys(w.Libs) {
		v.RemoveLibrary(w, name)
	}
	for _, id := range core.SortedKeys(w.Files) {
		if v.DropReplica(w, id) {
			droppedReplicas = append(droppedReplicas, id)
		}
	}
	for _, id := range core.SortedKeys(w.Pending) {
		if v.ClearPending(w, id) {
			clearedPending = append(clearedPending, id)
		}
	}
	return droppedReplicas, clearedPending
}

// NoteReplica records a confirmed cached copy on a worker, reporting
// whether the replica set changed.
func (v *ClusterView) NoteReplica(w *WorkerView, id string) bool {
	if w.Files[id] {
		return false
	}
	if w.Files == nil {
		w.Files = map[string]bool{}
	}
	w.Files[id] = true
	set := v.Holders[id]
	if set == nil {
		set = v.newSet()
		v.Holders[id] = set
	}
	set[w.ID] = w
	return true
}

// DropReplica removes one worker's replica (worker death), reporting
// whether one existed.
func (v *ClusterView) DropReplica(w *WorkerView, id string) bool {
	if !w.Files[id] {
		return false
	}
	delete(w.Files, id)
	if set := v.Holders[id]; set != nil {
		delete(set, w.ID)
		if len(set) == 0 {
			delete(v.Holders, id)
			v.releaseSet(set)
		}
	}
	return true
}

// NotePending records a copy in flight to the worker.
func (v *ClusterView) NotePending(w *WorkerView, id string) {
	if w.Pending[id] {
		return
	}
	if w.Pending == nil {
		w.Pending = map[string]bool{}
	}
	w.Pending[id] = true
	v.PendingCopies[id]++
}

// ClearPending removes the in-flight record, reporting whether one
// existed. The count is guarded against state written behind the
// mutators' back (synthetic test workers).
func (v *ClusterView) ClearPending(w *WorkerView, id string) bool {
	if !w.Pending[id] {
		return false
	}
	delete(w.Pending, id)
	if n := v.PendingCopies[id]; n > 1 {
		v.PendingCopies[id] = n - 1
	} else {
		delete(v.PendingCopies, id)
	}
	return true
}

// AddInstance records one more instance of a library on a worker. The
// first call binds lv into the worker's library table; every call
// advances the instance count and the saturation index.
func (v *ClusterView) AddInstance(w *WorkerView, lv *LibraryView) {
	if w.Libs[lv.Name] == nil {
		if w.Libs == nil {
			w.Libs = map[string]*LibraryView{}
		}
		w.Libs[lv.Name] = lv
		lv.worker = w
	}
	lv.Instances++
	if lv.MaxInstances > 0 && lv.Instances == lv.MaxInstances {
		v.LibFull[lv.Name]++
	}
}

// RemoveLibrary drops a worker's whole entry for a library (eviction,
// failed install, worker death).
func (v *ClusterView) RemoveLibrary(w *WorkerView, name string) {
	lv := w.Libs[name]
	if lv == nil {
		return
	}
	if lv.MaxInstances > 0 && lv.Instances >= lv.MaxInstances {
		if n := v.LibFull[name]; n > 1 {
			v.LibFull[name] = n - 1
		} else {
			delete(v.LibFull, name)
		}
	}
	delete(w.Libs, name)
	if x := v.ready[name]; x != nil {
		x.remove(lv)
		if len(x.heap) == 0 {
			delete(v.ready, name)
		}
	}
	lv.worker = nil
}

// SetFreeReady publishes a worker's current free ready-slot count for a
// library and re-seats it in the library's ready index. Drivers call it
// after any slot or readiness transition. Only an entry AddInstance
// bound into w's library table is ever indexed: placement answers what
// a fold over every worker's table would.
func (v *ClusterView) SetFreeReady(w *WorkerView, lv *LibraryView, free int) {
	lv.FreeReady = free
	x := v.ready[lv.Name]
	if free > 0 && w.Alive && lv.worker == w {
		if x == nil {
			x = &readyIndex{}
			v.ready[lv.Name] = x
		}
		x.fix(lv)
	} else if x != nil {
		x.remove(lv)
	}
}
