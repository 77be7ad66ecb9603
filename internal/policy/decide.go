package policy

import (
	"strings"

	"repro/internal/core"
)

// Filter restricts candidate workers for a placement decision (retry
// avoid-placement, simulator admission caps). nil admits everyone.
type Filter func(w *WorkerView) bool

// Excluding returns a Filter rejecting one worker ID, or nil when the
// ID is empty — the "avoid the worker that just failed this spec"
// retry rule expressed as a view filter.
func Excluding(id string) Filter {
	if id == "" {
		return nil
	}
	return func(w *WorkerView) bool { return w.ID != id }
}

func admits(w *WorkerView, f Filter) bool {
	return w != nil && w.Alive && (f == nil || f(w))
}

// StageMode says how one input object reaches a destination worker.
type StageMode int

const (
	// StageReady: already cached or in flight to the destination —
	// nothing to send.
	StageReady StageMode = iota
	// StagePeer: fetch from the chosen peer source (spanning tree).
	StagePeer
	// StageDirect: manager sends the bytes itself.
	StageDirect
	// StageWait: do not start a copy now — either the object's first
	// copy is in flight elsewhere (wait for a peer source to appear,
	// §3.3) or the manager's own link is saturated.
	StageWait
	// StageRef: proxy-object input (§15) — the bytes never transited
	// the manager, so the per-shard view cannot plan the copy. The
	// executing driver resolves the source through the global RefTable
	// (PlanResolve), which owns the holder set and tier state. Ref
	// stages never block placement and never gate on transfer caps.
	StageRef
)

func (m StageMode) String() string {
	switch m {
	case StagePeer:
		return "peer"
	case StageDirect:
		return "direct"
	case StageWait:
		return "wait"
	case StageRef:
		return "ref"
	default:
		return "ready"
	}
}

// StageFile is one per-object staging decision. Spec carries the
// original file spec so the executing driver has the object payload
// and cache/unpack flags without re-deriving them.
type StageFile struct {
	Dst    *WorkerView
	Object string
	Mode   StageMode
	Src    *WorkerView // set when Mode == StagePeer
	Spec   core.FileSpec
}

// PickSource selects a peer source for one object headed to dst, or
// nil when the manager must send it. Candidates are the view's live
// replica holders under the per-source transfer cap N; with cluster
// awareness the same cluster is preferred and a cross-cluster peer is
// used only when the manager's own link is saturated (Figure 3c —
// otherwise the manager, equidistant from all clusters, sends the copy
// itself). Ties break on minimum worker ID so both engines choose
// identically.
func (v *ClusterView) PickSource(dst *WorkerView, obj string) *WorkerView {
	var same, cross *WorkerView
	v.eachSource(dst, obj, func(src *WorkerView) {
		switch {
		case src.view != v:
		case !v.Opts.ClusterAware || src.Cluster == dst.Cluster:
			same = minID(same, src)
		default:
			cross = minID(cross, src)
		}
	})
	if same != nil {
		return same
	}
	if cross != nil && v.Opts.ManagerSourceCap > 0 && v.ManagerSends >= v.Opts.ManagerSourceCap {
		return cross
	}
	return nil
}

// elsewhere is the source of a copy to dst when the view has neither a
// source nor a copy on its way: a holder in another view — another
// shard's, where the views share one Holders index — under the cap, the
// minimum ID, cluster aside.
func (v *ClusterView) elsewhere(dst *WorkerView, obj string) (src *WorkerView) {
	v.eachSource(dst, obj, func(h *WorkerView) {
		if h.view != v {
			src = minID(src, h)
		}
	})
	return src
}

// eachSource calls f on every holder of obj that could serve dst now:
// live, not dst, under the per-source cap N.
func (v *ClusterView) eachSource(dst *WorkerView, obj string, f func(*WorkerView)) {
	for _, h := range v.Holders[obj] { //vinelint:unordered every caller folds a minimum ID, which no order changes
		if h != dst && h.Alive && h.TransfersOut < v.Opts.PeerTransferCap {
			f(h)
		}
	}
}

// minID is the one of best and w with the lower ID, w if best is nil.
func minID(best, w *WorkerView) *WorkerView {
	if best == nil || w.ID < best.ID {
		return w
	}
	return best
}

// PlanStage decides how one input reaches dst. committed is the set of
// objects earlier decisions in the same batch already put in flight to
// dst (so one placement pass doesn't double-send a shared input).
// Files without a backing object are placement-only hints and stage as
// ready.
func (v *ClusterView) PlanStage(dst *WorkerView, fs core.FileSpec, committed map[string]bool) StageFile {
	if fs.Object == nil {
		return StageFile{Dst: dst, Mode: StageReady, Spec: fs}
	}
	id := fs.Object.ID
	if dst.HasFile(id) || committed[id] {
		return StageFile{Dst: dst, Object: id, Mode: StageReady, Spec: fs}
	}
	if fs.ByRef {
		return StageFile{Dst: dst, Object: id, Mode: StageRef, Spec: fs}
	}
	if fs.Cache && fs.PeerTransfer && v.Opts.PeerTransfers {
		if src := v.PickSource(dst, id); src != nil {
			return StageFile{Dst: dst, Object: id, Mode: StagePeer, Src: src, Spec: fs}
		}
		// First-copy suppression: a copy is already in flight somewhere;
		// wait for it to confirm and become a peer source rather than
		// pushing a redundant copy from the manager (§3.3).
		if v.PendingCopies[id] > 0 {
			return StageFile{Dst: dst, Object: id, Mode: StageWait, Spec: fs}
		}
		// Nothing here will serve: another shard's holder does, before the
		// manager's own link.
		if src := v.elsewhere(dst, id); src != nil {
			return StageFile{Dst: dst, Object: id, Mode: StagePeer, Src: src, Spec: fs}
		}
	}
	if v.Opts.ManagerSourceCap > 0 && v.ManagerSends >= v.Opts.ManagerSourceCap {
		return StageFile{Dst: dst, Object: id, Mode: StageWait, Spec: fs}
	}
	return StageFile{Dst: dst, Object: id, Mode: StageDirect, Spec: fs}
}

// PlanStageAll plans every input of a placement on dst. ok is false if
// any input must wait; blocked lists the objects holding it up. stages
// is the view's scratch list, valid until its next plan: a placement's
// stages are carried out before the next is planned.
func (v *ClusterView) PlanStageAll(dst *WorkerView, inputs []core.FileSpec, committed map[string]bool) (stages []StageFile, blocked []string, ok bool) {
	ok = true
	stages = v.stageList[:0]
	for _, fs := range inputs {
		sf := v.PlanStage(dst, fs, committed)
		switch sf.Mode {
		case StageWait:
			ok = false
			blocked = append(blocked, sf.Object)
		case StagePeer, StageDirect, StageRef:
			stages = append(stages, sf)
			if committed != nil {
				committed[sf.Object] = true
			}
		}
	}
	if v.stageList = stages[:0]; len(stages) == 0 {
		stages = nil
	}
	return stages, blocked, ok
}

// PlaceTask is the decision for one stateless task: run it on Worker
// after executing Stages. A zero Worker with Blocked set means "wait
// for those objects"; a zero Worker with no Blocked means no candidate
// fits right now.
type PlaceTask struct {
	Worker  *WorkerView
	Stages  []StageFile
	Blocked []string
}

// PlanTask places a stateless task: walk the consistent-hash ring from
// the task's key and stop at the first live worker that passes the
// filter, fits the resources, and can have all inputs staged now.
// Workers blocked only on in-flight objects contribute to Blocked so
// the driver can retry on arrival.
func (v *ClusterView) PlanTask(key string, res core.Resources, inputs []core.FileSpec, f Filter) PlaceTask {
	var out PlaceTask
	seen := v.clearedSeen()
	v.Ring.Walk(key, &v.ringSeen, func(id string) bool {
		w := v.Workers[id]
		if !admits(w, f) || !res.Fits(w.Avail()) {
			return true
		}
		stages, blocked, ok := v.PlanStageAll(w, inputs, v.clearedStage())
		if !ok {
			out.Blocked = appendUnseen(out.Blocked, seen, blocked)
			return true
		}
		out = PlaceTask{Worker: w, Stages: stages}
		return false
	})
	return out
}

// appendUnseen appends the blocked objects this walk has not reported
// yet.
func appendUnseen(dst []string, seen map[string]bool, blocked []string) []string {
	for _, obj := range blocked {
		if !seen[obj] {
			seen[obj] = true
			dst = append(dst, obj)
		}
	}
	return dst
}

// PlaceInvocation is the decision for one function invocation that
// found a ready library instance with a free slot.
type PlaceInvocation struct {
	Worker *WorkerView
	Lib    *LibraryView
}

// PlaceReady picks the ready instance for an invocation of lib: the
// worker offering the most free ready slots (spread load), minimum
// worker ID on ties — the unified deterministic order both engines
// share (satellite 1) — and the order the library's ready index is
// kept in, so the answer is its root unless f rejects it. Zero result
// means no ready capacity.
func (v *ClusterView) PlaceReady(lib string, f Filter) PlaceInvocation {
	if x := v.ready[lib]; x != nil {
		if lv := x.best(f); lv != nil {
			return PlaceInvocation{Worker: lv.worker, Lib: lv}
		}
	}
	return PlaceInvocation{}
}

// EvictCandidate names one idle library instance to remove from a
// worker to make room for a deploy (§3.5.2).
type EvictCandidate struct {
	Worker *WorkerView
	Lib    string
}

// PlanEviction plans which idle libraries to evict from w so that need
// fits. Candidates are ready instances with no running invocations,
// taken in sorted name order until the deploy fits; ok reports whether
// it does. The plan is all-or-nothing: drivers execute it only when ok,
// so a deploy that still cannot fit evicts nothing.
func (v *ClusterView) PlanEviction(w *WorkerView, wantLib string, need core.Resources) (evict []EvictCandidate, ok bool) {
	avail := w.Avail()
	if need.Fits(avail) {
		return nil, true
	}
	for _, name := range core.SortedKeys(w.Libs) {
		lv := w.Libs[name]
		if name == wantLib || !lv.Ready || lv.SlotsUsed > 0 {
			continue
		}
		evict = append(evict, EvictCandidate{Worker: w, Lib: name})
		avail = avail.Add(lv.Res)
		if need.Fits(avail) {
			return evict, true
		}
	}
	return evict, need.Fits(avail)
}

// DeploySpec describes the library a deploy would install: its
// per-instance resource ask (zero means "the whole worker"), the
// invocation slots an instance serves, and the files an instance needs
// on the destination.
type DeploySpec struct {
	Name  string
	Res   core.Resources
	Slots int
	Files []core.FileSpec
}

// DeployLibrary is the decision to install a library instance on
// Worker: evict Evict first, then execute Stages, then install with
// resource commitment Res. A zero Worker means no deploy is possible
// now; Blocked lists objects whose arrival could unblock one.
type DeployLibrary struct {
	Worker  *WorkerView
	Res     core.Resources
	Stages  []StageFile
	Evict   []EvictCandidate
	Blocked []string
}

// EvictNames is the eviction plan as a deploy decision records it: the
// library names in plan order, comma-joined.
func (d DeployLibrary) EvictNames() string {
	var b strings.Builder
	for i, e := range d.Evict {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(e.Lib)
	}
	return b.String()
}

// PlanDeploy picks the worker for a new instance of spec: skip
// entirely when every worker is saturated (LibFull guard), else walk
// the ring from the library name and stop at the first live worker below
// its instance cap whose files can be staged and whose resources fit —
// evicting idle foreign libraries if allowed and sufficient.
func (v *ClusterView) PlanDeploy(spec DeploySpec, f Filter) DeployLibrary {
	var out DeployLibrary
	if v.LibFull[spec.Name] >= len(v.Workers) {
		return out
	}
	seen := v.clearedSeen()
	v.Ring.Walk(spec.Name, &v.ringSeen, func(id string) bool {
		w := v.Workers[id]
		if !admits(w, f) {
			return true
		}
		if lv := w.Libs[spec.Name]; lv != nil && lv.MaxInstances > 0 && lv.Instances >= lv.MaxInstances {
			return true
		}
		need := spec.Res
		if need == (core.Resources{}) {
			need = w.Total
		}
		stages, blocked, ok := v.PlanStageAll(w, spec.Files, v.clearedStage())
		if !ok {
			out.Blocked = appendUnseen(out.Blocked, seen, blocked)
			return true
		}
		evict, fits := []EvictCandidate(nil), need.Fits(w.Avail())
		if !fits && v.Opts.EvictEmptyLibraries {
			evict, fits = v.PlanEviction(w, spec.Name, need)
		}
		if !fits {
			return true
		}
		out = DeployLibrary{Worker: w, Res: need, Stages: stages, Evict: evict}
		return false
	})
	return out
}
