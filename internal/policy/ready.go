package policy

import (
	"sort"

	"repro/internal/core"
)

// readyIndex is one library's ready-instance index: the bound
// LibraryViews of live workers with FreeReady > 0, as a binary max-heap
// under PlaceReady's own order — most free ready slots first, minimum
// worker ID on ties. Worker IDs are unique within a library, so the
// order is total and the root is the one answer PlaceReady's fold over
// every worker would reach. Each member stores its heap position
// (LibraryView.readyPos), which is what makes an update O(log workers).
// The sift routines are hand-rolled, like event.eventHeap's: an entry is
// re-seated twice per invocation, and container/heap would put an
// interface call on every comparison and swap.
type readyIndex struct {
	heap []*LibraryView
}

// readyBefore is the placement order: a is preferred to b.
func readyBefore(a, b *LibraryView) bool {
	if a.FreeReady != b.FreeReady {
		return a.FreeReady > b.FreeReady
	}
	return a.worker.ID < b.worker.ID
}

func (x *readyIndex) set(i int, lv *LibraryView) {
	x.heap[i] = lv
	lv.readyPos = i + 1
}

func (x *readyIndex) up(i int) {
	lv := x.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !readyBefore(lv, x.heap[parent]) {
			break
		}
		x.set(i, x.heap[parent])
		i = parent
	}
	x.set(i, lv)
}

func (x *readyIndex) down(i int) {
	lv := x.heap[i]
	for {
		child := 2*i + 1
		if child >= len(x.heap) {
			break
		}
		if r := child + 1; r < len(x.heap) && readyBefore(x.heap[r], x.heap[child]) {
			child = r
		}
		if !readyBefore(x.heap[child], lv) {
			break
		}
		x.set(i, x.heap[child])
		i = child
	}
	x.set(i, lv)
}

// fix re-seats lv after its FreeReady changed, inserting it first if it
// is not a member.
func (x *readyIndex) fix(lv *LibraryView) {
	if lv.readyPos == 0 {
		x.heap = append(x.heap, lv)
		x.up(len(x.heap) - 1)
		return
	}
	i := lv.readyPos - 1
	x.up(i)
	if lv.readyPos-1 == i {
		x.down(i)
	}
}

// remove takes lv out; a non-member is left alone.
func (x *readyIndex) remove(lv *LibraryView) {
	if lv.readyPos == 0 {
		return
	}
	i, last := lv.readyPos-1, len(x.heap)-1
	moved := x.heap[last]
	x.heap[last] = nil
	x.heap = x.heap[:last]
	lv.readyPos = 0
	if i == last {
		return
	}
	x.set(i, moved)
	x.fix(moved)
}

// best is the preferred member f admits: the root when it is admitted —
// always, with a nil filter — and otherwise one fold over the members
// (only a retry's avoid-placement filter ever rejects the root).
func (x *readyIndex) best(f Filter) *LibraryView {
	if len(x.heap) == 0 {
		return nil
	}
	if root := x.heap[0]; admits(root.worker, f) {
		return root
	}
	var best *LibraryView
	for _, lv := range x.heap[1:] {
		if admits(lv.worker, f) && (best == nil || readyBefore(lv, best)) {
			best = lv
		}
	}
	return best
}

// ReadyWorkers reports the ready-instance index as it stands: for each
// library with ready capacity, the IDs of the workers offering it,
// sorted. Consistency tests compare it against a recomputation from
// ground-truth worker state.
func (v *ClusterView) ReadyWorkers() map[string][]string {
	out := map[string][]string{}
	for _, lib := range core.SortedKeys(v.ready) {
		x := v.ready[lib]
		if len(x.heap) == 0 {
			continue
		}
		ids := make([]string, len(x.heap))
		for i, lv := range x.heap {
			ids[i] = lv.worker.ID
		}
		sort.Strings(ids)
		out[lib] = ids
	}
	return out
}
