package event

import (
	"container/heap"
	"math"
)

// FairShare models a processor-sharing resource: a server with fixed
// total capacity divided equally among active flows, with an optional
// per-flow rate cap. It is the standard model for a shared filesystem's
// aggregate bandwidth, a NIC, or a disk serving concurrent readers —
// the contention that produces L1's long tail in the paper.
//
// The implementation uses virtual service time: every active flow
// receives service at the same instantaneous rate r(t) =
// min(Capacity/n(t), PerFlowCap), so a flow needing S units finishes
// when the accumulated per-flow service V(t) grows by S. Arrivals and
// departures are O(log n).
type FairShare struct {
	sim *Sim
	// Capacity is the total service units per second (e.g. bytes/s).
	Capacity float64
	// PerFlowCap bounds a single flow's rate (0 = unbounded).
	PerFlowCap float64

	v       float64 // accumulated per-flow service
	lastT   Time
	flows   flowHeap
	free    []*flow // recycled nodes; steady-state Start allocates nothing
	seq     int64
	wakeGen int64 // generation of the authoritative pending wake
}

// Flow is a cancellation handle for one request on a FairShare
// resource. The zero Flow is valid and cancels nothing. Handles stay
// safe after completion: the underlying node is recycled, and the
// generation check makes Cancel on a stale handle a no-op.
type Flow struct {
	n   *flow
	gen uint64
}

// flow is the heap node for one active request.
type flow struct {
	needV float64 // v value at which this flow completes
	seq   int64
	gen   uint64 // bumped on every reuse; validates Flow handles
	done  func()
	idx   int
	dead  bool
}

type flowHeap []*flow

func (h flowHeap) Len() int { return len(h) }
func (h flowHeap) Less(i, j int) bool {
	if h[i].needV != h[j].needV {
		return h[i].needV < h[j].needV
	}
	return h[i].seq < h[j].seq
}
func (h flowHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *flowHeap) Push(x any) {
	f := x.(*flow)
	f.idx = len(*h)
	*h = append(*h, f)
}
func (h *flowHeap) Pop() any {
	old := *h
	n := len(old)
	f := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return f
}

// NewFairShare creates a fair-share resource attached to a simulator.
func NewFairShare(sim *Sim, capacity, perFlowCap float64) *FairShare {
	return &FairShare{sim: sim, Capacity: capacity, PerFlowCap: perFlowCap, lastT: sim.Now()}
}

// Active returns the number of flows in service.
func (fs *FairShare) Active() int { return len(fs.flows) }

// rate returns the current per-flow service rate.
func (fs *FairShare) rate() float64 {
	n := len(fs.flows)
	if n == 0 {
		return 0
	}
	r := fs.Capacity / float64(n)
	if fs.PerFlowCap > 0 && r > fs.PerFlowCap {
		r = fs.PerFlowCap
	}
	return r
}

// advance accrues virtual service up to the current simulation time.
func (fs *FairShare) advance() {
	now := fs.sim.Now()
	if now > fs.lastT {
		if r := fs.rate(); r > 0 {
			fs.v += (now - fs.lastT) * r
		}
		fs.lastT = now
	}
}

// Start begins a flow needing `size` service units; done fires at its
// completion time.
func (fs *FairShare) Start(size float64, done func()) Flow {
	fs.advance()
	if size < 0 {
		size = 0
	}
	fs.seq++
	var f *flow
	if n := len(fs.free); n > 0 {
		f = fs.free[n-1]
		fs.free[n-1] = nil
		fs.free = fs.free[:n-1]
	} else {
		f = &flow{}
	}
	f.needV = fs.v + size
	f.seq = fs.seq
	f.gen++
	f.done = done
	f.dead = false
	heap.Push(&fs.flows, f)
	fs.schedule()
	return Flow{n: f, gen: f.gen}
}

// recycle returns a finished node to the free list.
func (fs *FairShare) recycle(f *flow) {
	f.done = nil
	fs.free = append(fs.free, f)
}

// Cancel aborts a flow without firing its completion. Stale handles
// (already completed, already cancelled, or zero) are no-ops.
func (fs *FairShare) Cancel(f Flow) {
	if f.n == nil || f.n.dead || f.n.gen != f.gen {
		return
	}
	fs.advance()
	f.n.dead = true
	heap.Remove(&fs.flows, f.n.idx)
	fs.recycle(f.n)
	fs.schedule()
}

// schedule (re)arms the wake event for the earliest completion. A
// generation counter invalidates previously scheduled wakes so that
// rate changes do not leave chains of live stale events (which would
// make a run quadratic in the number of flows).
func (fs *FairShare) schedule() {
	if len(fs.flows) == 0 {
		return
	}
	r := fs.rate()
	if r <= 0 {
		return
	}
	next := fs.flows[0]
	dt := (next.needV - fs.v) / r
	if dt < 0 {
		dt = 0
	}
	fs.wakeGen++
	gen := fs.wakeGen
	fs.sim.At(fs.sim.Now()+dt, func() {
		if gen == fs.wakeGen {
			fs.wake()
		}
	})
}

// wake completes every flow whose service requirement is met, then
// re-arms. The tolerance is relative to the virtual-service magnitude:
// v accumulates over an entire run (e.g. 10^13 bytes), so a fixed
// epsilon would be swamped by float64 rounding and the wake would
// reschedule forever at the same timestamp.
func (fs *FairShare) wake() {
	fs.advance()
	eps := 1e-9 * (math.Abs(fs.v) + 1)
	for len(fs.flows) > 0 && fs.flows[0].needV <= fs.v+eps {
		f := heap.Pop(&fs.flows).(*flow)
		if f.dead {
			continue
		}
		f.dead = true
		done := f.done
		fs.recycle(f)
		done()
	}
	fs.schedule()
}

// DualFairShare couples two fair-share constraints (bandwidth and
// IOPS, as on the paper's Panasas system): a request needs `bytes` of
// bandwidth service and `ops` of operation service; it completes when
// the slower of the two finishes.
type DualFairShare struct {
	bw  *FairShare
	ops *FairShare
}

// NewDualFairShare builds the coupled resource. perFlowBW caps one
// client's streaming rate; perFlowOps caps one client's operation rate
// (metadata RPCs are latency-bound per client long before the server's
// aggregate IOPS ceiling).
func NewDualFairShare(sim *Sim, bwCapacity, perFlowBW, opsCapacity, perFlowOps float64) *DualFairShare {
	return &DualFairShare{
		bw:  NewFairShare(sim, bwCapacity, perFlowBW),
		ops: NewFairShare(sim, opsCapacity, perFlowOps),
	}
}

// Start begins a request; done fires when both constraints are
// satisfied.
func (d *DualFairShare) Start(bytes, ops float64, done func()) {
	remaining := 2
	finish := func() {
		remaining--
		if remaining == 0 {
			done()
		}
	}
	d.bw.Start(bytes, finish)
	d.ops.Start(ops, finish)
}
