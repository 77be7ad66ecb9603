package manager

import (
	"slices"
	"testing"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/proto"
)

// With the worker's asynchronous data plane, FileAcks complete in
// whatever order the transfers finish — not the order the manager
// staged them. These tests prove the ack bookkeeping (pending marks,
// source transfer slots, ack-waiter index, TransferTime stamping)
// tolerates arbitrary reordering and duplicate/stale acks.

func TestOutOfOrderFileAcks(t *testing.T) {
	m := New(Options{PeerTransfers: true, Shards: 1})
	s := m.shards[0]
	src := fakeWorker(m, "src")
	w := fakeWorker(m, "w")

	objA := content.NewBlob("a.bin", []byte("first staged"))
	objB := content.NewBlob("b.bin", []byte("second staged"))
	task := simpleTask("ooo")
	task.Inputs = []core.FileSpec{
		{Object: objA, Cache: true, PeerTransfer: true},
		{Object: objB, Cache: true, PeerTransfer: true},
	}

	// src holds both inputs, so the placement on w stages A then B as peer
	// fetches from it and the dispatch goes out waiting on both.
	noteReplica(m, src, objA)
	noteReplica(m, src, objB)
	id := dispatchOn(t, m, w, task)
	s.mu.Lock()
	e := s.sched.Running("w")[0].Task.Spec.staging
	fromA, _ := s.sched.Source("w", objA.ID)
	fromB, _ := s.sched.Source("w", objB.ID)
	if e == nil || e.pending != 2 || !waitsFor(w, objA.ID, e) || !waitsFor(w, objB.ID, e) || src.v.TransfersOut != 2 ||
		fromA != "src" || fromB != "src" {
		t.Fatalf("the dispatch is not waiting on two peer fetches from src: %+v, %d slots, sources %q %q", e, src.v.TransfersOut, fromA, fromB)
	}
	s.mu.Unlock()

	// B's transfer finishes first, even though A was staged first.
	s.onFileAck(w, proto.FileAck{ID: objB.ID, Ok: true, Cache: true})

	s.mu.Lock()
	if w.v.Pending[objB.ID] {
		t.Errorf("B still pending after its ack")
	}
	if !w.v.Pending[objA.ID] {
		t.Errorf("A's pending mark cleared by B's ack")
	}
	if e.pending != 1 || !waitsFor(w, objA.ID, e) || waitsFor(w, objB.ID, e) {
		t.Errorf("after B's ack the dispatch waits on %d objects (A %v, B %v), want A alone",
			e.pending, waitsFor(w, objA.ID, e), waitsFor(w, objB.ID, e))
	}
	if src.v.TransfersOut != 1 {
		t.Errorf("source slots after one ack = %d, want 1", src.v.TransfersOut)
	}
	if _, still := w.ackWaiters[objB.ID]; still {
		t.Errorf("B's ack-waiter list not cleared")
	}
	afterB := e.transfer
	s.mu.Unlock()
	if afterB <= 0 {
		t.Errorf("transfer not stamped by B's ack")
	}

	// A — the straggler — lands last and closes the staging window.
	time.Sleep(5 * time.Millisecond)
	s.onFileAck(w, proto.FileAck{ID: objA.ID, Ok: true, Cache: true})

	s.mu.Lock()
	if e.pending != 0 {
		t.Errorf("the dispatch waits on %d objects after both acks", e.pending)
	}
	if len(w.v.Pending) != 0 {
		t.Errorf("pending after both acks = %v", w.v.Pending)
	}
	if len(w.ackWaiters) != 0 {
		t.Errorf("ack-waiter index not drained: %v", w.ackWaiters)
	}
	if src.v.TransfersOut != 0 {
		t.Errorf("source slots not fully released: %d", src.v.TransfersOut)
	}
	if e.transfer <= afterB {
		t.Errorf("TransferTime not extended by the straggler: %.9f <= %.9f", e.transfer, afterB)
	}
	s.mu.Unlock()

	// The task completes; its TransferTime covers dispatch → last ack.
	s.onResult(w, core.Result{ID: id, Ok: true})
	select {
	case res := <-m.Results():
		if !res.Ok || res.Metrics.TransferTime <= 0 {
			t.Errorf("result = %+v", res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no result delivered")
	}
	if err := m.CheckQuiescence(); err != nil {
		t.Errorf("quiescence after out-of-order acks: %v", err)
	}
}

func TestDuplicateAndStaleFileAcksAreHarmless(t *testing.T) {
	// The async data plane acks every FetchFile it was sent, including
	// duplicates the manager coalesced out of its own records. A second
	// ack for an already-settled object must not double-release slots,
	// underflow counters, or disturb other waiters.
	m := New(Options{PeerTransfers: true, Shards: 1})
	s := m.shards[0]
	src := fakeWorker(m, "src")
	w := fakeWorker(m, "w")
	obj := content.NewBlob("dup.bin", []byte("once"))
	peerFetch(t, m, src, w, obj)

	s.onFileAck(w, proto.FileAck{ID: obj.ID, Ok: true, Cache: true})
	// Same ack again: the plane's record of the copy is gone, Source
	// echoes the original assignment (the worker always echoes it back).
	s.onFileAck(w, proto.FileAck{ID: obj.ID, Ok: true, Cache: true, Source: "src"})

	s.mu.Lock()
	defer s.mu.Unlock()
	if src.v.TransfersOut != 0 {
		t.Errorf("transfer slots underflowed or leaked: %d", src.v.TransfersOut)
	}
	if len(w.v.Pending) != 0 {
		t.Errorf("pending after duplicate acks = %v", w.v.Pending)
	}
	if _, ok := s.sched.Source(w.id, obj.ID); ok {
		t.Errorf("the settled copy is still recorded in flight")
	}
	// An ack for an object this worker never staged (a stale record from
	// a prior life of the ID) is a no-op too.
	s.mu.Unlock()
	s.onFileAck(w, proto.FileAck{ID: "never-staged", Ok: false, Err: "who?"})
	s.mu.Lock()
	if len(w.v.Pending) != 0 || len(w.ackWaiters) != 0 {
		t.Errorf("stale ack left residue: pending=%v waiters=%v", w.v.Pending, w.ackWaiters)
	}
}

// waitsFor reports whether st is among w's dispatches waiting for id's
// FileAck. The shard lock is held.
func waitsFor(w *workerState, id string, st *staging) bool {
	ws := w.ackWaiters[id]
	return st != nil && (ws.first == st || slices.Contains(ws.rest, st))
}

// nWaiters is how many dispatches on w wait for id's FileAck. The shard
// lock is held.
func nWaiters(w *workerState, id string) int {
	ws, ok := w.ackWaiters[id]
	if !ok {
		return 0
	}
	return 1 + len(ws.rest)
}

// A task that names one pending object twice waits on it once: one ack
// waiter, one count, and the one ack closes its staging window.
func TestInputNamedTwiceRegistersOneWaiter(t *testing.T) {
	m := New(Options{PeerTransfers: true, Shards: 1})
	s := m.shards[0]
	w := fakeWorker(m, "w")
	obj := content.NewBlob("twice.bin", []byte("named twice"))
	task := simpleTask("twice")
	task.Inputs = []core.FileSpec{{Object: obj, Cache: true}, {Object: obj, Cache: true}}
	dispatchOn(t, m, w, task)

	s.mu.Lock()
	e := s.sched.Running("w")[0].Task.Spec.staging
	if e == nil || e.pending != 1 || nWaiters(w, obj.ID) != 1 || !waitsFor(w, obj.ID, e) {
		t.Fatalf("staging %+v with %d waiters for the object, want one count and one waiter", e, nWaiters(w, obj.ID))
	}
	s.mu.Unlock()

	s.onFileAck(w, proto.FileAck{ID: obj.ID, Ok: true, Cache: true})
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.pending != 0 || e.transfer <= 0 || len(w.ackWaiters) != 0 {
		t.Errorf("after the ack: %d pending, transfer %.9f, waiters %v", e.pending, e.transfer, w.ackWaiters)
	}
}

// Two tasks that wait on one object are both stamped by its ack, and a
// duplicate of that ack moves nothing.
func TestOneAckStampsEveryWaiter(t *testing.T) {
	m := New(Options{PeerTransfers: true, Shards: 1})
	s := m.shards[0]
	w := fakeWorker(m, "w")
	obj := content.NewBlob("shared.bin", []byte("waited on twice"))
	var stagings []*staging
	for _, tag := range []string{"first", "second"} {
		task := simpleTask(tag)
		task.Inputs = []core.FileSpec{{Object: obj, Cache: true}}
		dispatchOn(t, m, w, task)
		s.mu.Lock()
		runs := s.sched.Running("w")
		stagings = append(stagings, runs[len(runs)-1].Task.Spec.staging)
		s.mu.Unlock()
	}
	s.mu.Lock()
	if stagings[0] == nil || stagings[1] == nil || stagings[0] == stagings[1] || nWaiters(w, obj.ID) != 2 {
		t.Fatalf("stagings %+v with %d waiters for the object, want two of each", stagings, nWaiters(w, obj.ID))
	}
	s.mu.Unlock()

	s.onFileAck(w, proto.FileAck{ID: obj.ID, Ok: true, Cache: true})
	s.mu.Lock()
	stamped := []float64{stagings[0].transfer, stagings[1].transfer}
	for i, st := range stagings {
		if st.pending != 0 || st.transfer <= 0 {
			t.Errorf("task %d after the ack: %d pending, transfer %.9f", i, st.pending, st.transfer)
		}
	}
	s.mu.Unlock()

	time.Sleep(time.Millisecond)
	s.onFileAck(w, proto.FileAck{ID: obj.ID, Ok: true, Cache: true})
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, st := range stagings {
		if st.pending != 0 || st.transfer != stamped[i] {
			t.Errorf("task %d after a duplicate ack: %d pending, transfer %.9f, was %.9f", i, st.pending, st.transfer, stamped[i])
		}
	}
	if len(w.ackWaiters) != 0 || len(w.v.Pending) != 0 {
		t.Errorf("a duplicate ack left waiters %v, pending %v", w.ackWaiters, w.v.Pending)
	}
}
