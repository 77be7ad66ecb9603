package manager

import (
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
	s.mu.Lock()
	noteReplica(s, src, objA.ID)
	noteReplica(s, src, objB.ID)
	s.mu.Unlock()
	id := dispatchOn(t, m, w, task)
	s.mu.Lock()
	e := s.sched.Running("w")[0].Task.Spec.staging
	if e == nil || !e.waiting[objA.ID] || !e.waiting[objB.ID] || src.v.TransfersOut != 2 ||
		w.fetchSources[objA.ID] != "src" || w.fetchSources[objB.ID] != "src" {
		t.Fatalf("the dispatch is not waiting on two peer fetches from src: %+v, %d slots, sources %v", e, src.v.TransfersOut, w.fetchSources)
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
	if !e.waiting[objA.ID] || e.waiting[objB.ID] {
		t.Errorf("waiting set after B's ack = %v", e.waiting)
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
	if len(e.waiting) != 0 {
		t.Errorf("waiting set after both acks = %v", e.waiting)
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

	s.mu.Lock()
	s.m.catalogAdd(core.FileSpec{Object: obj, Cache: true, PeerTransfer: true})
	s.view.NotePending(w.v, obj.ID)
	w.fetchSources[obj.ID] = "src"
	src.v.TransfersOut = 1
	s.mu.Unlock()

	s.onFileAck(w, proto.FileAck{ID: obj.ID, Ok: true, Cache: true})
	// Same ack again: the fetchSources record is gone, Source echoes the
	// original assignment (the worker always echoes it back).
	s.onFileAck(w, proto.FileAck{ID: obj.ID, Ok: true, Cache: true, Source: "src"})

	s.mu.Lock()
	defer s.mu.Unlock()
	if src.v.TransfersOut != 0 {
		t.Errorf("transfer slots underflowed or leaked: %d", src.v.TransfersOut)
	}
	if len(w.v.Pending) != 0 {
		t.Errorf("pending after duplicate acks = %v", w.v.Pending)
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
