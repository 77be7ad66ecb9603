package taskvine

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/worker"
)

// TestPassByReferenceResultFlow is the end-to-end proof of the
// proxy-object data plane (DESIGN.md §15) on real workers: a producer
// task's result stays on its worker and only the ObjectRef handle
// reaches the application; consumers bind the handle with core.RefSpec
// and the bytes flow worker-to-worker, never transiting the manager.
func TestPassByReferenceResultFlow(t *testing.T) {
	m := newTestManager(t, 0, Options{})
	// Small workers so each full-size consumer fills one: with two
	// consumers in flight at once, at least one must run away from the
	// producing worker and pull the result over the peer data plane.
	if err := m.SpawnLocalWorkers(2, WorkerOptions{Resources: core.Resources{Cores: 4}}); err != nil {
		t.Fatal(err)
	}

	id := m.SubmitTaskByRef(`
import vine_runtime
rows = []
for i in range(2048):
    rows.append(i * 3)
vine_runtime.store_result(rows)
`, core.Resources{Cores: 1})
	results, err := m.Collect(1, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ID != id || !results[0].Ok {
		t.Fatalf("producer failed: %+v", results[0])
	}
	ref := results[0].Ref
	if ref == nil {
		t.Fatalf("by-ref producer returned no proxy handle: %+v", results[0])
	}
	if len(results[0].Value) != 0 {
		t.Fatalf("by-ref result carried %d inline bytes alongside the handle", len(results[0].Value))
	}
	if ref.Size == 0 || ref.Owner == "" || ref.Tier != core.TierCache {
		t.Fatalf("malformed ref: %+v", ref)
	}
	st := m.Stats()
	if st.RefResults != 1 || st.BytesByRef != ref.Size {
		t.Fatalf("ref accounting: RefResults=%d BytesByRef=%d want 1/%d", st.RefResults, st.BytesByRef, ref.Size)
	}
	if st.BytesThroughManager != 0 {
		t.Fatalf("producer leg pushed %d result bytes through the manager", st.BytesThroughManager)
	}

	// Two full-worker consumers: one resolves the ref in place on the
	// owner, the other must fetch it peer-to-peer.
	consumer := fmt.Sprintf(`
import vine_runtime
rows = vine_runtime.load_pickle(%q)
total = 0
for r in rows:
    total += r
vine_runtime.store_result(total)
`, ref.Name)
	m.SubmitTask(consumer, core.Resources{Cores: 4}, core.RefSpec(ref))
	m.SubmitTask(consumer, core.Resources{Cores: 4}, core.RefSpec(ref))
	results, err = m.Collect(2, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if !res.Ok {
			t.Fatalf("consumer failed: %+v", res)
		}
		v, err := m.DecodeValue(res)
		if err != nil {
			t.Fatal(err)
		}
		// sum(i*3 for i in range(2048)) — the consumers really read the
		// producer's bytes, wherever they resolved them from.
		if v.Repr() != "6288384" {
			t.Fatalf("consumer result = %s, want 6288384", v.Repr())
		}
	}
	st = m.Stats()
	if st.RefTransfers == 0 {
		t.Fatalf("no worker-to-worker ref fetch happened: %+v", st)
	}
	if st.BytesThroughManager >= ref.Size {
		t.Fatalf("result bytes transited the manager: BytesThroughManager=%d ref.Size=%d", st.BytesThroughManager, ref.Size)
	}
}

// TestRefSpillSmoke forces the spill tier on real workers: an owned
// budget far below one result's size makes every by-ref completion
// spill to the shared filesystem, and every consumer resolve from it
// (promoting on re-use). `make race` runs it under the race detector —
// the tier transitions' lock discipline is part of what it proves.
func TestRefSpillSmoke(t *testing.T) {
	m := newTestManager(t, 0, Options{RefOwnedBytesCap: 4 << 10})
	if err := m.SpawnLocalWorkers(2, WorkerOptions{Resources: core.Resources{Cores: 4}, CacheCapacity: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	const n = 4
	refs := make(map[int64]*core.ObjectRef, n)
	wantSums := make(map[int64]string, n)
	for i := 0; i < n; i++ {
		// Each producer's payload is distinct (i offsets every row):
		// results are content-addressed, so identical bytes would
		// collapse to one object and hide the per-ref tier traffic.
		id := m.SubmitTaskByRef(fmt.Sprintf(`
import vine_runtime
rows = []
for i in range(3000):
    rows.append(i * 7 + %d)
vine_runtime.store_result(rows)
`, i), core.Resources{Cores: 1})
		refs[id] = nil
		// sum(i*7 + k for i in range(3000)) = 7*3000*2999/2 + 3000k
		wantSums[id] = fmt.Sprintf("%d", 31489500+3000*i)
	}
	results, err := m.Collect(n, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if !res.Ok || res.Ref == nil {
			t.Fatalf("by-ref producer: %+v", res)
		}
		if res.Ref.Size <= 4<<10 {
			t.Fatalf("result too small to overflow the owned budget: %d bytes", res.Ref.Size)
		}
		refs[res.ID] = res.Ref
	}
	st := m.Stats()
	if st.RefSpills == 0 {
		t.Fatalf("no spills under a %d-byte owned budget: %+v", 4<<10, st)
	}

	wantByConsumer := make(map[int64]string, n)
	for pid, ref := range refs {
		cid := m.SubmitTask(fmt.Sprintf(`
import vine_runtime
rows = vine_runtime.load_pickle(%q)
total = 0
for r in rows:
    total += r
vine_runtime.store_result(total)
`, ref.Name), core.Resources{Cores: 1}, core.RefSpec(ref))
		wantByConsumer[cid] = wantSums[pid]
	}
	results, err = m.Collect(n, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if !res.Ok {
			t.Fatalf("consumer failed: %+v", res)
		}
		v, err := m.DecodeValue(res)
		if err != nil {
			t.Fatal(err)
		}
		// The spilled bytes round-tripped through the shared tier intact.
		if v.Repr() != wantByConsumer[res.ID] {
			t.Fatalf("consumer %d result = %s, want %s", res.ID, v.Repr(), wantByConsumer[res.ID])
		}
	}
	st = m.Stats()
	if st.RefResults != n {
		t.Fatalf("RefResults = %d, want %d", st.RefResults, n)
	}
}

// TestRefOwnerDeathRehomesOntoSurvivor drives the adoption path on real
// workers (DESIGN.md §15): a ref's owner dies after consumers acked
// their copies, the manager re-homes the ref onto the minimum-ID
// surviving holder and tells it so (MsgOwnObject), and that worker must
// then hold the object pinned as its owned copy — the only thing that
// keeps the ref alive under cache pressure — and serve the next
// consumer's peer fetch. A worker whose handleOwnObject did nothing
// would leave the copy an ordinary evictable replica and fail here.
func TestRefOwnerDeathRehomesOntoSurvivor(t *testing.T) {
	m := newTestManager(t, 0, Options{})
	full := WorkerOptions{Resources: core.Resources{Cores: 4}}
	if err := m.SpawnLocalWorkers(3, full); err != nil {
		t.Fatal(err)
	}
	m.SubmitTaskByRef(`
import vine_runtime
rows = []
for i in range(2048):
    rows.append(i * 3)
vine_runtime.store_result(rows)
`, core.Resources{Cores: 1})
	results, err := m.Collect(1, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	ref := results[0].Ref
	if !results[0].Ok || ref == nil {
		t.Fatalf("by-ref producer: %+v", results[0])
	}
	consumer := fmt.Sprintf(`
import vine_runtime
rows = vine_runtime.load_pickle(%q)
total = 0
for r in rows:
    total += r
vine_runtime.store_result(total)
`, ref.Name)
	// consume runs one full-worker consumer per live worker until want
	// reports the copy it was after exists: whole-worker tasks submitted
	// together land on distinct workers unless one finishes before the
	// next is placed, so a second round is possible but a third is not
	// expected.
	consume := func(what string, n int, want func() bool) {
		t.Helper()
		for round := 0; !want(); round++ {
			if round == 5 {
				t.Fatalf("%s: not after %d rounds of consumers", what, round)
			}
			for i := 0; i < n; i++ {
				m.SubmitTask(consumer, core.Resources{Cores: 4}, core.RefSpec(ref))
			}
			results, err := m.Collect(n, collectTimeout)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range results {
				if v, err := m.DecodeValue(res); !res.Ok || err != nil || v.Repr() != "6288384" {
					t.Fatalf("%s: consumer result %+v (%v)", what, res, err)
				}
			}
		}
	}
	eventually := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: not within 5s (stats %+v)", what, m.Stats())
			}
		}
	}

	// Every non-owner worker acks a copy; the survivor-to-be is the
	// minimum-ID one, the catalog's pick.
	var owner, survivor *worker.Worker
	holders := func() bool {
		owner, survivor = nil, nil
		n := 0
		for _, w := range m.LocalWorkers() {
			switch {
			case w.ID() == ref.Owner:
				owner = w
			case w.Cache().Has(ref.ID):
				n++
				if survivor == nil || w.ID() < survivor.ID() {
					survivor = w
				}
			}
		}
		return n == 2
	}
	consume("a copy on both non-owners", 3, holders)
	if owner == nil || !owner.Plane().OwnedHere(ref.ID) || survivor.Plane().OwnedHere(ref.ID) {
		t.Fatalf("before the death the producer %s must own the ref and %s must not", ref.Owner, survivor.ID())
	}

	owner.Shutdown()
	eventually("the rehome", func() bool { return m.Stats().RefRehomes == 1 })
	eventually("adoption on "+survivor.ID(), func() bool { return survivor.Plane().OwnedHere(ref.ID) })
	if survivor.Plane().Evict(ref.ID) || survivor.Cache().Evict(ref.ID) || !survivor.Cache().Has(ref.ID) {
		t.Fatalf("the adopted copy on %s is evictable: it was not pinned as owned", survivor.ID())
	}
	if st := m.Stats(); st.RefLost != 0 {
		t.Fatalf("the ref was declared lost with two live holders: %+v", st)
	}

	// A worker that has never seen the object joins; its consumer must
	// resolve peer-to-peer, and the catalog's minimum-ID pick is the new
	// owner.
	if err := m.SpawnLocalWorkers(1, full); err != nil {
		t.Fatal(err)
	}
	workers := m.LocalWorkers()
	fresh := workers[len(workers)-1]
	before, served := m.Stats().RefTransfers, survivor.Plane().Snapshot().Served
	consume("a copy on the new worker", 3, func() bool { return fresh.Cache().Has(ref.ID) })
	if st := m.Stats(); st.RefTransfers == before || st.RefRehomes != 1 || st.RefLost != 0 {
		t.Fatalf("after the late consumer: RefTransfers %d -> %d, RefRehomes=%d, RefLost=%d", before, st.RefTransfers, st.RefRehomes, st.RefLost)
	}
	if got := survivor.Plane().Snapshot().Served; got == served {
		t.Fatalf("the new owner %s served no fetch for the late consumer", survivor.ID())
	}
	if err := m.CheckQuiescence(); err != nil {
		t.Fatalf("not quiescent after the pipeline: %v", err)
	}
}
