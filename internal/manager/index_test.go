package manager

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/proto"
)

// TestIndexConsistencyRandomized drives the scheduler's incremental
// indexes through 1000 random events — worker joins and deaths, file
// staging and acks (success and failure), library deploys, ready acks,
// failed installs, slot take/release, and evictions — and after every
// operation asserts each index matches a brute-force recomputation
// from the ground-truth worker state. A concurrent goroutine hammers
// the lock-free observability APIs (Stats, ObjectHolders) the whole
// time, so running under -race also checks the obsMu split.
func TestIndexConsistencyRandomized(t *testing.T) {
	m := New(Options{PeerTransfers: true, EvictEmptyLibraries: true, Shards: 1})
	s := m.shards[0]
	rng := rand.New(rand.NewSource(42))

	libs := []string{"libA", "libB", "libC"}
	objs := []string{"o1", "o2", "o3", "o4", "o5", "o6"}
	for _, name := range libs {
		spec := &core.LibrarySpec{Name: name, Slots: 2, Resources: core.Resources{Cores: 2},
			Functions: []core.FunctionSpec{{Name: "f", Source: "1"}}}
		if err := m.RegisterLibrary(spec); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	go func() {
		obj := &content.Object{ID: objs[0]}
		for {
			select {
			case <-done:
				return
			default:
				m.Stats()
				m.ObjectHolders(obj)
			}
		}
	}()
	defer close(done)

	newWorker := func(i int) *workerState {
		id := fmt.Sprintf("w%03d", i)
		return &workerState{
			id:           id,
			hello:        proto.Hello{WorkerID: id, Resources: core.Resources{Cores: 32, MemoryMB: 64 << 10, DiskMB: 64 << 10}},
			conn:         linkConn(4096),
			fetchSources: map[string]string{},
			ackWaiters:   map[string]waiters{},
			libs:         map[string]*libInstance{},
		}
	}
	var live []*workerState
	nextWorker, nextInv := 0, int64(0)

	pickWorker := func() *workerState {
		if len(live) == 0 {
			return nil
		}
		return live[rng.Intn(len(live))]
	}

	// verify recomputes every index from the worker table and compares.
	verify := func(step int, op string) {
		t.Helper()
		wantHolders := map[string]map[string]bool{}
		wantPending := map[string]int{}
		wantLibOn := map[string]int{}
		wantReady := map[string]map[string]bool{}
		for id, w := range s.workers {
			for obj := range w.v.Files {
				if wantHolders[obj] == nil {
					wantHolders[obj] = map[string]bool{}
				}
				wantHolders[obj][id] = true
			}
			for obj := range w.v.Pending {
				wantPending[obj]++
			}
			for name, li := range w.libs {
				wantLibOn[name]++
				if li.Ready && !li.Failed && w.v.Alive && li.SlotsUsed < li.Slots {
					if wantReady[name] == nil {
						wantReady[name] = map[string]bool{}
					}
					wantReady[name][id] = true
				}
			}
		}

		if len(s.view.Holders) != len(wantHolders) {
			t.Fatalf("step %d (%s): holders has %d objects, want %d", step, op, len(s.view.Holders), len(wantHolders))
		}
		for obj, set := range wantHolders {
			got := s.view.Holders[obj]
			if len(got) != len(set) {
				t.Fatalf("step %d (%s): holders[%s] has %d workers, want %d", step, op, obj, len(got), len(set))
			}
			for id := range set {
				if got[id] == nil {
					t.Fatalf("step %d (%s): holders[%s] missing %s", step, op, obj, id)
				}
			}
		}
		if len(s.view.PendingCopies) != len(wantPending) {
			t.Fatalf("step %d (%s): pendingCopies has %d objects, want %d", step, op, len(s.view.PendingCopies), len(wantPending))
		}
		for obj, n := range wantPending {
			if s.view.PendingCopies[obj] != n {
				t.Fatalf("step %d (%s): pendingCopies[%s] = %d, want %d", step, op, obj, s.view.PendingCopies[obj], n)
			}
		}
		if len(s.view.LibFull) != len(wantLibOn) {
			t.Fatalf("step %d (%s): LibFull has %d libraries, want %d", step, op, len(s.view.LibFull), len(wantLibOn))
		}
		for name, n := range wantLibOn {
			if s.view.LibFull[name] != n {
				t.Fatalf("step %d (%s): LibFull[%s] = %d, want %d", step, op, name, s.view.LibFull[name], n)
			}
		}
		readyIDs := map[string][]string{}
		for name, set := range wantReady {
			readyIDs[name] = core.SortedKeys(set)
		}
		if got := s.view.ReadyWorkers(); !reflect.DeepEqual(got, readyIDs) {
			t.Fatalf("step %d (%s): ready index holds %v, want %v", step, op, got, readyIDs)
		}
		m.obsMu.RLock()
		counts := make(map[string]int, len(m.holders))
		for obj, hs := range m.holders {
			counts[obj] = len(hs)
		}
		m.obsMu.RUnlock()
		if len(counts) != len(wantHolders) {
			t.Fatalf("step %d (%s): holder registry has %d objects, want %d", step, op, len(counts), len(wantHolders))
		}
		for obj, set := range wantHolders {
			if counts[obj] != len(set) {
				t.Fatalf("step %d (%s): holders[%s] = %d, want %d", step, op, obj, counts[obj], len(set))
			}
		}
	}

	drain := func() {
		for _, w := range live {
			drainMsgs(w)
		}
	}

	const steps = 1000
	for step := 0; step < steps; step++ {
		s.mu.Lock()
		op := "noop"
		switch k := rng.Intn(12); k {
		case 0: // join
			if len(live) < 8 {
				op = "join"
				w := newWorker(nextWorker)
				nextWorker++
				s.registerWorkerLocked(w)
				live = append(live, w)
			}
		case 1: // death
			if len(live) > 1 && rng.Intn(4) == 0 {
				op = "death"
				i := rng.Intn(len(live))
				s.dropWorkerLocked(live[i])
				live = append(live[:i], live[i+1:]...)
			}
		case 2: // stage a copy
			if w := pickWorker(); w != nil {
				op = "stage"
				s.view.NotePending(w.v, objs[rng.Intn(len(objs))])
			}
		case 3: // file ack ok
			if w := pickWorker(); w != nil {
				op = "ack-ok"
				obj := objs[rng.Intn(len(objs))]
				if s.view.ClearPending(w.v, obj) {
					noteReplica(s, w, obj)
				}
			}
		case 4: // file ack failed
			if w := pickWorker(); w != nil {
				op = "ack-fail"
				s.view.ClearPending(w.v, objs[rng.Intn(len(objs))])
			}
		case 5: // deploy a library where the policy core finds room
			if on := deploy(s, libs[rng.Intn(len(libs))]); on != "" {
				op = "deploy"
			}
		case 6: // library ack ok
			if w := pickWorker(); w != nil {
				name := libs[rng.Intn(len(libs))]
				if li := w.libs[name]; li != nil && !li.Ready && !li.Failed {
					op = "lib-ok"
					li.Ready = true
					s.libSlotsChangedLocked(w, li)
				}
			}
		case 7: // library ack failed
			if w := pickWorker(); w != nil {
				name := libs[rng.Intn(len(libs))]
				if li := w.libs[name]; li != nil && !li.Ready {
					op = "lib-fail"
					li.Failed = true
					delete(w.libs, name)
					s.view.RemoveLibrary(w.v, name)
				}
			}
		case 8: // place an invocation on a ready instance
			name := libs[rng.Intn(len(libs))]
			inv := &core.InvocationSpec{ID: nextInv, Library: name}
			nextInv++
			if d := s.view.PlaceReady(name, nil); d.Worker != nil {
				op = "place"
				s.PlaceInv(queuedInv(inv), d)
			}
		case 9: // invocation result frees a slot
			if w := pickWorker(); w != nil {
				name := libs[rng.Intn(len(libs))]
				if li := w.libs[name]; li != nil && li.SlotsUsed > 0 {
					op = "result"
					li.SlotsUsed--
					s.libSlotsChangedLocked(w, li)
				}
			}
		case 10: // evict everything idle on one worker
			if w := pickWorker(); w != nil {
				op = "evict"
				for name, li := range w.libs {
					if li.Ready && li.SlotsUsed == 0 {
						s.evictLibraryLocked(w, name)
					}
				}
			}
		case 11: // spurious clear (retry path re-acking an unknown copy)
			if w := pickWorker(); w != nil {
				op = "spurious-clear"
				s.view.ClearPending(w.v, "unknown-object")
			}
		}
		verify(step, op)
		drain()
		s.mu.Unlock()
	}
}
