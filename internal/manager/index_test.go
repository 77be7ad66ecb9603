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
// staging and acks (success and failure), invocations that deploy
// instances (evicting idle ones where a worker is full) or take a ready
// slot, ready acks, failed installs, and results that free a slot — each
// through the plane's own event path, and after every one asserts each
// index, and each worker's commitment and slot counts, match a
// brute-force recomputation from the ground-truth worker state. A
// concurrent goroutine hammers the observability APIs (Stats,
// ObjectHolders, LibraryDeployments) the whole time, so running under
// -race also checks the holder index's lock.
func TestIndexConsistencyRandomized(t *testing.T) {
	m := New(Options{PeerTransfers: true, EvictEmptyLibraries: true, Shards: 1})
	s := m.shards[0]
	rng := rand.New(rand.NewSource(42))

	libs := []string{"libA", "libB", "libC"}
	objs := []string{"o1", "o2", "o3", "o4", "o5", "o6"}
	instance := core.Resources{Cores: 2}
	for _, name := range libs {
		spec := &core.LibrarySpec{Name: name, Slots: 2, Resources: instance,
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
				m.LibraryDeployments()
			}
		}
	}()
	defer close(done)

	// A worker has room for two instances: a deploy of a third library
	// there must evict an idle one.
	newWorker := func(i int) *workerState {
		id := fmt.Sprintf("w%03d", i)
		return &workerState{
			id:         id,
			hello:      proto.Hello{WorkerID: id, Resources: core.Resources{Cores: 2 * instance.Cores}},
			conn:       linkConn(4096),
			ackWaiters: map[string]waiters{},
		}
	}
	var live []*workerState
	nextWorker := 0

	pickWorker := func() *workerState {
		if len(live) == 0 {
			return nil
		}
		return live[rng.Intn(len(live))]
	}
	// installing is a library with an instance on w awaiting its ack.
	installing := func(w *workerState) string {
		s.mu.Lock()
		defer s.mu.Unlock()
		name := libs[rng.Intn(len(libs))]
		if lv := w.v.Libs[name]; lv != nil && !lv.Ready {
			return name
		}
		return ""
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
			running := map[string]int{}
			for _, r := range s.sched.Running(id) {
				running[r.Inv.Lib]++
			}
			var commit core.Resources
			for name, lv := range w.v.Libs {
				wantLibOn[name]++
				commit = commit.Add(lv.Res)
				if lv.SlotsUsed != running[name] {
					t.Fatalf("step %d (%s): %s's %s uses %d slots, %d invocations run there", step, op, id, name, lv.SlotsUsed, running[name])
				}
				if free := lv.Slots - lv.SlotsUsed; lv.Ready && lv.FreeReady != free || !lv.Ready && lv.FreeReady != 0 {
					t.Fatalf("step %d (%s): %s's %s offers %d free slots (ready %v, %d of %d used)", step, op, id, name, lv.FreeReady, lv.Ready, lv.SlotsUsed, lv.Slots)
				}
				if lv.Ready && !lv.Failed && w.v.Alive && lv.SlotsUsed < lv.Slots {
					if wantReady[name] == nil {
						wantReady[name] = map[string]bool{}
					}
					wantReady[name][id] = true
				}
			}
			if w.v.Commit != commit {
				t.Fatalf("step %d (%s): %s commits %+v, its instances %+v", step, op, id, w.v.Commit, commit)
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
		for _, obj := range objs {
			if n := m.ObjectHolders(&content.Object{ID: obj}); n != len(wantHolders[obj]) {
				t.Fatalf("step %d (%s): ObjectHolders(%s) = %d, want %d", step, op, obj, n, len(wantHolders[obj]))
			}
		}
	}

	drain := func() {
		for _, w := range live {
			drainMsgs(w)
		}
	}

	const steps = 1000
	ran := map[string]int{}
	for step := 0; step < steps; step++ {
		op := "noop"
		switch k := rng.Intn(12); k {
		case 0: // join
			if len(live) < 8 {
				op = "join"
				w := newWorker(nextWorker)
				nextWorker++
				if !m.adoptWorker(w) {
					t.Fatalf("join of %s refused", w.id)
				}
				live = append(live, w)
			}
		case 1: // death
			if len(live) > 1 && rng.Intn(4) == 0 {
				op = "death"
				i := rng.Intn(len(live))
				m.onWorkerGone(live[i])
				live = append(live[:i], live[i+1:]...)
			}
		case 2: // stage a copy
			if w := pickWorker(); w != nil {
				op = "stage"
				s.mu.Lock()
				s.view.NotePending(w.v, objs[rng.Intn(len(objs))])
				s.mu.Unlock()
			}
		case 3: // file ack ok
			if w := pickWorker(); w != nil {
				obj := objs[rng.Intn(len(objs))]
				s.mu.Lock()
				pending := w.v.Pending[obj]
				s.mu.Unlock()
				if pending {
					op = "ack-ok"
					s.onFileAck(w, proto.FileAck{ID: obj, Ok: true, Cache: true})
				}
			}
		case 4: // file ack failed
			if w := pickWorker(); w != nil {
				op = "ack-fail"
				s.onFileAck(w, proto.FileAck{ID: objs[rng.Intn(len(objs))]})
			}
		case 5, 8: // an invocation: a ready slot, or a deploy where the policy core finds room
			if len(live) > 0 {
				op = "submit"
				if deploy(s, libs[rng.Intn(len(libs))]) != "" {
					op = "deploy"
				}
			}
		case 6: // library ack ok
			if w := pickWorker(); w != nil {
				if name := installing(w); name != "" {
					op = "lib-ok"
					s.onLibraryAck(w, proto.LibraryAck{Library: name, Ok: true})
				}
			}
		case 7: // library ack failed
			if w := pickWorker(); w != nil {
				if name := installing(w); name != "" {
					op = "lib-fail"
					s.onLibraryAck(w, proto.LibraryAck{Library: name, Retryable: true, Err: "env lost"})
				}
			}
		case 9, 10: // an invocation's result, ok or failed, frees its slot
			if w := pickWorker(); w != nil {
				s.mu.Lock()
				runs := s.sched.Running(w.id)
				var id int64
				if len(runs) > 0 {
					id = runs[rng.Intn(len(runs))].ID()
				}
				s.mu.Unlock()
				if id != 0 {
					op = "result"
					s.onResult(w, core.Result{ID: id, Ok: k == 9})
				}
			}
		case 11: // spurious clear (retry path re-acking an unknown copy)
			if w := pickWorker(); w != nil {
				op = "spurious-clear"
				s.mu.Lock()
				s.view.ClearPending(w.v, "unknown-object")
				s.mu.Unlock()
			}
		}
		ran[op]++
		s.mu.Lock()
		verify(step, op)
		drain()
		s.mu.Unlock()
	}
	for _, op := range []string{"join", "death", "ack-ok", "deploy", "submit", "lib-ok", "lib-fail", "result"} {
		if ran[op] == 0 {
			t.Errorf("no %s among %d steps: %v", op, steps, ran)
		}
	}
	t.Logf("ops %v, evicted %d", ran, m.ctr.LibrariesEvicted.Load())
	if m.ctr.LibrariesEvicted.Load() == 0 {
		t.Errorf("no deploy evicted an idle instance: %v", ran)
	}
}
