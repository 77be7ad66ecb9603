package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
)

// refPlaceReady is the reference PlaceReady is held to: the fold it was
// before the ready index — every worker, most free ready slots first,
// minimum worker ID on ties — over the worker table itself.
func refPlaceReady(v *ClusterView, lib string, f Filter) PlaceInvocation {
	var best *WorkerView
	for _, w := range v.Workers {
		if !admits(w, f) {
			continue
		}
		lv := w.Libs[lib]
		if lv == nil || lv.FreeReady <= 0 {
			continue
		}
		if best == nil {
			best = w
			continue
		}
		bf := best.Libs[lib].FreeReady
		if lv.FreeReady > bf || (lv.FreeReady == bf && w.ID < best.ID) {
			best = w
		}
	}
	if best == nil {
		return PlaceInvocation{}
	}
	return PlaceInvocation{Worker: best, Lib: best.Libs[lib]}
}

// checkReadyIndex asserts the index's own invariants — heap order,
// stored positions, membership exactly the bound entries of live
// workers with free ready slots — and that ReadyWorkers reports it.
func checkReadyIndex(t *testing.T, v *ClusterView, where string) {
	t.Helper()
	want := map[string][]string{}
	for id, w := range v.Workers {
		for name, lv := range w.Libs {
			if lv.worker != w {
				t.Fatalf("%s: %s/%s is bound to another worker", where, id, name)
			}
			if w.Alive && lv.FreeReady > 0 {
				want[name] = append(want[name], id)
			} else if lv.readyPos != 0 {
				t.Fatalf("%s: %s/%s is indexed with FreeReady=%d alive=%v", where, id, name, lv.FreeReady, w.Alive)
			}
		}
	}
	for _, ids := range want {
		sort.Strings(ids)
	}
	if got := v.ReadyWorkers(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ready index holds %v, want %v", where, got, want)
	}
	for name, x := range v.ready {
		for i, lv := range x.heap {
			if lv.readyPos != i+1 {
				t.Fatalf("%s: ready[%s][%d] stores position %d", where, name, i, lv.readyPos-1)
			}
			if i > 0 && readyBefore(lv, x.heap[(i-1)/2]) {
				t.Fatalf("%s: ready[%s][%d] is preferred to its parent", where, name, i)
			}
		}
	}
}

// TestReadyIndexMatchesFold runs random scripts of the mutators that
// maintain the ready index — joins, hand-built workers that never
// joined the ring, deaths, installs, evictions, slot transitions,
// counts published for an entry no worker's table holds — and batches
// over it. After every step the indexed PlaceReady must answer what the
// fold over the worker table answers, with no filter and with each kind
// of avoid filter; after every batch every FreeReady and the next
// unbatched answer must be what they were before it.
func TestReadyIndexMatchesFold(t *testing.T) {
	libs := []string{"alpha", "beta", "gamma"}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		v := NewClusterView(Options{})
		var live []*WorkerView
		var orphans []*LibraryView
		next := 0

		pickWorker := func() *WorkerView {
			if len(live) == 0 {
				return nil
			}
			return live[rng.Intn(len(live))]
		}
		// filters: none, the current winner (forces the fold), a random
		// worker, a worker that does not exist.
		filters := func(lib string) []Filter {
			fs := []Filter{nil, Excluding("w9999")}
			if d := v.PlaceReady(lib, nil); d.Worker != nil {
				fs = append(fs, Excluding(d.Worker.ID))
			}
			if w := pickWorker(); w != nil {
				fs = append(fs, Excluding(w.ID))
			}
			return fs
		}
		compare := func(where string) {
			t.Helper()
			checkReadyIndex(t, v, where)
			for _, lib := range libs {
				for i, f := range filters(lib) {
					got, want := v.PlaceReady(lib, f), refPlaceReady(v, lib, f)
					if got != want {
						t.Fatalf("%s: PlaceReady(%s, filter %d) = %v, fold says %v", where, lib, i, describeReady(got), describeReady(want))
					}
				}
			}
		}

		for step := 0; step < 600; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			switch k := rng.Intn(16); {
			case k == 0 && len(live) < 24: // join
				id := fmt.Sprintf("w%04d", next)
				next++
				total := core.Resources{Cores: 8}
				if rng.Intn(3) == 0 { // never joins the ring
					w := &WorkerView{ID: id, Alive: true, Total: total}
					v.Workers[id] = w
					live = append(live, w)
				} else {
					live = append(live, v.AddWorker(id, "", total))
				}
			case k == 1 && len(live) > 2 && rng.Intn(3) == 0: // death
				i := rng.Intn(len(live))
				v.RemoveWorker(live[i])
				live = append(live[:i], live[i+1:]...)
			case k <= 4: // install (a second AddInstance on a hosted library binds nothing)
				if w := pickWorker(); w != nil {
					lv := &LibraryView{Name: libs[rng.Intn(len(libs))], Ready: true, Slots: 1 + rng.Intn(6), MaxInstances: 1}
					bound := w.Libs[lv.Name] == nil
					v.AddInstance(w, lv)
					if bound {
						v.SetFreeReady(w, lv, rng.Intn(lv.Slots+1))
					} else {
						orphans = append(orphans, lv)
					}
				}
			case k == 5: // eviction
				if w := pickWorker(); w != nil {
					lib := libs[rng.Intn(len(libs))]
					if lv := w.Libs[lib]; lv != nil {
						orphans = append(orphans, lv)
					}
					v.RemoveLibrary(w, lib)
				}
			case k == 6 && len(orphans) > 0: // a count published for an entry no table holds
				if w := pickWorker(); w != nil {
					v.SetFreeReady(w, orphans[rng.Intn(len(orphans))], 1+rng.Intn(4))
				}
			case k <= 12: // slot transition
				if w := pickWorker(); w != nil {
					if lv := w.Libs[libs[rng.Intn(len(libs))]]; lv != nil {
						v.SetFreeReady(w, lv, rng.Intn(lv.Slots+1))
					}
				}
			default: // a batch, which must leave no trace
				lib := libs[rng.Intn(len(libs))]
				fs := filters(lib)
				f := fs[rng.Intn(len(fs))]
				before := map[*LibraryView]int{}
				for _, w := range v.Workers {
					for _, lv := range w.Libs {
						before[lv] = lv.FreeReady
					}
				}
				nextBefore := v.PlaceReady(lib, f)
				k := rng.Intn(40)

				// The batch is the unbatched place-then-take loop.
				var want []PlaceInvocation
				for i := 0; i < k; i++ {
					d := refPlaceReady(v, lib, f)
					if d.Worker == nil {
						break
					}
					want = append(want, d)
					d.Lib.FreeReady--
				}
				for lv, n := range before {
					lv.FreeReady = n
				}
				scratch := make([]PlaceInvocation, 2, 8)
				got := v.PlaceReadyBatchInto(scratch, lib, k, f)
				if len(got) != 2+len(want) {
					t.Fatalf("%s: batch of %d placed %d, the sequential fold %d", where, k, len(got)-2, len(want))
				}
				for i, d := range want {
					if got[2+i] != d {
						t.Fatalf("%s: batch placement %d on %s, the sequential fold on %s", where, i, got[2+i].Worker.ID, d.Worker.ID)
					}
				}
				for lv, n := range before {
					if lv.FreeReady != n {
						t.Fatalf("%s: batch left FreeReady %d, was %d", where, lv.FreeReady, n)
					}
				}
				if d := v.PlaceReady(lib, f); d != nextBefore {
					t.Fatalf("%s: next answer after the batch %v, before it %v", where, describeReady(d), describeReady(nextBefore))
				}
			}
			compare(where)
		}
	}
}

func describeReady(d PlaceInvocation) string {
	if d.Worker == nil {
		return "none"
	}
	return fmt.Sprintf("%s(free %d)", d.Worker.ID, d.Lib.FreeReady)
}

// TestWarmDecisionsDoNotAllocate: once the view's scratch has grown, a
// placement that stages nothing allocates nothing — PlaceReady at the
// index root, PlanTask stopping at its first fit, PlanDeploy likewise.
func TestWarmDecisionsDoNotAllocate(t *testing.T) {
	v := NewClusterView(Options{PeerTransfers: true})
	env := fileSpec("env", 1<<20)
	for i := 0; i < 64; i++ {
		w := v.AddWorker(fmt.Sprintf("w%04d", i), "", core.Resources{Cores: 8})
		addReadyLib(v, w, "lib", 4, i%4)
		v.NoteReplica(w, "env")
	}
	inputs := []core.FileSpec{env}
	spec := DeploySpec{Name: "other", Res: core.Resources{Cores: 1}, Files: inputs}
	v.PlanTask("warm", core.Resources{Cores: 1}, inputs, nil)

	var placed, planned, deployed *WorkerView
	for name, fn := range map[string]func(){
		"PlaceReady": func() { placed = v.PlaceReady("lib", nil).Worker },
		"PlanTask":   func() { planned = v.PlanTask("task-17", core.Resources{Cores: 1}, inputs, nil).Worker },
		"PlanDeploy": func() { deployed = v.PlanDeploy(spec, nil).Worker },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %.0f times per warm call", name, n)
		}
	}
	if placed == nil || planned == nil || deployed == nil {
		t.Fatalf("a warm decision placed nothing: %v %v %v", placed, planned, deployed)
	}
}
