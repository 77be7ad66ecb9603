package shardplane

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/proto"
)

// The plane's own records and rules, through its event methods, around a
// test shell that records nothing and decides nothing.

// TestSchedRecordsWhatItPlans: the scheduler's trace carries every
// decision its passes plan, in plan order, with the shell recording
// none — a task and its ref stage, whose copy the ref stream then
// resolves; a deploy with the eviction it needs and its stage; the
// placement its instance takes once ready.
func TestSchedRecordsWhatItPlans(t *testing.T) {
	tp := newPlaneWith(Config{Shards: 1, MaxRetries: testBudget, Trace: true},
		policy.Options{PeerTransfers: true, EvictEmptyLibraries: true})
	sh := tp.shells[0]
	for _, id := range []string{"a", "b"} {
		if !tp.Join(id) {
			t.Fatalf("join %s refused", id)
		}
	}
	ref := &core.ObjectRef{ID: "r1", Name: "r1", Size: 8}
	tp.RefResult("a", ref)
	tp.Submit(testRun{IsTask: true, Task: testTask{Key: TaskKey(1), ID: 1,
		Spec: testSpec{need: core.Resources{Cores: 1}, inputs: []core.FileSpec{core.RefSpec(ref)}}}})

	// Every worker is filled by an idle instance of "old": the deploy of
	// "lib" must evict one.
	for _, id := range []string{"a", "b"} {
		w := sh.view.Workers[id]
		lv := &policy.LibraryView{Name: "old", Slots: 1, MaxInstances: 1, Res: w.Avail(), Ready: true}
		sh.view.AddInstance(w, lv)
		w.Commit = w.Commit.Add(lv.Res)
		sh.view.SetFreeReady(w, lv, 1)
	}
	env := core.FileSpec{Object: &content.Object{ID: "env", Name: "env"}, Cache: true, PeerTransfer: true}
	tp.libs["lib"], tp.files["lib"] = core.Resources{Cores: 3}, []core.FileSpec{env}
	tp.Submit(testRun{Inv: testCall{Lib: "lib", ID: 2, Spec: 2}})
	var on string
	for _, id := range []string{"a", "b"} {
		if lv := sh.view.Workers[id].Libs["lib"]; lv != nil {
			on = id
		}
	}
	if on == "" {
		t.Fatalf("no instance of lib deployed: %v", sh.placed)
	}
	tp.LibAck(on, proto.LibraryAck{Library: "lib", Ok: true})

	tr := tp.Trace()
	got := policy.Dump(tr.Shards[0])
	task := tr.Shards[0][0].Worker
	want := policy.Dump([]policy.Decision{
		{Kind: policy.KindTask, Key: TaskKey(1), Worker: task, Stages: 1},
		{Kind: policy.KindStage, Obj: "r1", Dst: task, Mode: policy.StageRef.String()},
		{Kind: policy.KindDeploy, Lib: "lib", Worker: on, Stages: 1, Evict: "old"},
		{Kind: policy.KindStage, Obj: "env", Dst: on, Mode: policy.StageDirect.String()},
		{Kind: policy.KindPlace, Lib: "lib", Worker: on},
	})
	if got != want {
		t.Fatalf("shard trace:\n%s\nwant:\n%s", got, want)
	}
	// The ref stage's copy is the ref stream's to plan: its resolve follows
	// the producer's ownership, for the stage's destination.
	if refs := tr.Refs; len(refs) != 2 || refs[0].Kind != policy.KindOwn ||
		refs[1].Kind != policy.KindResolve || refs[1].Obj != "r1" || refs[1].Dst != task {
		t.Fatalf("ref stream after a ref stage on %s:\n%s", task, policy.Dump(refs))
	}
}

// TestResultNotesReplicasUnlessRetryable pins the replica rule where it
// lives, in Plane.Result: a task's cacheable inputs become replicas on
// its worker after a success and after a final failure, but not after a
// retryable one — a copy that never staged must stage again for the
// retry. An input that is not cacheable never does.
func TestResultNotesReplicasUnlessRetryable(t *testing.T) {
	for _, c := range []struct {
		name          string
		ok, retryable bool
		noted         bool
	}{
		{"success", true, false, true},
		{"final failure", false, false, true},
		{"retryable failure", false, true, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			tp := newTestPlane(1)
			tp.Join("w")
			cached := core.FileSpec{Object: &content.Object{ID: "cached", Name: "cached"}, Cache: true}
			once := core.FileSpec{Object: &content.Object{ID: "once", Name: "once"}}
			tp.Submit(testRun{IsTask: true, Task: testTask{Key: TaskKey(1), ID: 1,
				Spec: testSpec{need: core.Resources{Cores: 1}, inputs: []core.FileSpec{cached, once}}}})
			if tp.Result("w", core.Result{ID: 2, Ok: true}) {
				t.Fatal("a result for a spec running nowhere was taken")
			}
			if !tp.Result("w", core.Result{ID: 1, Ok: c.ok, Retryable: c.retryable}) {
				t.Fatal("the result of the running task was refused")
			}
			files := tp.shells[0].view.Workers["w"].Files
			if got := map[string]bool{"cached": files["cached"], "once": files["once"]}; !reflect.DeepEqual(got, map[string]bool{"cached": c.noted, "once": false}) {
				t.Fatalf("replicas noted %v, want cached=%v once=false", got, c.noted)
			}
			if s := tp.Shards[0]; c.retryable != (s.InFlight() == 1) {
				t.Fatalf("%d in flight after the result: %s", s.InFlight(), fmt.Sprint(tp.shells[0].placed))
			}
		})
	}
}

// TestHomeResolvedAtJoin: a worker's home shard is resolved once, at its
// join, to the shard ShardOf names, and forgotten at its death.
func TestHomeResolvedAtJoin(t *testing.T) {
	tp := newTestPlane(4)
	ids := []string{"w0", "w1", "w2", "w3", "w4", "w5"}
	for _, id := range ids {
		if !tp.Join(id) {
			t.Fatalf("join %s refused", id)
		}
		if s, ok := (*tp.homes.Load())[id]; !ok || s != tp.Shards[tp.ShardOf(id)] {
			t.Fatalf("%s: resolved home %v, want shard %d", id, ok, tp.ShardOf(id))
		}
	}
	for _, id := range ids {
		tp.Leave(id)
	}
	if homes := *tp.homes.Load(); len(homes) != 0 {
		t.Errorf("after every death the plane still holds homes for %v", homes)
	}
}
