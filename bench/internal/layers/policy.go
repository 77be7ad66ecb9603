package layers

import (
	"fmt"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/shardplane"
)

const probeLib = "dispatch"

// view builds a cluster view of n workers, each hosting a ready
// 16-slot instance of probeLib with every slot free, and the first
// `holders` of them holding the object "env". With ring false the
// workers are entered into the worker table only: ready-instance
// placement never walks the consistent-hash ring, and hashring.Add
// re-sorts every point on each insertion, so joining 1000 workers costs
// ~11 s on the reference host against 0.03 s for 64 — far more than the
// probe it would set up.
func view(n, holders int, ring bool) *policy.ClusterView {
	v := policy.NewClusterView(policy.Options{PeerTransfers: true})
	total := core.Resources{Cores: 32, MemoryMB: 64 << 10, DiskMB: 64 << 10}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%04d", i)
		var w *policy.WorkerView
		if ring {
			w = v.AddWorker(id, "", total)
		} else {
			w = &policy.WorkerView{ID: id, Alive: true, Total: total}
			v.Workers[id] = w
		}
		lv := &policy.LibraryView{Name: probeLib, Ready: true, Slots: 16, MaxInstances: 1}
		v.AddInstance(w, lv)
		v.SetFreeReady(w, lv, 16)
		if i < holders {
			v.NoteReplica(w, "env")
		}
	}
	return v
}

// policy: the pure decision functions, over views of the sizes the
// workloads use (64 workers) and the size a large run would (1000).
func (s *suite) policy() error {
	// Ready-instance placement, the per-invocation decision: a batch of
	// 1024 over 64 workers (every free slot once), 1000 over 1000.
	for _, size := range []struct {
		workers, batch, calls int
		suffix                string
	}{{64, 1024, 20, "64"}, {1000, 1000, 3, "1k"}} {
		v := view(size.workers, 0, false)
		var dst []policy.PlaceInvocation
		placed := 0
		ns := s.perCall("policy.place_ready_batch_"+size.suffix, size.calls, func() {
			dst = v.PlaceReadyBatchInto(dst[:0], probeLib, size.batch, nil)
			placed = len(dst)
		})
		if placed != size.batch && !s.short {
			return fmt.Errorf("policy.place_ready_batch_%s placed %d of %d", size.suffix, placed, size.batch)
		}
		s.out["policy.place_ready_batch_ns_per_inv_"+size.suffix] = ns / float64(size.batch)
	}

	// Task placement: 64 requests, each with one cached, peer-transferable
	// input that 8 of the 64 workers already hold.
	v := view(64, 8, true)
	env := core.FileSpec{Object: &content.Object{ID: "env", Name: "env", LogicalSize: 1 << 20}, Cache: true, PeerTransfer: true}
	reqs := make([]policy.TaskReq, 64)
	for i := range reqs {
		reqs[i] = policy.TaskReq{Key: fmt.Sprintf("task-%d", i), Res: core.Resources{Cores: 2}, Inputs: []core.FileSpec{env}}
	}
	var tasks []policy.PlaceTask
	ns := s.perCall("policy.plan_task_batch", 20, func() {
		tasks = v.PlanTaskBatchInto(tasks[:0], reqs, nil)
	})
	for _, d := range tasks {
		if d.Worker == nil {
			return fmt.Errorf("policy.plan_task_batch left a task unplaced")
		}
	}
	s.out["policy.plan_task_batch_ns_per_task"] = ns / float64(len(reqs))

	// Library deploy: a new library with one environment file, onto a
	// view where nobody hosts it yet.
	spec := policy.DeploySpec{Name: "mllib", Files: []core.FileSpec{env}}
	deployed := true
	s.out["policy.plan_deploy_ns"] = s.perCall("policy.plan_deploy", 500, func() {
		if v.PlanDeploy(spec, nil).Worker == nil {
			deployed = false
		}
	})
	if !deployed {
		return fmt.Errorf("policy.plan_deploy found no worker")
	}

	// Source choice among 8 holders for a worker that holds nothing.
	dst := v.Workers["w0063"]
	found := true
	s.out["policy.pick_source_ns"] = s.perCall("policy.pick_source", 20000, func() {
		if v.PickSource(dst, "env") == nil {
			found = false
		}
	})
	if !found {
		return fmt.Errorf("policy.pick_source found no holder")
	}

	// Ref resolve: a proxy object owned by one worker and replicated on
	// three, resolved for a worker that has no copy (the peer path).
	refs := policy.NewRefTable(0)
	refs.NoteRefResult("w0000", "ref", "task-1.out", BlobBytes, nil)
	for _, w := range []string{"w0001", "w0002", "w0003"} {
		refs.AddRefHolder(w, "ref")
	}
	peer := true
	s.out["policy.plan_resolve_ns"] = s.perCall("policy.plan_resolve", 20000, func() {
		if refs.PlanResolve("w0063", "ref", false, nil).Mode != policy.ResolvePeer {
			peer = false
		}
	})
	if !peer {
		return fmt.Errorf("policy.plan_resolve did not choose a peer")
	}
	return nil
}

// shardplane: routing one invocation to a shard, 8 shards over 64
// workers.
func (s *suite) shardplane() error {
	r := shardplane.NewRouter(8)
	for i := 0; i < 64; i++ {
		r.Add(fmt.Sprintf("w%03d", i))
	}
	id, routed := int64(0), true
	s.out["shardplane.route_ns"] = s.perCall("shardplane.route", 100000, func() {
		id++
		if _, ok := r.RouteSpec(id); !ok {
			routed = false
		}
	})
	if !routed {
		return fmt.Errorf("shardplane.route found no live shard")
	}
	return nil
}
