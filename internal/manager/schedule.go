package manager

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/proto"
)

// Each shard is the Shell of its scheduler (shardplane.Sched, DESIGN.md
// §12): the hooks below are invoked from its coalesced wake loop, with
// the shard lock held — Plan and Place by the task pass when the task
// queue is dirty; LibNeed, Reject, PlaceInv and Deploy by the invocation
// pass, per dirty library. They never scan state that their dirty mark
// could not have changed, and what they place the pass itself enters in
// the in-flight table.
//
// Every scheduling decision — which worker runs a task, where a library
// instance deploys, which peer sources a transfer, what gets evicted —
// comes from the pure policy core (internal/policy) reading the shard's
// ClusterView. This file only *executes* decisions: it sends messages,
// moves resource commitments, and reports the resulting transitions
// back into the view. Passes plan in batches (PlanTaskBatchInto,
// PlaceReadyBatchInto) whose contract is strict sequential equivalence,
// so the decision sequence is that of the one-at-a-time loop — which the
// oracles in policy/batch_test.go and shardplane/sched_test.go hold it to.

// ---- staging execution ----

// altSourcesLocked collects up to two alternate holders' data
// addresses for a peer fetch, so the worker's data plane can retry a
// failed transfer against another source before surfacing the failure
// to the manager (which would re-stage from its own link). Candidates
// are this shard's confirmed holders minus the assigned source and the
// destination, in sorted-ID order for determinism.
func (s *shard) altSourcesLocked(objID, src, dst string) []string {
	holders := s.view.Holders[objID]
	if len(holders) <= 1 {
		return nil
	}
	var alts []string
	for _, id := range core.SortedKeys(holders) {
		if id == src || id == dst {
			continue
		}
		if hw, live := s.workers[id]; live {
			alts = append(alts, hw.hello.DataAddr)
			if len(alts) == 2 {
				break
			}
		}
	}
	return alts
}

// execStageLocked carries out one staging decision on a worker: a peer
// fetch from the chosen source or a direct bulk send from the manager.
// StageReady decisions are no-ops by construction and StageWait never
// reaches execution (placements with waiting inputs are not committed).
func (s *shard) execStageLocked(w *workerState, sf policy.StageFile) {
	switch sf.Mode {
	case policy.StagePeer:
		src := s.workers[sf.Src.ID]
		if src == nil {
			// The source died between decision and execution (same lock
			// hold in practice, but the fallback is free): the manager's
			// own link is always valid.
			s.directSendLocked(w, sf.Spec)
			return
		}
		src.v.TransfersOut++
		s.peerFetchLocked(w, src, sf, s.altSourcesLocked(sf.Spec.Object.ID, src.id, w.id))
	case policy.StageDirect:
		if s.m.opts.PeerTransfers && sf.Spec.PeerTransfer {
			if src, alts := s.m.acquireRemoteSource(sf.Spec.Object.ID, s.idx, w.id); src != nil {
				// Cross-shard peer sourcing: the policy core planned a
				// manager send because this shard's view holds no
				// replica — but another shard's worker does. Upgrade
				// the transport to a peer fetch from that holder. The
				// decision trace keeps the planned StageDirect: which
				// link carries the bytes across shards is a transport
				// concern, invisible to the pure per-shard policy and
				// to the simulator's replay.
				s.peerFetchLocked(w, src, sf, alts)
				return
			}
		}
		s.directSendLocked(w, sf.Spec)
		if s.rec != nil {
			s.rec.Record(policy.TraceStage(sf))
		}
	case policy.StageRef:
		// Proxy-object input: the per-shard view cannot plan this copy —
		// the bytes never transited the manager — so the shard trace
		// records only that a ref stage ran and the global ref plane
		// plans (and traces) the actual source.
		if s.rec != nil {
			s.rec.Record(policy.TraceStage(sf))
		}
		d, _, _ := s.m.refs.resolve(w.id, sf.Object, false)
		s.execResolveLocked(w, sf.Object, sf.Spec.Object.Name, d)
	}
}

// peerFetchLocked tells w to fetch the staged object from src's data
// server (alts: addresses its data plane may retry on its own),
// recording src as the fetch's source so the ack returns its transfer
// slot — which the caller reserved, in the shard view for a local
// source or in the global registry for one in another shard.
func (s *shard) peerFetchLocked(w, src *workerState, sf policy.StageFile, alts []string) {
	obj := sf.Spec.Object
	s.m.catalogAdd(sf.Spec)
	s.view.NotePending(w.v, obj.ID)
	w.fetchSources[obj.ID] = src.id
	w.enqueue(outMsg{t: proto.MsgFetchFile, v: proto.FetchFile{
		ID:       obj.ID,
		Name:     obj.Name,
		FromAddr: src.hello.DataAddr,
		AltAddrs: alts,
		Source:   src.id,
		Cache:    sf.Spec.Cache,
		Unpack:   sf.Spec.Unpack,
	}})
	atomic.AddInt64(&s.m.stats.PeerTransfers, 1)
	if s.rec != nil {
		s.rec.Record(policy.TraceStage(sf))
	}
}

// execResolveLocked executes one ref-plane decision for the copy of
// ref id (file name name) on w — a first resolve at ref-stage
// execution, or the recovery resolve after a failed fetch — and reports
// whether a transfer was issued, whose own ack settles whatever waits
// on the copy. Ref transfers consume no view-tracked transfer slots and
// register no fetch-source record — they are bounded by the workers'
// data-plane serve concurrency, not the spanning-tree cap — so the
// FileAck plumbing sees them as direct sends that happen to arrive from
// a peer.
func (s *shard) execResolveLocked(w *workerState, id, name string, d policy.ResolveDecision) bool {
	m := s.m
	fetch := proto.FetchFile{ID: id, Name: name, Cache: true, Size: d.Size}
	switch d.Mode {
	case policy.ResolveReady:
		// The consumer already holds (or is receiving) a replica.
		return false
	case policy.ResolveLost:
		// No copy survives anywhere. The dispatch proceeds and fails on
		// the worker with a retryable "input not staged", drawing on the
		// spec's retry budget — the documented owner-death semantics.
		return false
	case policy.ResolvePeer:
		fetch.FromAddr, fetch.AltAddrs = m.refSourceAddrs(d.Src, d.Alts)
		if fetch.FromAddr != "" {
			atomic.AddInt64(&m.stats.RefTransfers, 1)
			break
		}
		// The chosen holder died between decision and execution; the
		// next membership event re-plans through rehome. Fall back to
		// the manager's catalog when it happens to have the bytes.
		fallthrough
	case policy.ResolveDirect:
		fs, known := m.catalogGet(id)
		if known {
			s.directSendLocked(w, fs)
		}
		return known
	case policy.ResolveShared:
		fetch.Shared, fetch.Own = true, d.Promote
	}
	s.view.NotePending(w.v, id)
	w.enqueue(outMsg{t: proto.MsgFetchFile, v: fetch})
	return true
}

// acquireRemoteSource picks a live holder of the object outside shard
// idx with a free cross-shard transfer slot, reserving the slot, and
// collects up to two other holders' data addresses as worker-side
// retry alternates. Holders are scanned in sorted-ID order for
// determinism. Cross-shard slots are accounted in the global registry
// (peerSource.out), separate from the per-shard policy views — the
// same cap applies to each domain independently.
func (m *Manager) acquireRemoteSource(objID string, idx int, dstID string) (*workerState, []string) {
	m.obsMu.Lock()
	defer m.obsMu.Unlock()
	hs := m.holders[objID]
	if len(hs) == 0 {
		return nil, nil
	}
	var src *workerState
	var alts []string
	for _, id := range core.SortedKeys(hs) {
		if id == dstID {
			continue
		}
		p := m.peers[id]
		if p == nil {
			continue
		}
		if src == nil && m.shardPlane.ShardOf(id) != idx && p.out < m.opts.PeerTransferCap {
			p.out++
			src = p.w
			continue
		}
		if len(alts) < 2 {
			alts = append(alts, p.w.hello.DataAddr)
		}
	}
	if src == nil {
		return nil, nil
	}
	return src, alts
}

// releaseRemoteSource returns a cross-shard transfer slot. A no-op if
// the source died in the meantime — its slots died with it.
func (m *Manager) releaseRemoteSource(workerID string) {
	m.obsMu.Lock()
	if p := m.peers[workerID]; p != nil && p.out > 0 {
		p.out--
	}
	m.obsMu.Unlock()
}

// directSendLocked stages an object from the manager's own link as a
// bulk frame: JSON header plus the raw bytes, no base64 expansion.
func (s *shard) directSendLocked(w *workerState, fs core.FileSpec) {
	obj := fs.Object
	s.m.catalogAdd(fs)
	s.view.NotePending(w.v, obj.ID)
	w.enqueue(outMsg{t: proto.MsgPutFileBulk, v: proto.PutFileHdr{
		File:   proto.HdrOf(obj),
		Cache:  fs.Cache,
		Unpack: fs.Unpack,
	}, bulk: true, payload: obj.Data})
	atomic.AddInt64(&s.m.stats.DirectTransfers, 1)
}

// ---- task scheduling ----

// Plan plans the whole queue in one batched policy call; the batch
// contract is strict sequential equivalence, so the pass executing the
// decisions in order emits exactly the plan-one/execute-one sequence.
func (s *shard) Plan(dst []policy.PlaceTask, tasks []pendingTask) []policy.PlaceTask {
	reqs := s.reqScratch[:0]
	for _, pt := range tasks {
		t := pt.Spec.t
		reqs = append(reqs, policy.TaskReq{Key: pt.Key, Res: t.Resources, Inputs: t.Inputs, Avoid: pt.Avoid, Tenant: t.TenantID})
	}
	s.reqScratch = reqs
	return s.view.PlanTaskBatchInto(dst, reqs, nil)
}

// Place carries out one planned task placement: staging, resource
// commitment, dispatch, and the dispatch's staging stamps.
func (s *shard) Place(pt *pendingTask, d policy.PlaceTask) {
	t := pt.Spec.t
	w := s.workers[d.Worker.ID]
	if s.rec != nil {
		s.rec.Record(policy.TraceTask(pt.Key, d))
	}
	start := time.Now()
	for _, sf := range d.Stages {
		s.execStageLocked(w, sf)
	}
	w.v.Commit = w.v.Commit.Add(t.Resources)
	w.enqueue(outMsg{t: proto.MsgRunTask, v: t})
	// TransferTime runs from dispatch until the last input this
	// dispatch depends on is acked on the worker — not the time
	// spent enqueueing messages into in-memory channels. Register
	// in the worker's ack-waiter index so the ack finds the stamps
	// without scanning the in-flight table.
	var st *staging
	for _, in := range t.Inputs {
		if in.Object != nil && w.v.Pending[in.Object.ID] {
			if st == nil {
				st = &staging{sentAt: start, waiting: map[string]bool{}}
			}
			st.waiting[in.Object.ID] = true
			w.ackWaiters[in.Object.ID] = append(w.ackWaiters[in.Object.ID], st)
		}
	}
	pt.Spec.staging = st
}

// ---- invocation scheduling (§3.5.2) ----

// LibNeed is what one instance of a registered library commits on its
// worker.
func (s *shard) LibNeed(lib string) (core.Resources, bool) {
	spec, known := s.m.libSpec(lib)
	if !known {
		return core.Resources{}, false
	}
	return spec.Resources, true
}

// Reject fails an invocation that can never run with a synthetic result;
// deliver never blocks the scheduler on a full results channel.
func (s *shard) Reject(pi pendingInv) bool {
	err := s.validateInvLocked(pi.Spec)
	if err != nil {
		s.failLocked(pi.ID, pi.Spec.TenantID, err.Error())
	}
	return err != nil
}

// validateInvLocked rejects invocations that can never run: unknown
// library, quarantined library, unknown function.
func (s *shard) validateInvLocked(inv *core.InvocationSpec) error {
	spec, known := s.m.libSpec(inv.Library)
	if !known {
		return fmt.Errorf("manager: invocation %d names unknown library %q", inv.ID, inv.Library)
	}
	if s.libFailures[inv.Library] >= maxLibraryFailures || s.libInfraFailures[inv.Library] >= maxLibraryInfraFailures {
		return fmt.Errorf("manager: library %q is marked broken after repeated deployment failures", inv.Library)
	}
	for _, f := range spec.Functions {
		if f.Name == inv.Function {
			return nil
		}
	}
	return fmt.Errorf("manager: library %q has no function %q", inv.Library, inv.Function)
}

// PlaceInv dispatches an invocation to the ready instance the policy
// core picked: most free ready slots, minimum worker ID on ties (the
// deterministic order shared with the simulator).
func (s *shard) PlaceInv(pi pendingInv, d policy.PlaceInvocation) {
	w := s.workers[d.Worker.ID]
	li := w.libs[pi.Lib]
	if s.rec != nil {
		s.rec.Record(policy.TracePlace(pi.Lib, d))
	}
	li.SlotsUsed++
	s.libSlotsChangedLocked(w, li)
	w.enqueue(outMsg{t: proto.MsgInvoke, v: pi.Spec})
}

// Deploy asks the policy core for a deploy decision for the library and
// executes it: evictions first, then staging, then the new instance's
// view record and the install message. Reports the worker a deployment
// was started on, or the first copies in flight that held every
// candidate up.
func (s *shard) Deploy(lib string) (worker string, blocked []string) {
	spec, known := s.m.libSpec(lib)
	if !known {
		return "", nil
	}
	var libFiles []core.FileSpec
	if spec.Env != nil {
		libFiles = append(libFiles, *spec.Env)
	}
	libFiles = append(libFiles, spec.Inputs...)
	d := s.view.PlanDeploy(policy.DeploySpec{
		Name:  spec.Name,
		Res:   spec.Resources,
		Files: libFiles,
	}, nil)
	if d.Worker == nil {
		return "", d.Blocked
	}
	w := s.workers[d.Worker.ID]
	if s.rec != nil {
		s.rec.Record(policy.TraceDeploy(spec.Name, d))
	}
	for _, e := range d.Evict {
		s.evictLibraryLocked(w, e.Lib)
	}
	for _, sf := range d.Stages {
		s.execStageLocked(w, sf)
	}
	li := &libInstance{LibraryView: policy.LibraryView{
		Name:         spec.Name,
		Slots:        spec.SlotCount(),
		MaxInstances: 1,
		Res:          d.Res,
	}}
	w.libs[spec.Name] = li
	s.view.AddInstance(w.v, &li.LibraryView)
	w.v.Commit = w.v.Commit.Add(d.Res)
	w.enqueue(outMsg{t: proto.MsgInstallLibrary, v: spec})
	atomic.AddInt64(&s.m.stats.LibrariesDeployed, 1)
	return w.id, nil
}

// evictLibraryLocked removes one library instance from a worker,
// releasing its resources and telling the worker to tear it down.
func (s *shard) evictLibraryLocked(w *workerState, name string) {
	li := w.libs[name]
	if li == nil {
		return
	}
	delete(w.libs, name)
	s.view.RemoveLibrary(w.v, name)
	w.v.Commit = w.v.Commit.Sub(li.Res)
	w.enqueue(outMsg{t: proto.MsgRemoveLibrary, v: proto.RemoveLibrary{Library: name}})
	atomic.AddInt64(&s.m.stats.LibrariesEvicted, 1)
}

// ObjectHolders returns how many workers hold the object — visibility
// for distribution tests. It reads the global replica registry and
// never touches any shard's scheduler lock.
func (m *Manager) ObjectHolders(obj *content.Object) int {
	m.obsMu.RLock()
	defer m.obsMu.RUnlock()
	return len(m.holders[obj.ID])
}
