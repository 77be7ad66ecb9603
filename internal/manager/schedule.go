package manager

import (
	"fmt"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/proto"
)

// Each shard is the Shell of its scheduler (shardplane.Sched, DESIGN.md
// §12). The scheduler decides: its passes plan every placement, staging
// and deploy against the shard's ClusterView through the pure policy core
// (internal/policy), record it, and hand it here — Stage, Resolve, Place,
// PlaceInv and Deploy, with the shard lock held, once the plane has
// applied them to the view: the copies in flight with their sources'
// transfer slots, the resources, instances and slots. This file only
// *executes* decisions: it sends messages and counts them. The events'
// engine work (Join, Leave, Installed, Restage, Acked, Done, Refs) is in
// manager.go and refplane.go.

// ---- staging execution ----

// Stage carries out one staging decision on its destination: a peer
// fetch from the chosen source, which may live in any shard, or a direct
// bulk send from the manager. A fetch from a source that died since the
// plan fails on the worker, and Restage re-sends it over the manager's
// own link.
func (s *shard) Stage(sf policy.StageFile) {
	w, obj := s.workers[sf.Dst.ID], sf.Spec.Object
	if sf.Mode != policy.StagePeer {
		s.directSendLocked(w, sf.Spec)
		return
	}
	s.m.catalogAdd(sf.Spec)
	from, alts := s.m.sourceAddrs(sf.Src.ID, s.m.shardPlane.Alternates(obj.ID, sf.Src.ID, w.id))
	w.enqueue(proto.MsgFetchFile, proto.FetchFile{
		ID:       obj.ID,
		Name:     obj.Name,
		FromAddr: from,
		AltAddrs: alts,
		Source:   sf.Src.ID,
		Cache:    sf.Spec.Cache,
		Unpack:   sf.Spec.Unpack,
	})
	s.m.ctr.PeerTransfers.Add(1)
}

// Resolve executes one ref-catalog resolve for the copy of ref id (file
// name name) on worker — a first resolve at ref-stage execution, or the
// recovery resolve after a failed fetch: the spills a
// promote cascaded first, then the copy. It reports whether a transfer
// was issued, whose own ack settles whatever waits on the copy. Ref
// transfers hold no transfer slot — they are bounded by the workers'
// data-plane serve concurrency, not the spanning-tree cap.
func (s *shard) Resolve(worker, id, name string, d policy.ResolveDecision) bool {
	m, w := s.m, s.workers[worker]
	if d.Promote {
		m.ctr.RefPromotes.Add(1)
	}
	m.execSpills(d.Spills)
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
		fetch.FromAddr, fetch.AltAddrs = m.sourceAddrs(d.Src, d.Alts)
		if fetch.FromAddr != "" {
			m.ctr.RefTransfers.Add(1)
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
	w.enqueue(proto.MsgFetchFile, fetch)
	return true
}

// directSendLocked stages an object from the manager's own link as a
// bulk frame: a binary header plus the raw bytes, no base64 expansion.
func (s *shard) directSendLocked(w *workerState, fs core.FileSpec) {
	obj := fs.Object
	s.m.catalogAdd(fs)
	w.enqueueBulk(proto.MsgPutFileBulk, proto.PutFileHdr{
		File:   proto.HdrOf(obj),
		Cache:  fs.Cache,
		Unpack: fs.Unpack,
	}, obj.Data)
	s.m.ctr.DirectTransfers.Add(1)
}

// ---- task scheduling ----

// Place carries out one planned task placement, its stages out: the
// dispatch and its staging stamps.
func (s *shard) Place(pt *pendingTask, d policy.PlaceTask) {
	t := pt.Spec.t
	w := s.workers[d.Worker.ID]
	start := time.Now()
	w.enqueue(proto.MsgRunTask, t)
	// TransferTime runs from dispatch until the last input this
	// dispatch depends on is acked on the worker — not the time
	// spent enqueueing messages into in-memory channels. Register
	// in the worker's ack-waiter index so the ack finds the stamps
	// without scanning the in-flight table: once per object, however
	// often the task names it.
	var st *staging
	for i, in := range t.Inputs {
		if in.Object == nil || !w.v.Pending[in.Object.ID] || named(t.Inputs[:i], in.Object.ID) {
			continue
		}
		if st == nil {
			st = &staging{sentAt: start}
		}
		st.pending++
		w.ackWaiters[in.Object.ID] = w.ackWaiters[in.Object.ID].add(st)
	}
	pt.Spec.staging = st
}

// named reports whether one of files is the object id.
func named(files []core.FileSpec, id string) bool {
	for _, f := range files {
		if f.Object != nil && f.Object.ID == id {
			return true
		}
	}
	return false
}

// ---- invocation scheduling (§3.5.2) ----

// Library is a registered library's deploy spec, built at registration.
func (s *shard) Library(lib string) (*policy.DeploySpec, bool) {
	if l := s.m.library(lib); l != nil {
		return &l.deploy, true
	}
	return nil, false
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
	l := s.m.library(inv.Library)
	if l == nil {
		return fmt.Errorf("manager: invocation %d names unknown library %q", inv.ID, inv.Library)
	}
	if s.libFailures[inv.Library] >= maxLibraryFailures || s.libInfraFailures[inv.Library] >= maxLibraryInfraFailures {
		return fmt.Errorf("manager: library %q is marked broken after repeated deployment failures", inv.Library)
	}
	for _, f := range l.spec.Functions {
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
	s.workers[d.Worker.ID].enqueue(proto.MsgInvoke, pi.Spec)
}

// Deploy tells the worker to tear down the idle instances the deploy
// evicts, then to install lib.
func (s *shard) Deploy(lib string, d policy.DeployLibrary) {
	w := s.workers[d.Worker.ID]
	for _, e := range d.Evict {
		w.enqueue(proto.MsgRemoveLibrary, proto.RemoveLibrary{Library: e.Lib})
		s.m.ctr.LibrariesEvicted.Add(1)
	}
	w.enqueue(proto.MsgInstallLibrary, s.m.library(lib).spec)
	s.m.ctr.LibrariesDeployed.Add(1)
}

// ObjectHolders returns how many workers hold the object — visibility
// for distribution tests. It reads the plane's holder index and never
// touches any shard's scheduler lock.
func (m *Manager) ObjectHolders(obj *content.Object) int {
	return m.shardPlane.Holders(obj.ID)
}
