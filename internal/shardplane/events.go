package shardplane

import (
	"maps"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/proto"
)

// The plane's event methods (DESIGN.md §12): one per engine event — a
// worker's join and death, a result, a file ack, a library ack — each the
// one way its event enters, running its whole fixed order: the router
// change, the ref stream, under the shard lock the view change — the
// worker in or out, the copy settled, the replicas noted, the capacity
// freed by the verb — and the shell's hooks, the quota release, then
// with no lock held the wakes and the nudge. The engine keeps its clock:
// a retry's backoff is its Shell's Done to arrange.

// home is worker's shard: the one its join resolved, or ShardOf's hash
// of the ID for a worker that has none — the same shard either way.
func (p *Plane[T, I]) home(worker string) *Sched[T, I] {
	if s, ok := (*p.homes.Load())[worker]; ok {
		return s
	}
	return p.Shards[p.ShardOf(worker)]
}

// setHome resolves worker's home shard once, at its join, for the events
// that follow — or, with s nil, forgets it at its death. Joins and deaths
// are rare: each writes a new map, so an event's lookup takes no lock.
func (p *Plane[T, I]) setHome(worker string, s *Sched[T, I]) {
	p.homesMu.Lock()
	defer p.homesMu.Unlock()
	homes := maps.Clone(*p.homes.Load())
	if s == nil {
		delete(homes, worker)
	} else {
		homes[worker] = s
	}
	p.homes.Store(&homes)
}

// Join is worker's arrival, false if the plane is closed or the shell
// refuses it: its shard enters the view the shell names and marks every
// queue, the router learns it, and the shard runs, then the workerless
// shards — whose parked specs can now leave — and the starving ones.
func (p *Plane[T, I]) Join(worker string) bool {
	s := p.home(worker)
	s.mu.Lock()
	var wv *policy.WorkerView
	if !p.Closed() {
		wv = s.shell.Join(worker)
	}
	if wv != nil {
		s.view.AddWorkers([]*policy.WorkerView{wv})
		s.Joined()
	}
	s.mu.Unlock()
	if wv == nil {
		return false
	}
	p.setHome(worker, s)
	p.Add(worker)
	s.Wake()
	p.WakeParked()
	p.Nudge()
	return true
}

// Leave is worker's death. The router forgets it first — forward targets
// and ring ownership move — then every ref it owned re-homes (trace-silent
// when it owned none), then the shell drops its records, its shard takes
// it out of the view — the sources of its copies in flight get their
// slots back — and requeues what ran there within the retry budget; what
// is past it returns its quota and is handed back, lost, for the engine
// to fail. Then the shard runs and starving shards get another chance.
func (p *Plane[T, I]) Leave(worker string) (requeued int, lost []Run[T, I]) {
	p.Remove(worker)
	s := p.home(worker)
	s.mu.Lock()
	s.shell.Refs(p.RefOwnerDied(worker), nil)
	s.shell.Leave(worker)
	requeued, lost = s.Died(worker, s.remove(worker))
	for i := range lost {
		p.Release(lost[i].Tenant())
	}
	s.mu.Unlock()
	p.setHome(worker, nil)
	s.Wake()
	p.Nudge()
	return requeued, lost
}

// Result is worker's result of spec res.ID, false if no such spec runs
// there. The spec leaves the worker with its resources or its slot — a
// retryable failure within the budget backs off in the table — a by-ref
// result makes the producer the ref's owner, a task's cacheable inputs
// are noted as replicas unless the attempt failed retryably (a copy that
// never staged must stage again); the shell, the lock released, delivers
// the result or backs it off. A final result returns its quota. The shard
// runs, and the freed capacity nudges starving shards.
func (p *Plane[T, I]) Result(worker string, res core.Result) bool {
	s := p.home(worker)
	s.mu.Lock()
	r, retry, ok := s.Done(worker, res.ID, !res.Ok && res.Retryable && !p.Closed())
	if !ok {
		s.mu.Unlock()
		return false
	}
	if res.Ok && res.Ref != nil {
		s.shell.Refs(nil, p.RefResult(worker, res.Ref))
	}
	if r.IsTask {
		wv := s.view.Workers[worker]
		for _, in := range r.Task.Spec.Inputs() {
			if in.Cache && (res.Ok || !res.Retryable) {
				s.note(wv, in.Object.ID)
			}
		}
	}
	s.mu.Unlock()
	s.shell.Done(worker, r, res, retry)
	if retry == 0 {
		p.Release(r.Tenant())
	}
	s.Wake()
	p.Nudge()
	return true
}

// FileAck is worker's ack of its copy of ack.ID. The copy is no longer in
// flight and its source has its slot back; a cached one is a replica, in
// the view and in the ref catalog. A failed one is recovered: a ref's by
// the catalog's restage, planned here and executed by the shell, a peer
// fetch's over the engine's own link if it can. The shell settles the
// ack, and what waited on the object's first copy looks again. A file ack
// frees no invocation capacity, so no nudge.
func (p *Plane[T, I]) FileAck(worker string, ack proto.FileAck) {
	s := p.home(worker)
	s.mu.Lock()
	s.fileAck(worker, ack)
	s.mu.Unlock()
	s.Wake()
}

// fileAck is FileAck's work under the shard lock.
func (s *Sched[T, I]) fileAck(worker string, ack proto.FileAck) {
	p, wv := s.p, s.view.Workers[worker]
	s.view.ClearPending(wv, ack.ID)
	p.copyMu.Lock()
	peer := s.release(worker, ack)
	p.copyMu.Unlock()
	restaged := false
	switch {
	case ack.Ok && ack.Cache:
		s.note(wv, ack.ID)
		p.RefHeld(worker, ack.ID)
	case !ack.Ok:
		if d, name, isRef := p.ResolveRef(worker, ack.ID, true); isRef {
			restaged = s.resolve(wv, ack.ID, name, d)
		} else if peer && s.shell.Restage(worker, ack) {
			restaged = true
			s.view.NotePending(wv, ack.ID)
			s.source(worker, ack.ID, nil)
		}
	}
	s.shell.Acked(worker, ack, restaged)
	s.FileAcked(ack.ID)
}

// LibAck is worker's ack of its install of ack.Library: if the view holds
// that instance it is settled — ready, or gone — its claim goes and what
// it opens looks again, and the shell does its part. A ready instance, or
// the resources a failed one frees, is capacity starving shards may want.
func (p *Plane[T, I]) LibAck(worker string, ack proto.LibraryAck) {
	s := p.home(worker)
	s.mu.Lock()
	if s.LibAcked(worker, ack.Library, ack.Ok) {
		s.shell.Installed(worker, ack)
	}
	s.mu.Unlock()
	s.Wake()
	p.Nudge()
}
