// Package dataplane is the worker's object-staging layer: everything
// between the control loop (which only decodes frames) and the
// executor (which only runs code) that moves content-addressed bytes.
//
// It owns the worker's content.Cache and layers three things over it:
//
//   - An asynchronous fetch side: peer fetches run on a bounded worker
//     pool, so one stalled source costs one pool slot, not the whole
//     worker. This is what lets context distribution overlap with
//     execution (Figure 3b): invocations keep running while the
//     spanning tree streams environments in the background.
//   - Single-flight deduplication: any number of queued requests for
//     one object ID share a single transfer. Each request still gets
//     its own completion callback (each FetchFile must ack with its
//     own Source echo), but the network is hit once.
//   - A per-object state machine — Absent → Fetching → Cached → Absent,
//     with Owned (a pinned holder-of-record copy) and Spilled (demoted
//     to the shared tier) beside Cached — that the executor synchronizes
//     with through PinResolve: a task whose input is still in flight
//     waits for the flight instead of failing, and a pin can never race
//     an eviction, because every removal runs under the plane lock.
//
// Peers reach each other over persistent links: a plane keeps one idle
// connection per peer data address and reuses it for the next fetch
// there. The serve side (peers pulling from this worker's cache) answers
// each link's requests in turn under its own concurrency cap, held per
// request, so a thundering herd of requesters degrades to queueing.
package dataplane

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/content"
	"repro/internal/poncho"
	"repro/internal/proto"
)

// State is a cache object's position in the staging lifecycle.
type State int

const (
	// Absent: not cached, no transfer in flight.
	Absent State = iota
	// Fetching: a single-flight peer transfer is running or queued.
	Fetching
	// Cached: resident in the content cache.
	Cached
	// Owned: cached and pinned as this worker's holder-of-record copy —
	// a ref result produced here, or adopted after the previous owner
	// died. Owned objects never fall to plain LRU eviction; they leave
	// only through an explicit Spill to the shared tier.
	Owned
	// Spilled: demoted to the shared tier and gone from the cache. The
	// bytes survive in shared storage; a later resolve fetches them back
	// (and may promote the fetcher to owner).
	Spilled
)

func (s State) String() string {
	switch s {
	case Absent:
		return "absent"
	case Fetching:
		return "fetching"
	case Cached:
		return "cached"
	case Owned:
		return "owned"
	case Spilled:
		return "spilled"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// FetchFn transfers one object from a peer data server. Injectable so
// tests can count transfers or stall them without sockets.
type FetchFn func(addr, id string) (*content.Object, error)

// SharedTier is the second cache tier: durable shared storage that
// owned objects spill to under local pressure and resolves fall back
// to when no peer replica survives. *sharedfs.Store satisfies it; the
// indirection keeps the plane free of a sharedfs dependency and is the
// only sanctioned route from worker code to the shared tier (the
// pinresolve analyzer bans direct sharedfs calls in internal/worker).
type SharedTier interface {
	Put(obj *content.Object)
	Fetch(id string) (*content.Object, error)
}

// Config configures a Plane.
type Config struct {
	// Cache is the backing object store (required).
	Cache *content.Cache
	// FetchConcurrency bounds concurrent peer fetches (default 4): a
	// stalled source occupies one pool slot while unrelated fetches,
	// puts, and every invocation keep moving.
	FetchConcurrency int
	// ServeConcurrency bounds the peer requests answered at once
	// (default 64).
	ServeConcurrency int
	// IdleTimeout bounds idle time on peer data links, fetch and serve
	// alike (default 30s): every read and write must make progress
	// within it, and a server drops a link idle for longer.
	IdleTimeout time.Duration
	// Fetch overrides the peer transfer function (tests). Nil uses
	// FetchPeer.
	Fetch FetchFn
	// Shared is the spill tier for owned objects (optional). With no
	// shared tier configured, Spill fails and shared-source fetches
	// error out.
	Shared SharedTier
}

// Stats counts data-plane activity; all fields are atomically
// maintained, so Snapshot never takes the plane lock.
type Stats struct {
	Fetches     int64 // transfers actually started
	FetchErrors int64 // transfers that failed against every known source
	// AltSourceRetries counts fetch attempts against an alternate
	// holder after the primary source failed. A retry that succeeds
	// keeps the transfer inside the data plane — no manager restage.
	AltSourceRetries int64
	Deduped          int64 // fetch requests absorbed by an in-flight transfer
	Puts             int64 // objects stored via Put
	Served           int64 // peer-serve requests answered with data
	ServeErrors      int64 // peer-serve requests refused (uncached, bad frame)
	Spills           int64 // owned objects demoted to the shared tier
	SharedFetches    int64 // transfers satisfied from the shared tier
}

// Request asks for one object to be staged from a peer.
type Request struct {
	ID   string
	Addr string
	// AltAddrs lists alternate holders to try, in order, if the fetch
	// from Addr fails. Surrendering on the first peer error would turn
	// every mid-transfer source death into a round trip through the
	// manager's restage path; retrying here keeps recovery local.
	AltAddrs []string
	Unpack   bool
	// Shared fetches the object from the shared tier instead of a peer
	// (Addr and AltAddrs are unused).
	Shared bool
	// Own marks the object owned on arrival: the manager promoted this
	// worker to holder of record as part of the resolve.
	Own bool
}

// flight is one in-progress single-flight fetch: everyone wanting the
// object parks on done. late are the acks of requests that joined it
// after its transfer left the queue; runFetch runs them with the queued
// ones.
type flight struct {
	done chan struct{}
	err  error
	late []func(error)
}

// Plane is a worker's data plane.
type Plane struct {
	cfg   Config
	cache *content.Cache

	mu      sync.Mutex
	flights map[string]*flight
	queue   []queued
	active  int
	owned   map[string]bool // holder-of-record copies, pinned against LRU
	spilled map[string]bool // demoted to the shared tier by this worker
	// transient counts the uses of inputs bound to a dispatch rather than
	// to the worker (FileSpec.Cache false); see PutTransient.
	transient map[string]transientUse
	idle      *link // idle outbound links, at most one per peer address
	inbound   *link // every link a peer holds to this server
	closed    bool

	done  chan struct{}
	wg    sync.WaitGroup
	serve chan struct{} // serve-side concurrency tokens

	fetches, fetchErrors, altRetries, deduped, puts, served, serveErrors atomic.Int64
	spills, sharedFetches                                                atomic.Int64
}

// transientUse is one uncached input's reasons to stay: stagings no
// task has claimed yet, and tasks that have claimed it and not ended.
type transientUse struct{ staged, claimed int }

type queued struct {
	req Request
	fl  *flight
	cbs []func(error)
}

// New creates a data plane over the given cache.
func New(cfg Config) *Plane {
	if cfg.FetchConcurrency <= 0 {
		cfg.FetchConcurrency = 4
	}
	if cfg.ServeConcurrency <= 0 {
		cfg.ServeConcurrency = 64
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 30 * time.Second
	}
	return &Plane{
		cfg:       cfg,
		cache:     cfg.Cache,
		flights:   map[string]*flight{},
		owned:     map[string]bool{},
		spilled:   map[string]bool{},
		transient: map[string]transientUse{},
		done:      make(chan struct{}),
		serve:     make(chan struct{}, cfg.ServeConcurrency),
	}
}

// Cache exposes the backing content cache (metrics, tests).
func (p *Plane) Cache() *content.Cache { return p.cache }

// Snapshot returns the current stats counters.
func (p *Plane) Snapshot() Stats {
	return Stats{
		Fetches:          p.fetches.Load(),
		FetchErrors:      p.fetchErrors.Load(),
		AltSourceRetries: p.altRetries.Load(),
		Deduped:          p.deduped.Load(),
		Puts:             p.puts.Load(),
		Served:           p.served.Load(),
		ServeErrors:      p.serveErrors.Load(),
		Spills:           p.spills.Load(),
		SharedFetches:    p.sharedFetches.Load(),
	}
}

// StateOf reports an object's staging state (tests, diagnostics).
func (p *Plane) StateOf(id string) State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stateLocked(id)
}

func (p *Plane) stateLocked(id string) State {
	if p.flights[id] != nil {
		return Fetching
	}
	if p.cache.Has(id) {
		if p.owned[id] {
			return Owned
		}
		return Cached
	}
	if p.spilled[id] {
		return Spilled
	}
	return Absent
}

// Close stops the plane: queued fetches fail immediately, waiters are
// released, no new work is accepted, and every peer link closes — the
// idle outbound ones and every inbound one — so no serve goroutine waits
// out the idle deadline. It does not wait for running transfers — they
// finish (or fail on their closed link) on their own; use Wait to drain
// them.
func (p *Plane) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	q := p.queue
	p.queue = nil
	for _, e := range q {
		delete(p.flights, e.req.ID)
		e.fl.err = fmt.Errorf("dataplane: shutting down")
		for _, cb := range e.cbs {
			cb(e.fl.err)
		}
		close(e.fl.done)
	}
	// Each serve goroutine unlinks its own link when it ends; with the
	// list detached here, none touches these again.
	idle, inbound := p.idle, p.inbound
	p.idle, p.inbound = nil, nil
	p.mu.Unlock()
	close(p.done)
	closeAll(idle)
	closeAll(inbound)
}

// Wait blocks until all in-flight transfers and serve connections have
// drained. Call after Close.
func (p *Plane) Wait() { p.wg.Wait() }

// ---- put / evict ----

// Put stores an object (direct manager send), optionally unpacking a
// tarball environment on arrival. An object already cached or in
// flight is accepted idempotently (contents are immutable).
func (p *Plane) Put(obj *content.Object, unpack bool) error {
	if err := p.cache.Put(obj); err != nil {
		return err
	}
	p.puts.Add(1)
	if unpack {
		_, err := p.MarkUnpacked(obj)
		return err
	}
	return nil
}

// PutTransient is Put for an input that stays only as long as the
// dispatches using it (FileSpec.Cache false). Two tasks with identical
// uncached inputs share one content ID, so "drop it when the task ends"
// has to count: the staging is one use until a task claims it, each
// claiming task is one until it ends, and the bytes go at zero.
// Staging and task frames arrive on one connection in order, so a
// task's own staging is always there to claim, and a task dispatched
// onto a staging still in flight claims a use of its own.
func (p *Plane) PutTransient(obj *content.Object, unpack bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.Put(obj, unpack); err != nil {
		return err
	}
	u := p.transient[obj.ID]
	u.staged++
	p.transient[obj.ID] = u
	return nil
}

// Claim records that a task is about to use an uncached input, taking
// over one unclaimed staging of it if there is one. The control loop
// calls it when the task's frame arrives — before any earlier task can
// end between this task's staging and its start.
func (p *Plane) Claim(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	u := p.transient[id]
	if u.staged > 0 {
		u.staged--
	}
	u.claimed++
	p.transient[id] = u
}

// Release ends a claim. With no use left the object is dropped, unless
// something else pins it or this worker owns it as a ref.
func (p *Plane) Release(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	u := p.transient[id]
	if u.claimed > 0 {
		u.claimed--
	}
	if u.staged+u.claimed > 0 {
		p.transient[id] = u
		return
	}
	delete(p.transient, id)
	// Under the plane lock, like PinResolve's pin: no resolve can land
	// between the count reaching zero and the removal.
	if !p.owned[id] {
		p.cache.Evict(id)
	}
}

// PutOwned stores a ref result this worker just produced (or was
// promoted to own): the object is cached, pinned against LRU eviction,
// and marked holder of record. Ownership leaves only through Spill or
// the manager re-homing the ref. If the cache cannot make room even
// after LRU eviction, the bytes go straight to the shared tier instead
// — the object stays servable (serveConn falls back to shared), just
// not resident.
func (p *Plane) PutOwned(obj *content.Object) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.owned[obj.ID] {
		return nil
	}
	// Put and pin in one step: between two, a concurrent Put making room
	// could evict the copy this worker is about to answer for.
	if err := p.cache.PutPinned(obj); err != nil {
		if p.cfg.Shared == nil {
			return err
		}
		p.cfg.Shared.Put(obj)
		p.spilled[obj.ID] = true
		p.spills.Add(1)
		return nil
	}
	p.puts.Add(1)
	p.owned[obj.ID] = true
	delete(p.spilled, obj.ID)
	return nil
}

// SharedRead fetches an object from the shared tier without caching it
// — the L1 shared-FS read pattern, where every task pays the read
// again by design. This (plus the ref resolve fallback inside
// PinResolve) is the executor's only route to shared storage; touching
// the store directly would bypass the plane's accounting and the
// layering the pinresolve analyzer enforces.
func (p *Plane) SharedRead(id string) (*content.Object, error) {
	if p.cfg.Shared == nil {
		return nil, fmt.Errorf("dataplane: no shared tier configured")
	}
	return p.cfg.Shared.Fetch(id)
}

// Spill demotes an owned object to the shared tier (MsgSpillObject):
// the bytes are written to shared storage, the ownership pin drops,
// and the cache copy is evicted. The manager already re-tiered the ref
// at decision time — this is the mechanical half. An object still
// pinned by a running task keeps its cache copy until unpinned (the
// shared copy is durable either way). Spilling an object that is not
// owned here is an idempotent no-op if already spilled, an error
// otherwise.
func (p *Plane) Spill(id string) error {
	if p.cfg.Shared == nil {
		return fmt.Errorf("dataplane: no shared tier configured")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.spilled[id] {
		return nil
	}
	if !p.owned[id] {
		return fmt.Errorf("dataplane: spill of unowned object %s", shortID(id))
	}
	obj, ok := p.cache.Get(id)
	if !ok {
		return fmt.Errorf("dataplane: spill of uncached object %s", shortID(id))
	}
	p.cfg.Shared.Put(obj)
	if err := p.cache.Unpin(id); err != nil {
		return err
	}
	delete(p.owned, id)
	p.spilled[id] = true
	p.spills.Add(1)
	p.cache.Evict(id) // best effort: fails only if a task still pins it
	return nil
}

// AdoptOwned marks an already-cached replica as this worker's owned
// copy (MsgOwnObject: the previous owner died and the manager re-homed
// the ref here). Adopting an object that is not resident is an error —
// the manager only re-homes to live holders.
func (p *Plane) AdoptOwned(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.owned[id] {
		return nil
	}
	if !p.cache.Has(id) {
		return fmt.Errorf("dataplane: adopt of uncached object %s", shortID(id))
	}
	if err := p.cache.Pin(id); err != nil {
		return err
	}
	p.owned[id] = true
	delete(p.spilled, id)
	return nil
}

// Evict removes an unpinned object. It runs under the plane lock, like
// every removal, so a concurrent PinResolve sees the object either
// cached (and pins it first) or absent. Owned objects refuse eviction —
// the holder of record drops its copy only through Spill. Reports
// whether the object was removed.
func (p *Plane) Evict(id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.owned[id] && p.cache.Evict(id)
}

// Unpin releases one pin of a cached object (PinResolve took it).
func (p *Plane) Unpin(id string) error { return p.cache.Unpin(id) }

// ---- fetch side ----

// Fetch asks the plane to stage an object from a peer, calling done
// (from a plane goroutine) when the object is cached or the transfer
// failed. Requests for an object already in flight join that flight —
// one transfer, N callbacks. Requests for a cached object complete
// immediately.
func (p *Plane) Fetch(req Request, done func(error)) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		done(fmt.Errorf("dataplane: shutting down"))
		return
	}
	if fl := p.flights[req.ID]; fl != nil {
		// Single-flight: join the in-progress transfer.
		p.deduped.Add(1)
		for i := range p.queue {
			if p.queue[i].fl == fl {
				p.queue[i].cbs = append(p.queue[i].cbs, done)
				p.mu.Unlock()
				return
			}
		}
		// The transfer already left the queue: its end acks this too.
		fl.late = append(fl.late, done)
		p.mu.Unlock()
		return
	}
	if p.cache.Has(req.ID) {
		p.mu.Unlock()
		done(nil)
		return
	}
	fl := &flight{done: make(chan struct{})}
	p.flights[req.ID] = fl
	p.queue = append(p.queue, queued{req: req, fl: fl, cbs: []func(error){done}})
	p.dispatchLocked()
	p.mu.Unlock()
}

// dispatchLocked starts queued fetches while pool slots are free.
func (p *Plane) dispatchLocked() {
	for p.active < p.cfg.FetchConcurrency && len(p.queue) > 0 {
		e := p.queue[0]
		p.queue = p.queue[1:]
		p.active++
		p.wg.Add(1)
		go p.runFetch(e)
	}
}

func (p *Plane) runFetch(e queued) {
	defer p.wg.Done()
	err := p.transfer(e.req)
	if err != nil {
		p.fetchErrors.Add(1)
	}

	// Ack every request that rode this flight, late joiners included,
	// while it is still in the flight table: until it leaves, a task that
	// wants the object parks on it (PinResolve), so the task's result is
	// queued behind the FileAck and the manager never sees a result that
	// used a copy it still counts as in flight. No ack waits on a flight:
	// the worker's queues a frame, which its link's writer drains.
	acks := e.cbs
	for {
		for _, cb := range acks {
			cb(err)
		}
		p.mu.Lock()
		if acks, e.fl.late = e.fl.late, nil; len(acks) == 0 {
			break
		}
		p.mu.Unlock()
	}
	delete(p.flights, e.req.ID)
	e.fl.err = err
	p.active--
	p.dispatchLocked()
	p.mu.Unlock()
	close(e.fl.done)
}

// transfer performs the fetch and stores the result. Peer fetches that
// fail against the primary source retry each alternate holder in order
// before surfacing the error — so a source that dies mid-transfer
// costs one extra peer round trip, not a manager restage. Shared-tier
// fetches read the spill store instead of a peer; Own marks the object
// owned on arrival (a promote re-homed the ref to this worker).
func (p *Plane) transfer(req Request) error {
	var obj *content.Object
	var err error
	if req.Shared {
		if p.cfg.Shared == nil {
			return fmt.Errorf("dataplane: no shared tier configured")
		}
		p.sharedFetches.Add(1)
		obj, err = p.cfg.Shared.Fetch(req.ID)
	} else {
		p.fetches.Add(1)
		obj, err = p.fetchFrom(req.Addr, req.ID)
		for _, alt := range req.AltAddrs {
			if err == nil {
				break
			}
			p.altRetries.Add(1)
			obj, err = p.fetchFrom(alt, req.ID)
		}
	}
	if err != nil {
		return err
	}
	if req.Own {
		return p.PutOwned(obj)
	}
	return p.Put(obj, req.Unpack)
}

// fetchFrom fetches over Config.Fetch, or FetchPeer where none is set.
func (p *Plane) fetchFrom(addr, id string) (*content.Object, error) {
	if p.cfg.Fetch != nil {
		return p.cfg.Fetch(addr, id)
	}
	return p.FetchPeer(addr, id)
}

// ---- executor synchronization ----

// PinResolve returns the object pinned, waiting out an in-flight fetch
// first. It is the executor's only read path: Absent fails immediately
// (the manager never promised the object), Fetching parks on the
// flight, Spilled refetches from the shared tier, Cached and Owned pin —
// under the plane lock every removal takes, so a resolved input can
// never be evicted underneath a task. Callers must Unpin.
func (p *Plane) PinResolve(id string) (*content.Object, error) {
	for {
		p.mu.Lock()
		if fl := p.flights[id]; fl != nil {
			p.mu.Unlock()
			select {
			case <-fl.done:
			case <-p.done:
				return nil, fmt.Errorf("dataplane: shutting down")
			}
			continue
		}
		// Pin under the plane lock: no plane removal (Evict, Release,
		// Spill) can land between the Get and the Pin.
		obj, ok := p.cache.Get(id)
		if !ok {
			if p.spilled[id] && p.cfg.Shared != nil && !p.closed {
				// The object was spilled out from under a task that was
				// promised it (Spill raced the resolve). Its bytes are
				// durable in the shared tier: refetch through the normal
				// single-flight path instead of failing the task.
				fl := &flight{done: make(chan struct{})}
				p.flights[id] = fl
				p.queue = append(p.queue, queued{
					req: Request{ID: id, Shared: true},
					fl:  fl,
					cbs: []func(error){func(error) {}},
				})
				p.dispatchLocked()
				p.mu.Unlock()
				select {
				case <-fl.done:
				case <-p.done:
					return nil, fmt.Errorf("dataplane: shutting down")
				}
				if fl.err != nil {
					return nil, fl.err
				}
				continue
			}
			p.mu.Unlock()
			return nil, fmt.Errorf("dataplane: object %s not staged", shortID(id))
		}
		if err := p.cache.Pin(id); err != nil {
			p.mu.Unlock()
			return nil, err
		}
		p.mu.Unlock()
		return obj, nil
	}
}

// OwnedHere reports whether this worker holds the object as its owned
// holder-of-record copy (tests, diagnostics).
func (p *Plane) OwnedHere(id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.owned[id]
}

// MarkUnpacked expands a cached tarball (idempotent; see
// content.Cache.MarkUnpacked). The first expansion reads the manifest's
// name table and the cache retains the sorted module list with the
// unpacked state, so later tasks on this worker ask UnpackedModules
// instead of parsing the environment again; eviction drops both
// together. A manifest that does not decode is an error wrapping
// poncho.ErrManifest and leaves the tarball packed. Anything but a
// tarball is left alone.
func (p *Plane) MarkUnpacked(obj *content.Object) (first bool, err error) {
	if obj.Kind != content.Tarball || p.cache.IsUnpacked(obj.ID) {
		return false, nil
	}
	modules, err := ParseModules(obj)
	if err != nil {
		return false, err
	}
	return p.cache.MarkUnpacked(obj.ID, modules)
}

// UnpackedModules returns the sorted module list retained when the
// environment was expanded here; ok is false for an object that is not
// cached or not unpacked.
func (p *Plane) UnpackedModules(id string) (modules []string, ok bool) {
	return p.cache.Unpacked(id)
}

// ParseModules reads the package names an environment tarball installs,
// sorted, from its manifest's name table. Any other kind of object
// installs nothing; an unreadable manifest is an error naming the
// object and wrapping poncho.ErrManifest.
func ParseModules(obj *content.Object) ([]string, error) {
	if obj.Kind != content.Tarball {
		return nil, nil
	}
	modules, err := poncho.ManifestModules(obj.Data)
	if err != nil {
		return nil, fmt.Errorf("environment %q: %w", obj.Name, err)
	}
	return modules, nil
}

// ---- serve side ----

// Serve answers MsgGetFile requests from peers on the listener until it
// closes, each connection on a goroutine of its own for as long as the
// peer keeps it. At most ServeConcurrency requests are answered at once;
// a slot is held per request, so idle links never keep a new requester
// waiting. Callers own the listener's lifetime.
func (p *Plane) Serve(ln net.Listener) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		l := &link{conn: proto.WithIdleTimeout(nc, p.cfg.IdleTimeout)}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			nc.Close()
			return
		}
		l.next, p.inbound = p.inbound, l
		p.wg.Add(1)
		p.mu.Unlock()
		go p.serveLink(l)
	}
}

// serveLink answers the requests a peer sends on l until it closes the
// link, goes idle past the deadline, or breaks the protocol. Between
// requests it waits with no read buffer and no serve slot held; EOF or
// the deadline there ends the link quietly, while a stall inside a
// request is a serve error.
func (p *Plane) serveLink(l *link) {
	defer p.wg.Done()
	defer func() {
		// A link no longer listed was closed by Close.
		p.mu.Lock()
		listed := unlink(&p.inbound, l)
		p.mu.Unlock()
		if listed {
			l.conn.Close()
		}
	}()
	for {
		l.read = 0
		if _, err := io.ReadFull(l.conn, l.head[:]); err != nil {
			return
		}
		l.held = true
		select {
		case p.serve <- struct{}{}:
		case <-p.done:
			return
		}
		more := false
		proto.OneShot(l, func(pc *proto.Conn) { more = p.answer(pc, l) })
		<-p.serve
		if !more {
			return
		}
	}
}

// answer serves one request a peer sends on l: a bulk frame straight from
// the cache's backing slice, or an error message. It reports whether the
// link may carry another request: this one was read whole with nothing
// after it, and the answer went out.
func (p *Plane) answer(pc *proto.Conn, l *link) bool {
	t, raw, err := pc.Recv()
	if err != nil || t != proto.MsgGetFile {
		p.serveErrors.Add(1)
		return false
	}
	clean := l.read == frameLen(raw)
	id, err := proto.DecodeString(raw)
	if err != nil {
		p.serveErrors.Add(1)
		return false
	}
	obj, ok := p.cache.Get(id)
	if !ok {
		// A peer may still name this worker as a source for an object it
		// spilled moments ago; answer from the shared tier rather than
		// bouncing the requester through the manager's restage path.
		p.mu.Lock()
		spilled := p.spilled[id]
		p.mu.Unlock()
		if spilled && p.cfg.Shared != nil {
			if sObj, err := p.cfg.Shared.Fetch(id); err == nil {
				obj, ok = sObj, true
			}
		}
	}
	if !ok {
		p.serveErrors.Add(1)
		return pc.Send(proto.MsgError, proto.ErrorMsg{Err: "object not cached"}) == nil && clean
	}
	p.served.Add(1)
	return pc.SendBulk(proto.MsgFileDataBulk, proto.HdrOf(obj), obj.Data) == nil && clean
}

func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
