package policy

import (
	"repro/internal/core"
)

// Proxy-object (pass-by-reference) decisions. A task completing with
// ResultByRef leaves its result bytes on the producing worker and
// returns only a core.ObjectRef; the RefTable below is the pure,
// deterministic catalog of those objects — who owns each one, which
// workers hold cache replicas, and which tier the authoritative copy
// lives in — plus the decision functions the drivers consult:
//
//   - NoteRefResult: ownership transfer on completion. The producer
//     becomes owner/holder of record; if the owner's owned-bytes
//     budget overflows, the oldest owned objects spill to the shared
//     tier (PlanSpill folded in).
//   - PlanResolve: which source a consumer pulls a ref from — a live
//     holder picked exactly like PickSource (minimum worker ID), the
//     shared tier when the object was spilled (with a promote: the
//     consumer becomes the new cache-tier owner), the driver's own
//     catalog as the last resort, or lost.
//   - PlanRestage: a fetch failed against the whole holder set. Every
//     non-owner holder is retracted and the resolve re-planned.
//   - PlanRehome: owner death. Each ref owned by the dead worker is
//     re-homed onto the minimum-ID surviving holder, falls back to its
//     shared-tier copy, or is declared lost.
//
// Like the rest of the package these functions are side-effect free
// with respect to the world: they mutate only the table, and every
// decision is recorded here, so the manager and the simulator record
// identical sequences.
//
// The table is driver-serialized (the manager guards it with the ref
// plane's own mutex, the simulators are single-threaded); it is not
// safe for concurrent use on its own.

// RefInfo is one proxy object's catalog entry.
type RefInfo struct {
	ID   string
	Name string
	Size int64
	// Owner is the cache-tier holder of record ("" when the only copy
	// lives in the shared tier, or after the ref is lost).
	Owner string
	// Tier is where the authoritative copy lives.
	Tier int
	// Spilled records that a shared-tier copy exists (it persists even
	// after a promote re-establishes a cache-tier owner, as a fallback).
	Spilled bool
	// Holders are workers with a cache replica (the owner included).
	Holders map[string]bool
}

// RefSpill is one planned demotion of an owned object to the shared
// tier.
type RefSpill struct {
	ID     string
	Worker string
	Size   int64
}

// ResolveMode says where a consumer pulls a ref from.
type ResolveMode int

const (
	// ResolveReady: the consumer already holds (or is receiving) a
	// replica; no staging needed.
	ResolveReady ResolveMode = iota
	// ResolvePeer: fetch from a live holder's data server.
	ResolvePeer
	// ResolveShared: fetch the spilled copy from the shared tier.
	ResolveShared
	// ResolveDirect: the driver restages from its own catalog — the
	// last resort when no holder and no shared copy survive.
	ResolveDirect
	// ResolveLost: no copy of the object survives anywhere.
	ResolveLost
)

func (m ResolveMode) String() string {
	switch m {
	case ResolvePeer:
		return "peer"
	case ResolveShared:
		return "shared"
	case ResolveDirect:
		return "direct"
	case ResolveLost:
		return "lost"
	default:
		return "ready"
	}
}

// ResolveDecision is PlanResolve's outcome.
type ResolveDecision struct {
	Mode ResolveMode
	// Src is the holder serving a ResolvePeer fetch.
	Src string
	// Alts are up to two alternate holders (ascending worker ID,
	// excluding Src) the consumer's data plane may retry in-plane.
	Alts []string
	// Promote marks a ResolveShared fetch that re-establishes the
	// consumer as the ref's cache-tier owner (promote on re-use).
	Promote bool
	// Spills are demotions cascaded by the promote's owned-bytes
	// charge on the consumer.
	Spills []RefSpill
	// Size echoes the ref's logical size for the driver's transfer.
	Size int64
}

// Rehome is one ref's fate after its owner died.
type Rehome struct {
	ID string
	// Owner is the new holder of record ("" when the ref fell back to
	// the shared tier or was lost).
	Owner string
	// Shared marks a fallback to the shared-tier copy.
	Shared bool
	// Lost marks a ref with no surviving copy.
	Lost bool
	// Spills are demotions cascaded by the new owner's owned-bytes
	// charge.
	Spills []RefSpill
}

// RefTable is the pure proxy-object catalog shared by both engines.
type RefTable struct {
	// OwnedBytesCap bounds the owned (cache-tier, holder-of-record)
	// bytes per worker; exceeding it spills oldest-owned-first to the
	// shared tier. 0 means unbounded (no spills).
	OwnedBytesCap int64

	refs map[string]*RefInfo
	// owned: worker → ref IDs in ownership order (spill FIFO).
	owned map[string][]string
	// ownedBytes: worker → total owned logical bytes.
	ownedBytes map[string]int64
	// held: worker → refs it holds a replica of (death cleanup index).
	held map[string]map[string]bool
}

// NewRefTable builds an empty catalog with the given per-worker owned
// bytes cap (0 = unbounded).
func NewRefTable(ownedBytesCap int64) *RefTable {
	return &RefTable{
		OwnedBytesCap: ownedBytesCap,
		refs:          map[string]*RefInfo{},
		owned:         map[string][]string{},
		ownedBytes:    map[string]int64{},
		held:          map[string]map[string]bool{},
	}
}

// Get returns a ref's catalog entry (nil if untracked). The entry is
// live — callers must not mutate it.
func (t *RefTable) Get(id string) *RefInfo { return t.refs[id] }

// addHolder records a replica without ownership side effects.
func (t *RefTable) addHolder(ref *RefInfo, worker string) {
	if ref.Holders == nil {
		ref.Holders = map[string]bool{}
	}
	ref.Holders[worker] = true
	hs := t.held[worker]
	if hs == nil {
		hs = map[string]bool{}
		t.held[worker] = hs
	}
	hs[ref.ID] = true
}

func (t *RefTable) dropHolder(ref *RefInfo, worker string) {
	delete(ref.Holders, worker)
	if hs := t.held[worker]; hs != nil {
		delete(hs, ref.ID)
		if len(hs) == 0 {
			delete(t.held, worker)
		}
	}
}

// AddRefHolder records a confirmed replica of a tracked ref on a
// worker (a consumer's fetch acked). Untracked IDs are ignored.
func (t *RefTable) AddRefHolder(worker, id string) {
	if ref := t.refs[id]; ref != nil {
		t.addHolder(ref, worker)
	}
}

// DropRefHolder retracts a replica (eviction on a live worker).
func (t *RefTable) DropRefHolder(worker, id string) {
	if ref := t.refs[id]; ref != nil {
		t.dropHolder(ref, worker)
	}
}

// noteOwned charges a newly-owned object against a worker's budget and
// spills oldest-owned-first until the worker fits under the cap. The
// new object itself spills only when it alone exceeds the cap.
func (t *RefTable) noteOwned(worker, id string, size int64, rec *Recorder) []RefSpill {
	t.owned[worker] = append(t.owned[worker], id)
	t.ownedBytes[worker] += size
	if t.OwnedBytesCap <= 0 {
		return nil
	}
	var spills []RefSpill
	for t.ownedBytes[worker] > t.OwnedBytesCap && len(t.owned[worker]) > 0 {
		victim := t.owned[worker][0]
		t.owned[worker] = t.owned[worker][1:]
		ref := t.refs[victim]
		if ref == nil || ref.Owner != worker {
			continue
		}
		sp := RefSpill{ID: victim, Worker: worker, Size: ref.Size}
		t.applySpill(ref, sp)
		rec.Record(Decision{Kind: KindSpill, Obj: victim, Worker: worker})
		spills = append(spills, sp)
	}
	return spills
}

// applySpill moves a ref's authoritative copy to the shared tier: the
// owner relinquishes, its cache replica is dropped, and its budget is
// credited back.
func (t *RefTable) applySpill(ref *RefInfo, sp RefSpill) {
	ref.Tier = core.TierShared
	ref.Spilled = true
	ref.Owner = ""
	t.dropHolder(ref, sp.Worker)
	t.ownedBytes[sp.Worker] -= ref.Size
	if t.ownedBytes[sp.Worker] <= 0 {
		delete(t.ownedBytes, sp.Worker)
	}
	if len(t.owned[sp.Worker]) == 0 {
		delete(t.owned, sp.Worker)
	}
}

// removeOwned drops id from a worker's ownership FIFO (rehome, death).
func (t *RefTable) removeOwned(worker, id string, size int64) {
	q := t.owned[worker]
	for i, v := range q {
		if v == id {
			t.owned[worker] = append(q[:i:i], q[i+1:]...)
			break
		}
	}
	if len(t.owned[worker]) == 0 {
		delete(t.owned, worker)
	}
	t.ownedBytes[worker] -= size
	if t.ownedBytes[worker] <= 0 {
		delete(t.ownedBytes, worker)
	}
}

// NoteRefResult is the ownership transfer on completion: the producing
// worker becomes the ref's owner and holder of record, and any
// owned-bytes overflow spills oldest-first to the shared tier. Both
// the ownership and every spill are recorded. Re-registering a known
// ID is a no-op (duplicate result delivery).
func (t *RefTable) NoteRefResult(worker, id, name string, size int64, rec *Recorder) []RefSpill {
	if t.refs[id] != nil {
		return nil
	}
	ref := &RefInfo{ID: id, Name: name, Size: size, Owner: worker, Tier: core.TierCache}
	t.refs[id] = ref
	t.addHolder(ref, worker)
	rec.Record(Decision{Kind: KindOwn, Obj: id, Worker: worker, Size: size})
	return t.noteOwned(worker, id, size, rec)
}

// pickHolder returns the minimum-ID holder — the same deterministic
// fold PickSource uses over the view's Holders index.
func pickHolder(ref *RefInfo, exclude string) string {
	best := ""
	for w := range ref.Holders { //vinelint:unordered min-ID fold is order-independent
		if w == exclude {
			continue
		}
		if best == "" || w < best {
			best = w
		}
	}
	return best
}

// Alternates returns up to two holders other than src, itself a holder,
// and dst, in ascending ID order: the sources a fetch's data plane may
// retry on its own, for a ref (its catalog's holders) and for a staged
// copy (the view's holder index) alike.
func Alternates[V any](holders map[string]V, src, dst string) []string {
	if len(holders) <= 1 {
		return nil
	}
	var alts []string
	for _, w := range core.SortedKeys(holders) {
		if w == src || w == dst {
			continue
		}
		alts = append(alts, w)
		if len(alts) == 2 {
			break
		}
	}
	return alts
}

// PlanResolve decides where the consumer dst pulls the ref id from,
// recording the decision. catalog reports whether the driver itself
// could restage the bytes (the true last resort).
func (t *RefTable) PlanResolve(dst, id string, catalog bool, rec *Recorder) ResolveDecision {
	ref := t.refs[id]
	d := ResolveDecision{Mode: ResolveLost}
	switch {
	case ref == nil:
		if catalog {
			d.Mode = ResolveDirect
		}
	case ref.Holders[dst]:
		d = ResolveDecision{Mode: ResolveReady, Size: ref.Size}
	default:
		d.Size = ref.Size
		if src := pickHolder(ref, dst); src != "" {
			d.Mode, d.Src, d.Alts = ResolvePeer, src, Alternates(ref.Holders, src, dst)
		} else if ref.Spilled {
			// Promote on re-use: the consumer becomes the ref's cache-tier
			// owner (the shared copy stays as a fallback), charged against
			// its owned budget like a fresh result.
			d.Mode, d.Promote = ResolveShared, true
		} else if catalog {
			d.Mode = ResolveDirect
		}
	}
	rec.Record(Decision{Kind: KindResolve, Obj: id, Dst: dst, Mode: d.Mode.String(), Src: d.Src})
	if d.Promote {
		ref.Owner = dst
		ref.Tier = core.TierCache
		t.addHolder(ref, dst)
		rec.Record(Decision{Kind: KindPromote, Obj: id, Worker: dst})
		d.Spills = t.noteOwned(dst, id, ref.Size, rec)
	}
	return d
}

// PlanRestage recovers a fetch of ref id that failed on dst against the
// whole holder set. The walk just proved the replica records unreliable
// (a consumer's copy can be LRU-evicted under cache pressure without
// the catalog hearing about it); only the owner's pinned copy and the
// shared-tier copy carry durability guarantees. So every non-owner
// holder is retracted — an untraced state update, like AddRefHolder —
// and a fresh traced resolve runs against what survives: it lands on
// the owner, the shared tier, or lost, guaranteed progress instead of
// re-picking the same dead replica forever. It is one call so that a
// driver holds its lock once for the sequence. name is the ref's file
// name (no FileSpec travels with a failed ack); tracked is false, and
// nothing is retracted or recorded, for an ID the catalog does not hold.
func (t *RefTable) PlanRestage(dst, id string, catalog bool, rec *Recorder) (d ResolveDecision, name string, tracked bool) {
	ref := t.refs[id]
	if ref == nil {
		return ResolveDecision{}, "", false
	}
	for _, w := range core.SortedKeys(ref.Holders) {
		if w != ref.Owner {
			t.dropHolder(ref, w)
		}
	}
	return t.PlanResolve(dst, id, catalog, rec), ref.Name, true
}

// PlanRehome handles an owner's death: every replica the dead worker
// held is retracted, and each ref it owned is re-homed onto the
// minimum-ID surviving holder, falls back to its shared-tier copy, or
// is declared lost. Decisions are recorded in ownership order (the
// dead worker's spill FIFO) — deterministic because both engines
// appended in the same completion order.
func (t *RefTable) PlanRehome(dead string, rec *Recorder) []Rehome {
	ownedQ := t.owned[dead]
	if len(ownedQ) == 0 && len(t.held[dead]) == 0 {
		return nil
	}
	// Ownership transfers first, while the dead worker's replica still
	// marks which refs it owned; then retract every remaining replica.
	ownedIDs := append([]string(nil), ownedQ...)
	var out []Rehome
	for _, id := range ownedIDs {
		ref := t.refs[id]
		if ref == nil || ref.Owner != dead {
			continue
		}
		t.removeOwned(dead, id, ref.Size)
		t.dropHolder(ref, dead)
		rh := Rehome{ID: id}
		if next := pickHolder(ref, ""); next != "" {
			ref.Owner = next
			rh.Owner = next
			rec.Record(Decision{Kind: KindRehome, Obj: id, Worker: next})
			rh.Spills = t.noteOwned(next, id, ref.Size, rec)
		} else if ref.Spilled {
			ref.Owner = ""
			ref.Tier = core.TierShared
			rh.Shared = true
			rec.Record(Decision{Kind: KindRehome, Obj: id, Mode: ResolveShared.String()})
		} else {
			ref.Owner = ""
			rh.Lost = true
			rec.Record(Decision{Kind: KindRehome, Obj: id, Mode: ResolveLost.String()})
		}
		out = append(out, rh)
	}
	for _, id := range core.SortedKeys(t.held[dead]) {
		t.DropRefHolder(dead, id)
	}
	return out
}
