package manager

import (
	"repro/internal/policy"
	"repro/internal/proto"
)

// The ref plane (DESIGN.md §15) is the proxy-object data plane: a global
// catalog of results that stayed on their producing workers
// (pass-by-reference). The catalog and its decision stream belong to
// shardplane.Plane, shared with the simulator's Replay; what is left
// here is the transport — the spill, adopt and fetch-source messages its
// decisions call for, sent through the live-worker table (peerMu →
// enqueue, never a shard lock) after the catalog's lock is released — and
// the Stats counters.

// execSpills tells each spill victim to demote the object to the
// shared tier. Victims may live in any shard, so the sends go through
// the live-worker table — enqueue only, no shard locks. The
// catalog was re-tiered at decision time; a victim that died in the
// window simply never materializes the shared copy, and a later
// resolve walks the surviving replicas instead.
func (m *Manager) execSpills(spills []policy.RefSpill) {
	if len(spills) == 0 {
		return
	}
	m.ctr.RefSpills.Add(int64(len(spills)))
	m.peerMu.RLock()
	for _, sp := range spills {
		if p := m.peers[sp.Worker]; p != nil {
			p.enqueue(proto.MsgSpillObject, proto.SpillObject{ID: sp.ID})
		}
	}
	m.peerMu.RUnlock()
}

// Refs carries out what the ref stream decided at an owner's death or a
// by-ref result: every ref a dead owner owned is re-homed onto a
// surviving holder (told to adopt the copy), falls back to its
// shared-tier copy, or is declared lost; then the spills go out, the
// re-homes' included.
func (s *shard) Refs(rhs []policy.Rehome, spills []policy.RefSpill) {
	m := s.m
	m.ctr.RefRehomes.Add(int64(len(rhs)))
	m.peerMu.RLock()
	for _, rh := range rhs {
		if rh.Lost {
			m.ctr.RefLost.Add(1)
			continue
		}
		if rh.Owner == "" {
			continue // fell back to the durable shared-tier copy
		}
		if p := m.peers[rh.Owner]; p != nil {
			p.enqueue(proto.MsgOwnObject, proto.OwnObject{ID: rh.ID})
		}
		spills = append(spills, rh.Spills...)
	}
	m.peerMu.RUnlock()
	m.execSpills(spills)
}

// sourceAddrs maps the worker IDs of a fetch's source and alternates —
// a resolve's or a peer stage's — to data-server addresses through the
// live-worker table: they may live in any shard. A dead source comes back
// as "".
func (m *Manager) sourceAddrs(src string, alts []string) (string, []string) {
	m.peerMu.RLock()
	defer m.peerMu.RUnlock()
	var addr string
	if p := m.peers[src]; p != nil {
		addr = p.hello.DataAddr
	}
	var altAddrs []string
	for _, id := range alts {
		if p := m.peers[id]; p != nil {
			altAddrs = append(altAddrs, p.hello.DataAddr)
		}
	}
	return addr, altAddrs
}
