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
// decisions call for, sent through the global live-worker registry
// (obsMu → enqueue, never a shard lock) after the catalog's lock is
// released — and the Stats counters.

// execSpills tells each spill victim to demote the object to the
// shared tier. Victims may live in any shard, so the sends go through
// the global live-worker registry — enqueue only, no shard locks. The
// catalog was re-tiered at decision time; a victim that died in the
// window simply never materializes the shared copy, and a later
// resolve walks the surviving replicas instead.
func (m *Manager) execSpills(spills []policy.RefSpill) {
	if len(spills) == 0 {
		return
	}
	m.ctr.RefSpills.Add(int64(len(spills)))
	m.obsMu.RLock()
	for _, sp := range spills {
		if ps := m.peers[sp.Worker]; ps != nil {
			ps.w.enqueue(proto.MsgSpillObject, proto.SpillObject{ID: sp.ID})
		}
	}
	m.obsMu.RUnlock()
}

// Refs carries out what the ref stream decided at an owner's death or a
// by-ref result: every ref a dead owner owned is re-homed onto a
// surviving holder (told to adopt the copy), falls back to its
// shared-tier copy, or is declared lost; then the spills go out, the
// re-homes' included.
func (s *shard) Refs(rhs []policy.Rehome, spills []policy.RefSpill) {
	m := s.m
	m.ctr.RefRehomes.Add(int64(len(rhs)))
	m.obsMu.RLock()
	for _, rh := range rhs {
		if rh.Lost {
			m.ctr.RefLost.Add(1)
			continue
		}
		if rh.Owner == "" {
			continue // fell back to the durable shared-tier copy
		}
		if ps := m.peers[rh.Owner]; ps != nil {
			ps.w.enqueue(proto.MsgOwnObject, proto.OwnObject{ID: rh.ID})
		}
		spills = append(spills, rh.Spills...)
	}
	m.obsMu.RUnlock()
	m.execSpills(spills)
}

// refSourceAddrs maps resolve-picked worker IDs to data-server
// addresses through the global live-worker registry — the source may
// live in any shard. A dead source comes back as "" and the caller
// falls through to recovery.
func (m *Manager) refSourceAddrs(src string, alts []string) (string, []string) {
	m.obsMu.RLock()
	defer m.obsMu.RUnlock()
	var addr string
	if ps := m.peers[src]; ps != nil {
		addr = ps.w.hello.DataAddr
	}
	var altAddrs []string
	for _, id := range alts {
		if ps := m.peers[id]; ps != nil {
			altAddrs = append(altAddrs, ps.w.hello.DataAddr)
		}
	}
	return addr, altAddrs
}
