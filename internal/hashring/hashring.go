// Package hashring implements the consistent hash ring of connected
// workers the manager walks when placing libraries (§3.5.2): "the
// manager sequentially checks a hash ring of connected workers to see
// if any is available to run the library."
package hashring

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sort"
	"sync"
)

// Ring is a consistent hash ring of member names. It is safe for
// concurrent use. The ring is a pure function of its member set: the
// order members joined in never shows in an answer.
type Ring struct {
	mu       sync.RWMutex
	replicas int
	points   []point // sorted by (hash, member name)
	// A point names its member by slot, a small integer, so a walk
	// tells members apart by indexing an array (Visited) rather than
	// comparing names. A leaving member's slot goes to the next joiner.
	slots map[string]uint32 // member → slot
	names []string          // slot → member
	free  []uint32          // slots of departed members
	fresh []point           // Add's scratch: the joining member's own points
}

type point struct {
	hash uint64
	slot uint32
}

// New creates a ring with the given number of virtual points per
// member (more points → smoother distribution). replicas < 1 defaults
// to 64.
func New(replicas int) *Ring {
	if replicas < 1 {
		replicas = 64
	}
	return &Ring{replicas: replicas, slots: map[string]uint32{}}
}

func hashOf(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// before orders points by hash, then by member name: two members'
// points that collide sit in the same order whoever joined first.
func (r *Ring) before(a, b point) bool {
	if a.hash != b.hash {
		return a.hash < b.hash
	}
	return r.names[a.slot] < r.names[b.slot]
}

// Add inserts a member: its own points are sorted and merged into the
// sorted ring in place, so a join moves each existing point at most
// once and compares only to find where its own points go.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.slots[member]; ok {
		return
	}
	var slot uint32
	if n := len(r.free); n > 0 {
		slot, r.free = r.free[n-1], r.free[:n-1]
		r.names[slot] = member
	} else {
		slot = uint32(len(r.names))
		r.names = append(r.names, member)
	}
	r.slots[member] = slot

	fresh := r.fresh[:0]
	for i := 0; i < r.replicas; i++ {
		h := hashOf(member + "#" + string(rune('0'+i%10)) + string(rune('a'+i/10)))
		fresh = append(fresh, point{hash: h, slot: slot})
	}
	slices.SortFunc(fresh, func(a, b point) int { return cmp.Compare(a.hash, b.hash) })
	r.fresh = fresh

	// Merge backwards, in place: the member's last point goes behind the
	// block of ring points that sort after it, which moves up as one copy
	// to make room, then the next-to-last, and so on down.
	end := len(r.points)
	r.points = append(r.points, fresh...) // room only: the merge rewrites it
	pts := r.points
	for j := len(fresh) - 1; j >= 0; j-- {
		p := fresh[j]
		pos := sort.Search(end, func(i int) bool { return r.before(p, pts[i]) })
		copy(pts[pos+j+1:], pts[pos:end])
		pts[pos+j] = p
		end = pos
	}
}

// Remove deletes a member.
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	slot, ok := r.slots[member]
	if !ok {
		return
	}
	delete(r.slots, member)
	out := r.points[:0]
	for _, p := range r.points {
		if p.slot != slot {
			out = append(out, p)
		}
	}
	r.points = out
	r.names[slot] = ""
	r.free = append(r.free, slot)
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.slots)
}

// first is the index of the first point at or after h, wrapping to 0.
// The ring must not be empty.
func (r *Ring) first(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Lookup returns the member owning key, or "" if the ring is empty.
func (r *Ring) Lookup(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	return r.names[r.points[r.first(hashOf(key))].slot]
}

// Partition maps a key to one of n fixed partitions by hashing it
// with the ring's member hash. Unlike ring membership this is a pure
// function — the sharded dispatch plane uses it as the stable "home"
// partition for a key when no live-worker routing is possible yet.
func Partition(key string, n int) int {
	if n <= 1 {
		return 0
	}
	return int(hashOf(key) % uint64(n))
}

// Visited is a walker's own record of which members the walk in
// progress has yielded. A walker keeps one and hands it to every Walk;
// it grows to the ring's size once and is never cleared — each walk
// stamps the slots it yields with a fresh epoch.
type Visited struct {
	stamp []uint32 // by member slot: the epoch of the walk that last yielded it
	epoch uint32
}

func (s *Visited) begin(slots int) {
	if n := slots - len(s.stamp); n > 0 {
		s.stamp = append(s.stamp, make([]uint32, n)...)
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: an old stamp could pass for this walk's
		clear(s.stamp)
		s.epoch = 1
	}
}

// Walk calls visit with each distinct member in ring order starting at
// key's position — the order the manager checks workers for a
// placement — until visit returns false or every member has been
// yielded. It pays only for the points it passes: a walk that stops at
// the first member looks at one. seen must not be shared by concurrent
// walks, and visit must not call Add or Remove.
func (r *Ring) Walk(key string, seen *Visited, visit func(member string) bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return
	}
	seen.begin(len(r.names))
	i := r.first(hashOf(key))
	for left := len(r.slots); left > 0; i++ {
		if i == len(r.points) {
			i = 0
		}
		slot := r.points[i].slot
		if seen.stamp[slot] == seen.epoch {
			continue
		}
		seen.stamp[slot] = seen.epoch
		left--
		if !visit(r.names[slot]) {
			return
		}
	}
}
