package hashring

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// sequence collects up to n distinct members in ring order from key's
// position through Walk, counting the visits; n <= 0 means all.
func sequence(r *Ring, key string, n int) (seq []string, visits int) {
	var seen Visited
	r.Walk(key, &seen, func(m string) bool {
		visits++
		seq = append(seq, m)
		return len(seq) != n
	})
	return seq, visits
}

// refSequence is the reference Walk is held to: the eager walk the ring
// had before it — every point from key's position on, each member
// de-duplicated by a scan of the names collected so far.
func refSequence(r *Ring, key string, n int) []string {
	var dst []string
	if len(r.points) == 0 {
		return dst
	}
	if n <= 0 || n > len(r.slots) {
		n = len(r.slots)
	}
	h := hashOf(key)
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points) && len(dst) < n; i++ {
		member := r.names[r.points[(idx+i)%len(r.points)].slot]
		if !slices.Contains(dst, member) {
			dst = append(dst, member)
		}
	}
	return dst
}

func TestEmptyRing(t *testing.T) {
	r := New(0)
	if got := r.Lookup("key"); got != "" {
		t.Errorf("Lookup on empty ring = %q", got)
	}
	if seq, visits := sequence(r, "key", 5); seq != nil || visits != 0 {
		t.Errorf("Walk on empty ring yielded %v in %d visits", seq, visits)
	}
	if r.Len() != 0 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestAddRemove(t *testing.T) {
	r := New(16)
	r.Add("a")
	r.Add("b")
	r.Add("c")
	r.Add("a") // duplicate is a no-op
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	r.Remove("b")
	r.Remove("b") // double remove is a no-op
	if r.Len() != 2 {
		t.Fatalf("Len after remove = %d", r.Len())
	}
	for i := 0; i < 50; i++ {
		got := r.Lookup(fmt.Sprintf("key-%d", i))
		if got == "b" || got == "" {
			t.Errorf("Lookup returned removed/empty member %q", got)
		}
	}
}

func TestLookupStability(t *testing.T) {
	r := New(64)
	for i := 0; i < 10; i++ {
		r.Add(fmt.Sprintf("w%02d", i))
	}
	before := map[string]string{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("lib-%d", i)
		before[k] = r.Lookup(k)
	}
	// Removing one member must only remap keys that were owned by it.
	r.Remove("w03")
	moved := 0
	for k, owner := range before {
		now := r.Lookup(k)
		if owner == "w03" {
			if now == "w03" {
				t.Errorf("key %q still maps to removed member", k)
			}
			continue
		}
		if now != owner {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys not owned by the removed member were remapped", moved)
	}
}

func TestSequenceProperties(t *testing.T) {
	r := New(32)
	members := []string{"a", "b", "c", "d", "e"}
	for _, m := range members {
		r.Add(m)
	}
	seq, _ := sequence(r, "some-library", 0)
	if len(seq) != len(members) {
		t.Fatalf("full sequence has %d members, want %d", len(seq), len(members))
	}
	seen := map[string]bool{}
	for _, m := range seq {
		if seen[m] {
			t.Errorf("sequence repeats member %q", m)
		}
		seen[m] = true
	}
	short, _ := sequence(r, "some-library", 2)
	if len(short) != 2 || short[0] != seq[0] || short[1] != seq[1] {
		t.Errorf("short sequence %v is not a prefix of %v", short, seq)
	}
}

func TestDistributionRoughlyBalanced(t *testing.T) {
	r := New(64)
	n := 8
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("w%d", i))
	}
	counts := map[string]int{}
	total := 8000
	for i := 0; i < total; i++ {
		counts[r.Lookup(fmt.Sprintf("key-%d", i))]++
	}
	for m, c := range counts {
		frac := float64(c) / float64(total)
		if frac < 0.04 || frac > 0.30 {
			t.Errorf("member %s owns %.1f%% of keys — badly unbalanced", m, frac*100)
		}
	}
}

// Property: Lookup is deterministic and always returns a member.
func TestQuickLookupValid(t *testing.T) {
	r := New(16)
	members := map[string]bool{}
	for i := 0; i < 7; i++ {
		m := fmt.Sprintf("m%d", i)
		members[m] = true
		r.Add(m)
	}
	f := func(key string) bool {
		a := r.Lookup(key)
		b := r.Lookup(key)
		return a == b && members[a]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// checkRing asserts the ring's own invariants: points sorted by (hash,
// member), replicas points per member, none for a departed one.
func checkRing(t *testing.T, r *Ring, members map[string]bool) {
	t.Helper()
	if r.Len() != len(members) || len(r.points) != len(members)*r.replicas {
		t.Fatalf("ring has %d members and %d points, want %d and %d", r.Len(), len(r.points), len(members), len(members)*r.replicas)
	}
	for i, p := range r.points {
		if !members[r.names[p.slot]] {
			t.Fatalf("point %d belongs to %q, not a member", i, r.names[p.slot])
		}
		if i > 0 && !r.before(r.points[i-1], p) {
			t.Fatalf("points %d and %d out of order", i-1, i)
		}
	}
}

// TestWalkMatchesEagerReference runs random join/leave scripts, up to
// 1000 members, and after each step holds the lazy walk to the eager
// reference: the same members in the same order for n = 1, 3 and all,
// in exactly as many visits as members asked for; Lookup is the first
// of them; the points stay sorted.
func TestWalkMatchesEagerReference(t *testing.T) {
	for _, tc := range []struct {
		seed         int64
		grow, replic int
		steps, keys  int
	}{
		{seed: 1, grow: 12, replic: 4, steps: 400, keys: 3},
		{seed: 2, grow: 60, replic: 64, steps: 200, keys: 1},
		{seed: 3, grow: 1000, replic: 8, steps: 1500, keys: 1},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		r := New(tc.replic)
		members := map[string]bool{}
		var live []string
		next, peak := 0, 0
		for step := 0; step < tc.steps; step++ {
			// Grow to the target size, then churn around it.
			if len(live) == 0 || (len(live) < tc.grow && rng.Intn(8) != 0) {
				m := fmt.Sprintf("w%04d", next)
				next++
				r.Add(m)
				members[m] = true
				live = append(live, m)
				peak = max(peak, len(live))
			} else {
				i := rng.Intn(len(live))
				r.Remove(live[i])
				delete(members, live[i])
				live = append(live[:i], live[i+1:]...)
			}
			// The invariant check and the reference's whole-ring sequence
			// are O(points) and O(points × members): sampled on the big
			// script, every step on the small ones.
			ns := []int{1, 3}
			if tc.grow <= 60 || step%25 == 0 {
				checkRing(t, r, members)
				ns = append(ns, 0)
			}
			for k := 0; k < tc.keys; k++ {
				key := fmt.Sprintf("key-%d-%d", step, k)
				for _, n := range ns {
					want := refSequence(r, key, n)
					got, visits := sequence(r, key, n)
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d: Walk(%q, n=%d) = %v, reference %v", tc.seed, step, key, n, got, want)
					}
					if visits != len(want) {
						t.Fatalf("seed %d step %d: Walk(%q, n=%d) made %d visits for %d members", tc.seed, step, key, n, visits, len(want))
					}
				}
				want := ""
				if ref := refSequence(r, key, 1); len(ref) > 0 {
					want = ref[0]
				}
				if got := r.Lookup(key); got != want {
					t.Fatalf("seed %d step %d: Lookup(%q) = %q, reference %q", tc.seed, step, key, got, want)
				}
			}
		}
		if peak != tc.grow {
			t.Fatalf("seed %d: script peaked at %d members, want %d", tc.seed, peak, tc.grow)
		}
	}
}

// TestRingIsPureFunctionOfMembers: two rings holding the same members,
// built in different insertion orders (one of them through joins that
// later left, so slots are reused), answer 1000 keys identically. Two
// replicas of a 64-bit hash never collide in practice, so the tie rule
// is exercised directly as well.
func TestRingIsPureFunctionOfMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := make([]string, 200)
	for i := range names {
		names[i] = fmt.Sprintf("w%04d", i)
	}
	a, b := New(0), New(0)
	for _, m := range names {
		a.Add(m)
	}
	for i := 0; i < 40; i++ {
		b.Add(fmt.Sprintf("gone-%d", i))
	}
	for _, i := range rng.Perm(len(names)) {
		b.Add(names[i])
		if i%5 == 0 {
			b.Remove(fmt.Sprintf("gone-%d", i/5))
		}
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if x, y := a.Lookup(key), b.Lookup(key); x != y {
			t.Fatalf("Lookup(%q): %q on one ring, %q on the other", key, x, y)
		}
		if i%20 != 0 {
			continue
		}
		x, _ := sequence(a, key, 0)
		y, _ := sequence(b, key, 0)
		if !slices.Equal(x, y) {
			t.Fatalf("Walk(%q) differs between insertion orders", key)
		}
	}

	tie := &Ring{names: []string{"b", "a"}}
	if p, q := (point{hash: 9, slot: 0}), (point{hash: 9, slot: 1}); tie.before(p, q) || !tie.before(q, p) {
		t.Fatal("equal hashes must order by member name, not by slot")
	}
}

// TestLookupAndWalkDoNotAllocate: a task submission routes through
// Lookup and a placement through Walk; neither may allocate.
func TestLookupAndWalkDoNotAllocate(t *testing.T) {
	r := New(0)
	for i := 0; i < 64; i++ {
		r.Add(fmt.Sprintf("w%04d", i))
	}
	var sink string
	if n := testing.AllocsPerRun(200, func() { sink = r.Lookup("task-17") }); n != 0 {
		t.Errorf("Lookup allocates %.0f times per call", n)
	}
	var seen Visited
	r.Walk("warm", &seen, func(string) bool { return false })
	if n := testing.AllocsPerRun(200, func() {
		visits := 0
		r.Walk("task-17", &seen, func(m string) bool {
			sink = m
			visits++
			return visits < 3
		})
	}); n != 0 {
		t.Errorf("Walk allocates %.0f times per call", n)
	}
	_ = sink
}
