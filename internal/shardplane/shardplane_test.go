package shardplane

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/hashring"
	"repro/internal/policy"
)

func TestShardOfIsStableAndInRange(t *testing.T) {
	r := NewRouter(8)
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("w%04d", i)
		s := r.ShardOf(id)
		if s < 0 || s >= 8 {
			t.Fatalf("ShardOf(%s) = %d out of range", id, s)
		}
		if s != hashring.Partition(id, 8) {
			t.Fatalf("ShardOf(%s) disagrees with hashring.Partition", id)
		}
	}
	if NewRouter(1).ShardOf("anything") != 0 {
		t.Fatal("single-shard router must map everything to shard 0")
	}
}

func TestRouteSpecRoundRobinsAliveShards(t *testing.T) {
	r := NewRouter(4)
	if _, ok := r.RouteSpec(1); ok {
		t.Fatal("RouteSpec with no live workers must report !ok")
	}
	// Add workers until at least two shards are populated.
	shards := map[int]bool{}
	for i := 0; len(shards) < 2; i++ {
		id := fmt.Sprintf("w%04d", i)
		r.Add(id)
		shards[r.ShardOf(id)] = true
	}
	seen := map[int]bool{}
	for id := int64(0); id < 16; id++ {
		s, ok := r.RouteSpec(id)
		if !ok {
			t.Fatal("RouteSpec must succeed with live workers")
		}
		if r.LiveIn(s) == 0 {
			t.Fatalf("RouteSpec(%d) chose empty shard %d", id, s)
		}
		seen[s] = true
	}
	if len(seen) < 2 {
		t.Fatalf("round-robin visited %d shards, want >= 2", len(seen))
	}
	// Consecutive IDs cycle through alive shards in order.
	s0, _ := r.RouteSpec(0)
	sN, _ := r.RouteSpec(int64(len(seen)))
	if s0 != sN {
		t.Fatalf("RouteSpec must cycle with period len(alive): got %d then %d", s0, sN)
	}
}

func TestOwnerFollowsRingAndDeath(t *testing.T) {
	r := NewRouter(4)
	if _, ok := r.Owner("task-1"); ok {
		t.Fatal("Owner with no live workers must report !ok")
	}
	ring := hashring.New(0)
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("w%04d", i)
		r.Add(id)
		ring.Add(id)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("task-%d", i)
		s, ok := r.Owner(key)
		if !ok {
			t.Fatalf("Owner(%s) failed with live workers", key)
		}
		if want := r.ShardOf(ring.Lookup(key)); s != want {
			t.Fatalf("Owner(%s) = %d, want shard of ring owner %d", key, s, want)
		}
	}
	// Removing a worker re-routes its keys to the next ring member.
	victim := ring.Lookup("task-7")
	r.Remove(victim)
	ring.Remove(victim)
	s, ok := r.Owner("task-7")
	if !ok || s != r.ShardOf(ring.Lookup("task-7")) {
		t.Fatal("Owner must follow the ring after member removal")
	}
}

func TestAddRemoveIdempotent(t *testing.T) {
	r := NewRouter(2)
	if !r.Add("w1") || r.Add("w1") {
		t.Fatal("Add must report membership change exactly once")
	}
	if r.Live() != 1 {
		t.Fatalf("Live = %d, want 1", r.Live())
	}
	if !r.Remove("w1") || r.Remove("w1") {
		t.Fatal("Remove must report membership change exactly once")
	}
	if r.Live() != 0 {
		t.Fatalf("Live = %d, want 0", r.Live())
	}
}

// TestMergeTracesConcatenatesInShardOrder: the whole trace is the tenant
// stream, then the ref stream, then the shard traces in shard order, and
// composing it leaves its parts as they were.
func TestMergeTracesConcatenatesInShardOrder(t *testing.T) {
	a, b, c := policy.Decision{Spec: 1}, policy.Decision{Spec: 2}, policy.Decision{Spec: 3}
	ten, ref := policy.Decision{Kind: policy.KindAdmit}, policy.Decision{Kind: policy.KindOwn}
	tr := Trace{Tenants: make([]policy.Decision, 1, 4), Refs: []policy.Decision{ref}, Shards: [][]policy.Decision{{a, b}, nil, {c}}}
	tr.Tenants[0] = ten
	got := tr.All()
	if want := []policy.Decision{ten, ref, a, b, c}; !slices.Equal(got, want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
	if spare := tr.Tenants[:2]; spare[1] != (policy.Decision{}) {
		t.Fatalf("composing wrote into the tenant stream's spare capacity: %v", spare[1])
	}
}

// TestTotalRoutesFallBackToHomeShard: the engines' three routing calls
// never fail. With nobody live each lands in its key's (or library's)
// home shard; with live workers they agree with Owner and RouteSpec,
// and a tenant's consecutive releases sweep every live shard.
func TestTotalRoutesFallBackToHomeShard(t *testing.T) {
	r := NewRouter(4)
	if got, want := r.KeyShard("task-9"), hashring.Partition("task-9", 4); got != want {
		t.Fatalf("KeyShard with no live workers = %d, want home shard %d", got, want)
	}
	home := hashring.Partition("lib", 4)
	if got := r.InvShard(7, "lib"); got != home {
		t.Fatalf("InvShard with no live workers = %d, want library home %d", got, home)
	}
	if got := r.TenantInvShard("acme", 3, "lib"); got != home {
		t.Fatalf("TenantInvShard with no live workers = %d, want library home %d", got, home)
	}
	alive := map[int]bool{}
	for i := 0; len(alive) < 3; i++ {
		id := fmt.Sprintf("w%04d", i)
		r.Add(id)
		alive[r.ShardOf(id)] = true
	}
	if want, _ := r.Owner("task-9"); r.KeyShard("task-9") != want {
		t.Fatalf("KeyShard = %d, want Owner's %d", r.KeyShard("task-9"), want)
	}
	if want, _ := r.RouteSpec(7); r.InvShard(7, "lib") != want {
		t.Fatalf("InvShard = %d, want RouteSpec's %d", r.InvShard(7, "lib"), want)
	}
	swept := map[int]bool{}
	for seq := int64(0); seq < int64(len(alive)); seq++ {
		s := r.TenantInvShard("acme", seq, "lib")
		if !alive[s] {
			t.Fatalf("TenantInvShard(seq %d) chose workerless shard %d", seq, s)
		}
		swept[s] = true
	}
	if len(swept) != len(alive) {
		t.Fatalf("%d consecutive releases reached %d of %d live shards", len(alive), len(swept), len(alive))
	}
}
