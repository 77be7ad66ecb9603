package dataplane

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/content"
	"repro/internal/sharedfs"
)

// TestRandomizedConcurrentPlaneOps hammers one plane with randomized
// Put/PutOwned/Spill/AdoptOwned/Evict/Fetch/PinResolve interleavings
// from many goroutines, mirroring content's randomized cache test one
// layer up. Run under -race it proves the plane's locking covers every
// public entry point; the inline checks pin the tier state machine's
// guarantees under contention:
//
//   - a successful PinResolve hands back a live object whose pin
//     balances with exactly one Unpin (the executor contract), even
//     when the object is concurrently spilled to the shared tier —
//     the self-heal path must refetch, not fail;
//   - Evict never removes an owned (holder-of-record) copy;
//   - a successful Spill leaves the bytes durable in the shared tier;
//   - ownership pins balance: after every owned object is spilled, a
//     full drain returns the cache accounting to exactly zero.
func TestRandomizedConcurrentPlaneOps(t *testing.T) {
	const (
		workers = 8
		ops     = 2500
		objects = 10
	)
	var objs []*content.Object
	for i := 0; i < objects; i++ {
		objs = append(objs, content.NewBlob(fmt.Sprintf("ref-%d", i), []byte(fmt.Sprintf("ref-%d-payload", i))))
	}
	byID := map[string]*content.Object{}
	for _, o := range objs {
		byID[o.ID] = o
	}
	// Tight capacity: PutOwned must sometimes fall back to a direct
	// spill, and plain Puts fight LRU pressure against held pins.
	var one int64
	for _, o := range objs {
		if o.LogicalSize > one {
			one = o.LogicalSize
		}
	}
	capacity := one * objects / 2
	shared := sharedfs.NewStore()
	p := New(Config{
		Cache:            content.NewCache(capacity),
		FetchConcurrency: 3,
		Shared:           shared,
		Fetch: func(addr, id string) (*content.Object, error) {
			if o := byID[id]; o != nil {
				return o, nil
			}
			return nil, fmt.Errorf("no peer object %s", id)
		},
	})
	defer p.Close()

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				obj := objs[rng.Intn(len(objs))]
				switch rng.Intn(8) {
				case 0:
					_ = p.Put(obj, false)
				case 1:
					if err := p.PutOwned(obj); err != nil {
						t.Errorf("PutOwned(%s): %v", obj.Name, err)
					}
				case 2:
					_ = p.Spill(obj.ID) // error fine: unowned or uncached
				case 3:
					_ = p.AdoptOwned(obj.ID) // error fine: not resident
				case 4:
					p.Evict(obj.ID)
				case 5:
					done := make(chan error, 1)
					p.Fetch(Request{ID: obj.ID, Addr: "peer", Shared: rng.Intn(2) == 0 && shared != nil}, func(err error) { done <- err })
					<-done
				case 6:
					// The executor contract: resolve, use, unpin. A spill
					// racing in between must be invisible here.
					got, err := p.PinResolve(obj.ID)
					if err == nil {
						if got == nil || got.ID != obj.ID {
							t.Errorf("PinResolve(%s) returned wrong object %v", obj.Name, got)
						}
						if err := p.Unpin(obj.ID); err != nil {
							t.Errorf("pin vanished under task: Unpin(%s): %v", obj.Name, err)
						}
					}
				case 7:
					_ = p.StateOf(obj.ID)
				}
			}
		}(int64(g) + 7)
	}
	wg.Wait()

	// The owned guard: an owned copy must refuse plain eviction.
	for _, o := range objs {
		if p.OwnedHere(o.ID) && p.Evict(o.ID) {
			t.Errorf("evict removed owned object %s", o.Name)
		}
	}
	// Drain: spill every owned object (dropping its ownership pin),
	// then evict the rest. All task pins are balanced, so the cache
	// must empty and the spilled bytes must be fetchable from shared.
	for _, o := range objs {
		if p.OwnedHere(o.ID) {
			if err := p.Spill(o.ID); err != nil {
				t.Fatalf("final spill of %s: %v", o.Name, err)
			}
			if got, err := shared.Fetch(o.ID); err != nil || got.ID != o.ID {
				t.Fatalf("spilled object %s not durable in shared tier: %v", o.Name, err)
			}
		}
		p.Evict(o.ID)
	}
	if used := p.Cache().Used(); used != 0 {
		t.Fatalf("drained cache still charges %d bytes", used)
	}
	if n := p.Cache().Len(); n != 0 {
		t.Fatalf("drained cache still holds %d entries", n)
	}
}

// TestEvictRacingPinResolve races Evict against resolvers that pin and
// unpin one object without pause. Eviction takes the plane lock, as
// every removal does, so there is no in-between state to wait out: once
// an Evict reports success, the object is absent, and a PinResolve of
// it fails at once instead of waiting or pinning a removed copy.
func TestEvictRacingPinResolve(t *testing.T) {
	obj := content.NewBlob("contended.bin", []byte("contended"))
	p := New(Config{Cache: content.NewCache(0)})
	defer p.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, err := p.PinResolve(obj.ID); err == nil {
					if got.ID != obj.ID {
						t.Errorf("PinResolve returned wrong object %v", got)
					}
					if err := p.Unpin(obj.ID); err != nil {
						t.Errorf("pin vanished under a resolver: %v", err)
					}
				}
			}
		}()
	}
	for round := 0; round < 200; round++ {
		if err := p.Put(obj, false); err != nil {
			t.Fatal(err)
		}
		for !p.Evict(obj.ID) {
			runtime.Gosched() // a resolver holds a pin; let it unpin
		}
		if st := p.StateOf(obj.ID); st != Absent {
			t.Fatalf("round %d: state after a successful evict = %v, want absent", round, st)
		}
		if _, err := p.PinResolve(obj.ID); err == nil || !strings.Contains(err.Error(), "not staged") {
			t.Fatalf("round %d: PinResolve after a successful evict = %v, want a not-staged error", round, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSpillRacingPinResolve pins the self-heal path deterministically:
// a task that resolved against a cached object must survive the object
// being spilled out from under it between resolve attempts.
func TestSpillRacingPinResolve(t *testing.T) {
	obj := content.NewBlob("result.bin", []byte("result-bytes"))
	shared := sharedfs.NewStore()
	p := New(Config{Cache: content.NewCache(0), Shared: shared})
	defer p.Close()

	if err := p.PutOwned(obj); err != nil {
		t.Fatal(err)
	}
	if st := p.StateOf(obj.ID); st != Owned {
		t.Fatalf("state = %v, want owned", st)
	}
	if err := p.Spill(obj.ID); err != nil {
		t.Fatal(err)
	}
	if st := p.StateOf(obj.ID); st != Spilled {
		t.Fatalf("state = %v, want spilled", st)
	}
	// The resolve must refetch from the shared tier, not fail.
	got, err := p.PinResolve(obj.ID)
	if err != nil {
		t.Fatalf("PinResolve after spill: %v", err)
	}
	if got.ID != obj.ID {
		t.Fatalf("wrong object: %v", got)
	}
	if p.Snapshot().SharedFetches == 0 {
		t.Fatal("self-heal did not touch the shared tier")
	}
	if err := p.Unpin(obj.ID); err != nil {
		t.Fatal(err)
	}
}
