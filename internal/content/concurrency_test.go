package content

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestRandomizedConcurrentCacheOps hammers one cache with randomized
// Put/PutPinned/Get/Pin/Unpin/Evict/MarkUnpacked interleavings from many
// goroutines. Run under -race, it proves the cache's locking covers
// every public entry point; the inline checks prove the semantic
// guarantees hold under contention:
//
//   - an object a goroutine has pinned cannot disappear until that
//     goroutine unpins it (the executor's correctness contract);
//   - a bounded cache never overcommits its byte budget.
func TestRandomizedConcurrentCacheOps(t *testing.T) {
	const (
		workers = 8
		ops     = 4000
		objects = 12
	)
	// Mixed population: blobs and tarballs (tarballs also exercise
	// MarkUnpacked's unpacked-size accounting).
	var objs []*Object
	for i := 0; i < objects; i++ {
		data := []byte(fmt.Sprintf("object-%d-payload", i))
		if i%3 == 0 {
			objs = append(objs, NewTarball(fmt.Sprintf("env-%d.tar", i), data, int64(len(data)), 64))
		} else {
			objs = append(objs, NewBlob(fmt.Sprintf("blob-%d", i), data))
		}
	}
	// A capacity tight enough to force eviction pressure but big enough
	// that a handful of pinned entries cannot wedge every Put.
	var one int64
	for _, o := range objs {
		if o.LogicalSize+o.UnpackedSize > one {
			one = o.LogicalSize + o.UnpackedSize
		}
	}
	capacity := one * objects / 2
	c := NewCache(capacity)

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				obj := objs[rng.Intn(len(objs))]
				switch rng.Intn(7) {
				case 0:
					_ = c.Put(obj)
				case 1:
					c.Get(obj.ID)
				case 2:
					// Pin → verify visible → Unpin. Between the pin and the
					// unpin the object must be un-evictable, no matter what
					// the other goroutines do.
					if err := c.Pin(obj.ID); err == nil {
						if _, ok := c.Get(obj.ID); !ok {
							t.Errorf("pinned object %s vanished", obj.Name)
						}
						if c.Evict(obj.ID) {
							t.Errorf("evict succeeded on pinned object %s", obj.Name)
						}
						if _, ok := c.Get(obj.ID); !ok {
							t.Errorf("pinned object %s vanished after refused evict", obj.Name)
						}
						_ = c.Unpin(obj.ID)
					}
				case 3:
					c.Evict(obj.ID)
				case 4:
					if _, err := c.MarkUnpacked(obj.ID, nil); err == nil && obj.Kind != Tarball {
						t.Errorf("MarkUnpacked accepted non-tarball %s", obj.Name)
					}
				case 5:
					c.Has(obj.ID)
				case 6:
					// Put-and-pin is one step: whatever room the others make
					// meanwhile, the object is there to unpin.
					if err := c.PutPinned(obj); err == nil {
						if _, ok := c.Get(obj.ID); !ok {
							t.Errorf("put-and-pinned object %s vanished", obj.Name)
						}
						if err := c.Unpin(obj.ID); err != nil {
							t.Errorf("put-and-pinned object %s lost its pin: %v", obj.Name, err)
						}
					}
				}
				if used := c.Used(); used > capacity {
					t.Errorf("cache overcommitted: used %d of %d", used, capacity)
				}
			}
		}(int64(g) + 42)
	}
	wg.Wait()

	if used := c.Used(); used < 0 || used > capacity {
		t.Fatalf("final accounting out of range: used %d of %d", used, capacity)
	}
	// Everything is unpinned now: the cache must be fully drainable,
	// and a full drain must return the accounting to exactly zero.
	for _, o := range objs {
		c.Evict(o.ID)
	}
	if used := c.Used(); used != 0 {
		t.Fatalf("drained cache still charges %d bytes", used)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("drained cache still holds %d entries", n)
	}
}
