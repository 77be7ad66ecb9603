package content

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestHashStability(t *testing.T) {
	a := HashBytes([]byte("hello"))
	b := HashBytes([]byte("hello"))
	c := HashBytes([]byte("hellp"))
	if a != b {
		t.Errorf("same bytes hash differently")
	}
	if a == c {
		t.Errorf("different bytes hash identically")
	}
	if len(a) != 64 {
		t.Errorf("hash length %d, want 64 hex chars", len(a))
	}
}

func TestObjectKinds(t *testing.T) {
	blob := NewBlob("args", []byte("x"))
	if blob.Kind != Blob || blob.LogicalSize != 1 {
		t.Errorf("blob: %+v", blob)
	}
	ds := NewDataset("imgs", []byte("manifest"), 1<<30)
	if ds.LogicalSize != 1<<30 {
		t.Errorf("dataset logical size %d", ds.LogicalSize)
	}
	tb := NewTarball("env", []byte("m"), 572<<20, 3<<30)
	if tb.Kind != Tarball || tb.UnpackedSize != 3<<30 {
		t.Errorf("tarball: %+v", tb)
	}
	if err := tb.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	tb.Data = []byte("tampered")
	if err := tb.Validate(); err == nil {
		t.Errorf("tampered object should fail validation")
	}
}

func TestLogicalSizeNeverBelowActual(t *testing.T) {
	d := NewDataset("d", []byte("0123456789"), 3)
	if d.LogicalSize != 10 {
		t.Errorf("logical size clamped to %d, want 10", d.LogicalSize)
	}
}

func TestKindString(t *testing.T) {
	if Blob.String() != "blob" || Tarball.String() != "tarball" || Dataset.String() != "dataset" {
		t.Errorf("kind strings wrong")
	}
	if Kind(99).String() == "" {
		t.Errorf("unknown kind should still stringify")
	}
}

func TestCachePutGet(t *testing.T) {
	c := NewCache(0)
	obj := NewBlob("a", []byte("data-a"))
	if err := c.Put(obj); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(obj.ID)
	if !ok || got != obj {
		t.Fatalf("Get after Put failed")
	}
	if !c.Has(obj.ID) {
		t.Errorf("Has false for cached object")
	}
	if _, ok := c.Get("nope"); ok {
		t.Errorf("Get of missing object succeeded")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits %d misses", hits, misses)
	}
}

func TestCacheDoublePutIsNoop(t *testing.T) {
	c := NewCache(0)
	obj := NewBlob("a", []byte("data"))
	_ = c.Put(obj)
	before := c.Used()
	_ = c.Put(obj)
	if c.Used() != before {
		t.Errorf("double put changed accounting: %d -> %d", before, c.Used())
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(25)
	a := NewBlob("a", []byte("aaaaaaaaaa")) // 10 bytes
	b := NewBlob("b", []byte("bbbbbbbbbb"))
	if err := c.Put(a); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(b); err != nil {
		t.Fatal(err)
	}
	// Touch a so b is LRU.
	c.Get(a.ID)
	d := NewBlob("d", []byte("dddddddddd"))
	if err := c.Put(d); err != nil {
		t.Fatal(err)
	}
	if !c.Has(a.ID) {
		t.Errorf("recently used object evicted")
	}
	if c.Has(b.ID) {
		t.Errorf("LRU object not evicted")
	}
	if c.Used() > 25 {
		t.Errorf("used %d exceeds capacity", c.Used())
	}
}

func TestCachePinPreventsEviction(t *testing.T) {
	c := NewCache(25)
	a := NewBlob("a", []byte("aaaaaaaaaa"))
	b := NewBlob("b", []byte("bbbbbbbbbb"))
	_ = c.Put(a)
	_ = c.Put(b)
	if err := c.Pin(a.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Pin(b.ID); err != nil {
		t.Fatal(err)
	}
	d := NewBlob("d", []byte("dddddddddd"))
	if err := c.Put(d); err == nil {
		t.Errorf("Put should fail when everything is pinned")
	}
	if err := c.Unpin(b.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(d); err != nil {
		t.Errorf("Put after unpin failed: %v", err)
	}
	if c.Has(b.ID) {
		t.Errorf("unpinned object should have been evicted")
	}
	if !c.Has(a.ID) {
		t.Errorf("pinned object was evicted")
	}
}

func TestCachePinErrors(t *testing.T) {
	c := NewCache(0)
	if err := c.Pin("missing"); err == nil {
		t.Errorf("pin of missing object should fail")
	}
	obj := NewBlob("a", []byte("x"))
	_ = c.Put(obj)
	if err := c.Unpin(obj.ID); err == nil {
		t.Errorf("unpin of unpinned object should fail")
	}
}

func TestCacheObjectLargerThanCapacity(t *testing.T) {
	c := NewCache(5)
	obj := NewBlob("big", []byte("0123456789"))
	if err := c.Put(obj); err == nil {
		t.Errorf("oversized Put should fail")
	}
}

func TestCacheUnpackAccounting(t *testing.T) {
	c := NewCache(0)
	tb := NewTarball("env", []byte("manifest"), 600, 3000)
	if err := c.Put(tb); err != nil {
		t.Fatal(err)
	}
	if c.Used() != 600 {
		t.Errorf("used = %d, want 600", c.Used())
	}
	if _, ok := c.Unpacked(tb.ID); ok {
		t.Errorf("a listing before the unpack")
	}
	first, err := c.MarkUnpacked(tb.ID, []string{"numpy", "resnet"})
	if err != nil || !first {
		t.Fatalf("first unpack: first=%v err=%v", first, err)
	}
	if c.Used() != 3600 {
		t.Errorf("used after unpack = %d, want 3600", c.Used())
	}
	// Second unpack is a no-op: the L2 reuse fast path. Its listing is
	// not the one the expansion produced and is ignored.
	first, err = c.MarkUnpacked(tb.ID, []string{"other"})
	if err != nil || first {
		t.Fatalf("second unpack: first=%v err=%v", first, err)
	}
	if !c.IsUnpacked(tb.ID) {
		t.Errorf("IsUnpacked false after unpack")
	}
	if got, ok := c.Unpacked(tb.ID); !ok || len(got) != 2 || got[0] != "numpy" || got[1] != "resnet" {
		t.Errorf("retained listing = %v (%v)", got, ok)
	}
	c.Evict(tb.ID)
	if got, ok := c.Unpacked(tb.ID); ok {
		t.Errorf("listing %v outlived the eviction", got)
	}
}

func TestCacheUnpackErrors(t *testing.T) {
	c := NewCache(0)
	if _, err := c.MarkUnpacked("missing", nil); err == nil {
		t.Errorf("unpack of uncached object should fail")
	}
	blob := NewBlob("b", []byte("x"))
	_ = c.Put(blob)
	if _, err := c.MarkUnpacked(blob.ID, nil); err == nil {
		t.Errorf("unpack of non-tarball should fail")
	}
}

func TestCacheEvictExplicit(t *testing.T) {
	c := NewCache(0)
	obj := NewBlob("a", []byte("x"))
	_ = c.Put(obj)
	_ = c.Pin(obj.ID)
	if c.Evict(obj.ID) {
		t.Errorf("evict of pinned object should fail")
	}
	_ = c.Unpin(obj.ID)
	if !c.Evict(obj.ID) {
		t.Errorf("evict of unpinned object failed")
	}
	if c.Evict(obj.ID) {
		t.Errorf("evict of missing object should report false")
	}
	if c.Used() != 0 {
		t.Errorf("used = %d after evicting everything", c.Used())
	}
}

func TestCacheUnpackedEvictionReleasesBothCharges(t *testing.T) {
	c := NewCache(0)
	tb := NewTarball("env", []byte("m"), 100, 900)
	_ = c.Put(tb)
	_, _ = c.MarkUnpacked(tb.ID, nil)
	if c.Used() != 1000 {
		t.Fatalf("used = %d", c.Used())
	}
	c.Evict(tb.ID)
	if c.Used() != 0 {
		t.Errorf("used = %d after eviction, want 0", c.Used())
	}
}

// Property: cache usage equals the sum of logical sizes of resident
// objects (plus unpacked charges), under any Put/Evict sequence.
func TestQuickCacheAccounting(t *testing.T) {
	f := func(ops []uint8) bool {
		c := NewCache(1000)
		resident := map[string]int64{}
		for i, op := range ops {
			data := []byte(fmt.Sprintf("object-%d", int(op)%7))
			obj := NewBlob(fmt.Sprintf("o%d", i), data)
			if op%3 == 0 {
				if c.Evict(obj.ID) {
					delete(resident, obj.ID)
				}
			} else {
				if err := c.Put(obj); err == nil {
					if _, ok := resident[obj.ID]; !ok {
						resident[obj.ID] = obj.LogicalSize
					}
				}
			}
			// The cache may have evicted arbitrary objects to make room;
			// recompute residency from the cache's own view.
			var want int64
			for _, id := range c.IDs() {
				if sz, ok := resident[id]; ok {
					want += sz
				} else {
					want = -1
					break
				}
			}
			if want >= 0 && c.Used() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
