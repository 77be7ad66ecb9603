package content

import (
	"fmt"
	"sort"
	"sync"
)

// Cache is a worker's local object store: a byte-budgeted,
// pin-aware, LRU-evicting map from content ID to object. Cached objects
// are what make L2 context reuse work — the first invocation pays the
// fetch (and unpack, for tarballs) and every later invocation on the
// same worker shares the single copy.
type Cache struct {
	mu       sync.Mutex
	capacity int64 // bytes; 0 = unlimited
	used     int64
	entries  map[string]*cacheEntry
	clock    int64 // logical LRU clock
}

type cacheEntry struct {
	obj      *Object
	pins     int
	lastUse  int64
	unpacked bool
	// listing is what the expansion installed, as MarkUnpacked was
	// told; like the expanded directory it is gone when the entry is.
	listing []string
}

// NewCache creates a cache with the given byte capacity (0 = unlimited).
func NewCache(capacity int64) *Cache {
	return &Cache{capacity: capacity, entries: map[string]*cacheEntry{}}
}

// Used returns the bytes currently charged to the cache (logical sizes
// plus unpacked sizes).
func (c *Cache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Len returns the number of cached objects.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Has reports whether an object is cached, without touching LRU state.
func (c *Cache) Has(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[id]
	return ok
}

// Get returns a cached object and refreshes its LRU position.
func (c *Cache) Get(id string) (*Object, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return nil, false
	}
	c.clock++
	e.lastUse = c.clock
	return e.obj, true
}

// Put inserts an object, evicting unpinned LRU entries if needed to fit
// the capacity. It fails if the object alone exceeds capacity or if
// pinned entries prevent making room.
func (c *Cache) Put(obj *Object) error { return c.put(obj, 0) }

// PutPinned is Put and Pin as one step: the object is never in the
// cache unpinned, so no concurrent Put can evict it to make room before
// the pin lands. An object already cached gains a pin.
func (c *Cache) PutPinned(obj *Object) error { return c.put(obj, 1) }

func (c *Cache) put(obj *Object, pins int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[obj.ID]; ok {
		e.pins += pins // already cached; contents are immutable
		return nil
	}
	need := obj.LogicalSize
	if c.capacity > 0 && need > c.capacity {
		return fmt.Errorf("content: object %q (%d bytes) exceeds cache capacity %d", obj.Name, need, c.capacity)
	}
	if err := c.makeRoom(need); err != nil {
		return err
	}
	c.clock++
	c.entries[obj.ID] = &cacheEntry{obj: obj, pins: pins, lastUse: c.clock}
	c.used += need
	return nil
}

// makeRoom evicts unpinned entries in LRU order until need bytes fit.
// Caller holds the lock.
func (c *Cache) makeRoom(need int64) error {
	if c.capacity == 0 {
		return nil
	}
	if c.used+need <= c.capacity {
		return nil
	}
	type cand struct {
		id      string
		lastUse int64
	}
	var cands []cand
	for id, e := range c.entries {
		if e.pins == 0 {
			cands = append(cands, cand{id, e.lastUse})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].lastUse < cands[j].lastUse })
	for _, cd := range cands {
		if c.used+need <= c.capacity {
			return nil
		}
		c.evictLocked(cd.id)
	}
	if c.used+need <= c.capacity {
		return nil
	}
	return fmt.Errorf("content: cannot free %d bytes (used %d of %d, rest pinned)", need, c.used, c.capacity)
}

func (c *Cache) evictLocked(id string) {
	e, ok := c.entries[id]
	if !ok {
		return
	}
	c.used -= e.obj.LogicalSize
	if e.unpacked {
		c.used -= e.obj.UnpackedSize
	}
	delete(c.entries, id)
}

// Evict removes an unpinned object, reporting whether it was removed.
func (c *Cache) Evict(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok || e.pins > 0 {
		return false
	}
	c.evictLocked(id)
	return true
}

// Pin marks an object as in use by a task or library; pinned objects
// are never evicted. Pins nest.
func (c *Cache) Pin(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return fmt.Errorf("content: pin of uncached object %s", shortID(id))
	}
	e.pins++
	return nil
}

// Unpin releases one pin.
func (c *Cache) Unpin(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return fmt.Errorf("content: unpin of uncached object %s", shortID(id))
	}
	if e.pins == 0 {
		return fmt.Errorf("content: unpin of unpinned object %s", shortID(id))
	}
	e.pins--
	return nil
}

// MarkUnpacked records that a tarball has been expanded on local disk,
// charging its unpacked size to the cache and retaining listing — what
// the expansion installed — until the object is evicted. Unpacking an
// already unpacked object reports false (no work needed, the first
// listing stands) — this is the check that makes environment reuse on
// disk (L2) cheap.
func (c *Cache) MarkUnpacked(id string, listing []string) (first bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return false, fmt.Errorf("content: unpack of uncached object %s", shortID(id))
	}
	if e.obj.Kind != Tarball {
		return false, fmt.Errorf("content: unpack of non-tarball object %q", e.obj.Name)
	}
	if e.unpacked {
		return false, nil
	}
	if err := c.makeRoom(e.obj.UnpackedSize); err != nil {
		return false, err
	}
	e.unpacked = true
	e.listing = listing
	c.used += e.obj.UnpackedSize
	return true, nil
}

// Unpacked returns the listing retained when a cached tarball was
// expanded; ok is false if the object is not cached or not expanded.
func (c *Cache) Unpacked(id string) (listing []string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok || !e.unpacked {
		return nil, false
	}
	return e.listing, true
}

// IsUnpacked reports whether a cached tarball has been expanded.
func (c *Cache) IsUnpacked(id string) bool {
	_, ok := c.Unpacked(id)
	return ok
}

func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
