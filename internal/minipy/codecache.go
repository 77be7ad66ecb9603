package minipy

import "sync"

// codeCacheEntries bounds a CodeCache. A worker's working set of code
// texts is small — the task wrapper script, the sources of the functions
// it has been sent, its libraries' function sources — so the bound is
// reached only by a stream of texts each run once (a generated script
// per task), and those are the entries to lose.
const codeCacheEntries = 256

// maxCachedSource is the longest text a CodeCache keeps a tree for; a
// longer one is parsed every time it runs. With codeCacheEntries it caps
// the source text a cache holds at 2 MiB, and a tree is a small multiple
// of its text.
const maxCachedSource = 8 << 10

// CodeCache maps a code text to its parsed tree, so that a worker parses
// the texts its tasks repeat — the wrapper script, a pickled function's
// source — once rather than once per task. A tree is never written after
// the parser returns it (the interpreter only reads AST nodes; a
// function's own parameter defaults live in a copy of the parameter
// list), so every task running a text shares one tree, concurrently and
// without copies. Only the parse is saved: a task still reads its inputs,
// unpickles, imports and runs everything its reuse level assigns it.
//
// One cache belongs to one worker and is never process-global: in-process
// workers stand for separate machines. An Interp with no cache (the
// application's own, or a probe's) parses from cold. A text that fails
// to parse is not cached, so it fails the same way every time it runs.
// Past codeCacheEntries, the second-chance clock over insertion order
// evicts an entry no lookup has hit since the hand last passed it; the
// order depends only on the sequence of lookups. The zero value is an
// empty cache, safe for concurrent use.
type CodeCache struct {
	mu sync.Mutex
	// ring holds the entries in insertion order, each eviction's
	// replacement in its victim's place. Its first linearEntries live in
	// few and are found by a scan, so a worker that runs a handful of
	// texts — a cold start's library, a wrapped function — keeps them
	// without allocating; past that, at indexes ring.
	ring         []codeEntry
	few          [linearEntries]codeEntry
	at           map[codeKey]int
	hand         int
	hits, parses int64
}

const linearEntries = 8

// codeKey tells a module text from the same text as a lambda expression.
type codeKey struct {
	src    string
	lambda bool
}

type codeEntry struct {
	key  codeKey
	tree Node // *Module, or the lambda's Expr
	used bool // hit since the clock hand last passed
}

// CodeStats is a snapshot of a CodeCache's counters.
type CodeStats struct {
	// Hits counts lookups that found a tree; Parses counts texts parsed,
	// including those that failed or were too long to keep.
	Hits, Parses int64
	// Entries is the number of trees held, at most codeCacheEntries.
	Entries int
}

// Stats returns a snapshot of the cache's counters.
func (c *CodeCache) Stats() CodeStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CodeStats{Hits: c.hits, Parses: c.parses, Entries: len(c.ring)}
}

// Module returns src's parse as a module. A nil cache parses every time.
func (c *CodeCache) Module(src string) (*Module, error) {
	tree, err := c.tree(codeKey{src: src})
	if err != nil {
		return nil, err
	}
	return tree.(*Module), nil
}

// Source returns the module text whose bytes are b: the string the
// cache keeps with its tree when it holds one, so a function unpickled
// on a worker that parsed its source before shares that text rather than
// copying it; a copy of b otherwise, and always from a nil cache.
func (c *CodeCache) Source(b []byte) string {
	if c == nil {
		return string(b)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.find(codeKey{src: string(BorrowStr(b))}); ok {
		return c.ring[i].key.src
	}
	return string(b)
}

// lambda returns src's parse as an expression, for a lambda's source.
func (c *CodeCache) lambda(src string) (Expr, error) {
	tree, err := c.tree(codeKey{src: src, lambda: true})
	if err != nil {
		return nil, err
	}
	return tree.(Expr), nil
}

func (k codeKey) parse() (Node, error) {
	if k.lambda {
		return ParseExpr(k.src)
	}
	return Parse(k.src)
}

// find returns the ring position of key's entry.
func (c *CodeCache) find(key codeKey) (int, bool) {
	if c.at != nil {
		i, ok := c.at[key]
		return i, ok
	}
	for i := range c.ring {
		if c.ring[i].key == key {
			return i, true
		}
	}
	return 0, false
}

// tree returns the cached tree for key, or parses it outside the lock
// and keeps it. Two tasks missing on one text at once both parse it; the
// first to finish is kept and both return that tree.
func (c *CodeCache) tree(key codeKey) (Node, error) {
	if c == nil {
		return key.parse()
	}
	c.mu.Lock()
	if i, ok := c.find(key); ok {
		c.ring[i].used = true
		c.hits++
		tree := c.ring[i].tree
		c.mu.Unlock()
		return tree, nil
	}
	c.parses++
	c.mu.Unlock()
	tree, err := key.parse()
	if err != nil || len(key.src) > maxCachedSource {
		return tree, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.find(key); ok {
		return c.ring[i].tree, nil
	}
	entry := codeEntry{key: key, tree: tree}
	if len(c.ring) < codeCacheEntries {
		if c.ring == nil {
			c.ring = c.few[:0]
		}
		c.ring = append(c.ring, entry)
		if c.at != nil {
			c.at[key] = len(c.ring) - 1
		} else if len(c.ring) > linearEntries {
			c.at = make(map[codeKey]int, codeCacheEntries)
			for i := range c.ring {
				c.at[c.ring[i].key] = i
			}
		}
		return tree, nil
	}
	for c.ring[c.hand].used {
		c.ring[c.hand].used = false
		c.hand = (c.hand + 1) % len(c.ring)
	}
	delete(c.at, c.ring[c.hand].key)
	c.ring[c.hand] = entry
	c.at[key] = c.hand
	c.hand = (c.hand + 1) % len(c.ring)
	return tree, nil
}
