// Package memlru is the in-process hot-table tier (L0) of the result
// store: a bounded LRU of tables keyed by fingerprint, sitting
// in front of the disk store so a busy bccserve answers its hottest
// tables without touching the filesystem at all.
//
// # Contract
//
// Cache implements store.Backend. Hits return the cached *result.Table
// pointer itself — tables are immutable by repository-wide convention
// (the canonical-JSON byte-identity contract depends on it), so sharing
// the pointer is safe and allocation-free. Eviction is strict LRU under
// two independent bounds: the tier holds at most Capacity tables AND at
// most MaxBytes approximate bytes (when a byte cap is set), and a Get
// refreshes recency. An evicted table is not lost — the tier below
// (disk, then the shared bucket) still holds it, and the next Get falls
// through and backfills (store/tier's job).
//
// The byte accounting is deliberately approximate: an entry is charged
// the length of its encoded JSON (the dominant allocation — the decoded
// rows it shadows are the same cells the encoding spells out) plus a
// fixed overhead for the list/map/struct bookkeeping. The cap exists
// because entry-count limits stopped being a proxy for memory once
// table sizes started spanning three orders of magnitude (an E18 exact
// table vs an E20 sweep): 64 small tables and 64 recovery sweeps are
// very different residencies. The most recently inserted entry is never
// evicted by the byte cap — a single table larger than MaxBytes still
// caches (and evicts everything else), rather than turning the L0 off.
//
// Every entry carries the table's encoded JSON: Put warms the wire
// bytes (result.Table memoizes them on the immutable table object, so
// the entry, the scheduler's outcome, and the HTTP response all share
// one copy). A table computed in process pays its only encode there; a
// table backfilled from the disk or bucket tier arrives with its
// verified wire bytes as the memo and undecoded rows, so that Put
// encodes nothing at all. A memory hit therefore serves stored bytes —
// zero re-encodes, zero allocations. The markdown view stays lazy: the
// first format=md request decodes the rows (if they were never decoded)
// and memoizes the rendering, instead of paying for tables nobody reads
// as markdown.
//
// The zero capacity is rejected at construction rather than silently
// caching nothing: an L0 that never holds anything is a configuration
// error, not a degraded mode.
package memlru

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"repro/internal/result"
	"repro/internal/store"
)

// Cache is a fixed-capacity in-memory LRU over tables. It is
// safe for concurrent use.
type Cache struct {
	capacity int
	maxBytes int64 // 0 = no byte cap

	mu      sync.Mutex
	order   *list.List               // front = most recent; values are *entry
	entries map[string]*list.Element // fingerprint → element
	bytes   int64                    // sum of resident entry sizes

	hits, misses, puts, evictions uint64
}

// entry is one cached table.
type entry struct {
	fingerprint string
	table       *result.Table
	size        int64 // approximate resident bytes, charged once at Put
}

// entryOverhead approximates the per-entry bookkeeping outside the
// encoded bytes: the list element, the map slot, the entry struct, and
// the decoded table's own headers.
const entryOverhead = 256

// entrySize charges a table its encoded-JSON length plus overhead. A
// table whose encoding failed is charged overhead only — it still
// occupies a slot, and the serving layer surfaces the encode error.
func entrySize(t *result.Table) int64 {
	size := int64(entryOverhead)
	if b, err := t.EncodedJSON(); err == nil {
		size += int64(len(b))
	}
	return size
}

// New returns an empty cache holding at most capacity tables, with no
// byte cap.
func New(capacity int) (*Cache, error) {
	return NewSized(capacity, 0)
}

// NewSized returns an empty cache bounded by both an entry count and an
// approximate byte budget. maxBytes ≤ 0 means entries-only, matching
// New.
func NewSized(capacity int, maxBytes int64) (*Cache, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("memlru: capacity %d, want ≥ 1", capacity)
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	return &Cache{
		capacity: capacity,
		maxBytes: maxBytes,
		order:    list.New(),
		entries:  make(map[string]*list.Element, capacity),
	}, nil
}

// Name identifies the memory tier in stats and cache headers.
func (c *Cache) Name() string { return "memory" }

// Get returns the cached table for k and refreshes its recency. The
// context is ignored: a map lookup is not worth making interruptible.
func (c *Cache) Get(_ context.Context, k store.Key) (*result.Table, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k.Fingerprint]
	if !ok {
		c.misses++
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return el.Value.(*entry).table, true
}

// Put inserts (or refreshes) k's table, evicting the least-recently
// used entry when the cache is full. It never fails.
func (c *Cache) Put(k store.Key, t *result.Table) error {
	// Warm the encoded view before taking the lock: the encode runs at
	// most once per table (memoized), happens off the hit path, and an
	// unencodable table is still cached — the serving layer surfaces
	// the encode error itself.
	_, _ = t.EncodedJSON()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	if el, ok := c.entries[k.Fingerprint]; ok {
		// Equal fingerprints carry byte-equal tables, so the stored value
		// needs no replacement — only a recency refresh.
		c.order.MoveToFront(el)
		return nil
	}
	e := &entry{fingerprint: k.Fingerprint, table: t, size: entrySize(t)}
	c.entries[k.Fingerprint] = c.order.PushFront(e)
	c.bytes += e.size
	// Evict from the cold end until both bounds hold; the entry just
	// inserted (the only one left when Len reaches 1) is never a victim.
	for c.order.Len() > 1 &&
		(c.order.Len() > c.capacity || (c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		victim := oldest.Value.(*entry)
		delete(c.entries, victim.fingerprint)
		c.bytes -= victim.size
		c.evictions++
	}
	return nil
}

// Contains reports whether the cache currently holds k, without
// touching recency or the traffic counters — a listing probe, not a
// read.
func (c *Cache) Contains(k store.Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[k.Fingerprint]
	return ok
}

// Len reports how many tables the cache currently holds.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats summarizes the cache's traffic.
type Stats struct {
	// Capacity and Len describe the entry-count bound and current fill.
	Capacity int `json:"capacity"`
	Len      int `json:"len"`
	// MaxBytes and Bytes describe the approximate byte bound (0 = no
	// cap) and the current resident total under the same accounting.
	MaxBytes int64 `json:"max_bytes"`
	Bytes    int64 `json:"bytes"`
	// Hits/Misses/Puts/Evictions count operations over the handle's
	// lifetime.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
}

// Stats reports the cache's bounds, fill, and traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Capacity: c.capacity, Len: c.order.Len(),
		MaxBytes: c.maxBytes, Bytes: c.bytes,
		Hits: c.hits, Misses: c.misses, Puts: c.puts, Evictions: c.evictions,
	}
}
