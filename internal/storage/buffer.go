package storage

import (
	"fmt"
	"math"
)

// Stats accumulates the I/O counters reported in the paper's experiments.
type Stats struct {
	// LogicalReads counts node accesses: every page request, hit or miss.
	// Fig. 5 reports this metric (per-query node accesses, no buffer).
	LogicalReads int64
	// PageReads counts physical reads, i.e. buffer misses. Together with
	// PageWrites this is the "page accesses" metric of Figs. 6-9 and
	// Tables II-III.
	PageReads int64
	// PageWrites counts physical page writes (tree materialization cost).
	PageWrites int64
	// DecodeHits counts node accesses served without parsing a page: the
	// arena reads of flat trees (NoteFlatRead). Paged reads always parse,
	// so on a paged buffer it stays zero. Purely a CPU-side metric: it
	// never contributes to PageAccesses.
	DecodeHits int64
}

// PageAccesses returns the combined physical I/O count.
func (s Stats) PageAccesses() int64 { return s.PageReads + s.PageWrites }

// Sub returns the difference s - o of two counter snapshots, used to
// attribute I/O to phases (MAT vs JOIN in Fig. 7).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		LogicalReads: s.LogicalReads - o.LogicalReads,
		PageReads:    s.PageReads - o.PageReads,
		PageWrites:   s.PageWrites - o.PageWrites,
		DecodeHits:   s.DecodeHits - o.DecodeHits,
	}
}

// Add returns the sum of two counter snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		LogicalReads: s.LogicalReads + o.LogicalReads,
		PageReads:    s.PageReads + o.PageReads,
		PageWrites:   s.PageWrites + o.PageWrites,
		DecodeHits:   s.DecodeHits + o.DecodeHits,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("logical=%d reads=%d writes=%d decodehits=%d", s.LogicalReads, s.PageReads, s.PageWrites, s.DecodeHits)
}

// Buffer is an LRU page cache in front of a Disk. Capacity 0 disables
// caching entirely (every access is physical), which matches the
// buffer-less node-access experiments of Fig. 5.
//
// Writes are write-through: each Write costs one physical page write and
// installs the page in the cache, so materializing an R-tree costs exactly
// its page count in writes (Section III-C: "the I/O cost of tree
// construction is exactly the cost of writing the nodes of R'P to disk").
//
// The buffer caches page bytes only. Callers parse what they read (rtree
// decodes each paged node access afresh); the in-memory, parse-free
// representation is the flat arena behind a NewFlatLedger buffer.
type Buffer struct {
	disk     *Disk
	capacity int
	stats    Stats

	// Intrusive LRU: a sentinel-anchored doubly-linked list of bufEntry
	// with a free list for recycled nodes, so steady-state page churn —
	// thousands of install/evict cycles per join on a paper-sized 2%
	// buffer — allocates nothing.
	head    bufEntry // sentinel: head.next = most recently used
	free    *bufEntry
	entries map[PageID]*bufEntry // page id -> live entry
	count   int

	// backend marks what the buffer fronts: BackendPaged for the ordinary
	// page cache, BackendFlat for the stats-only ledger of an
	// arena-resident tree (see backend.go). Forks inherit it.
	backend Backend

	// onEvict, when non-nil, observes every page leaving the cache
	// (capacity eviction, shrink, DropAll). Diagnostics/metrics hook; it
	// must not call back into the buffer.
	onEvict func(id PageID)
}

type bufEntry struct {
	id         PageID
	data       []byte
	prev, next *bufEntry
}

// CapacityFor is the buffer size, in pages, that holds pct% of a
// pages-page dataset, rounded up: at least one page whenever pct > 0, and
// none when pct is 0 (the paper's buffer-less setting).
func CapacityFor(pages int, pct float64) int {
	c := int(math.Ceil(float64(pages) * pct / 100))
	if pct > 0 && c < 1 {
		c = 1
	}
	return c
}

// NewBuffer creates a buffer over disk with room for capacity pages.
func NewBuffer(disk *Disk, capacity int) *Buffer {
	if capacity < 0 {
		capacity = 0
	}
	b := &Buffer{
		disk:     disk,
		capacity: capacity,
		entries:  make(map[PageID]*bufEntry),
	}
	b.head.prev, b.head.next = &b.head, &b.head
	return b
}

// unlink removes e from the LRU list.
func (b *Buffer) unlink(e *bufEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

// linkFront inserts e as most recently used.
func (b *Buffer) linkFront(e *bufEntry) {
	e.prev = &b.head
	e.next = b.head.next
	e.next.prev = e
	b.head.next = e
}

// moveToFront marks e most recently used.
func (b *Buffer) moveToFront(e *bufEntry) {
	if b.head.next == e {
		return
	}
	b.unlink(e)
	b.linkFront(e)
}

// release returns an unlinked entry to the free list.
func (b *Buffer) release(e *bufEntry) {
	e.data = nil
	e.prev = nil
	e.next = b.free
	b.free = e
}

// Disk returns the underlying disk.
func (b *Buffer) Disk() *Disk { return b.disk }

// Fork returns a fresh, empty buffer over the same disk with the given
// capacity and zeroed counters. A Buffer is single-goroutine state (LRU
// list plus counters), so concurrent readers each Fork their own buffer
// instead of sharing one: Disk reads are safe concurrently as long as no
// page is allocated or written (see the Disk doc), which holds for the
// join phase of the CIJ algorithms — they only read the two input trees.
// Per-fork Stats then attribute I/O to each worker exactly, and summing
// them yields the total physical I/O of a parallel run.
//
// A fork inherits the backend and the eviction hook: a hook installed on
// a dataset's base buffer observes evictions from every per-request view
// forked off it, so it must itself be safe for concurrent use (an atomic
// counter is the typical shape).
func (b *Buffer) Fork(capacity int) *Buffer {
	f := NewBuffer(b.disk, capacity)
	f.onEvict = b.onEvict
	f.backend = b.backend
	return f
}

// Capacity returns the buffer capacity in pages.
func (b *Buffer) Capacity() int { return b.capacity }

// SetCapacity resizes the buffer, evicting least-recently-used pages if it
// shrinks.
func (b *Buffer) SetCapacity(capacity int) {
	if capacity < 0 {
		capacity = 0
	}
	b.capacity = capacity
	b.evictOverflow()
}

// Stats returns a snapshot of the I/O counters.
func (b *Buffer) Stats() Stats { return b.stats }

// ResetStats zeroes the I/O counters without touching cached pages.
func (b *Buffer) ResetStats() { b.stats = Stats{} }

// RestoreStats overwrites the counters with a previously captured
// snapshot. Structural bookkeeping (invariant checks, page counting) uses
// it to stay invisible in measured experiments.
func (b *Buffer) RestoreStats(s Stats) { b.stats = s }

// DropAll empties the cache (cold restart) without touching the counters.
func (b *Buffer) DropAll() {
	for e := b.head.next; e != &b.head; {
		next := e.next
		if b.onEvict != nil {
			b.onEvict(e.id)
		}
		delete(b.entries, e.id)
		b.release(e)
		e = next
	}
	b.head.prev, b.head.next = &b.head, &b.head
	b.count = 0
}

// Read returns the contents of the page, through the cache. The returned
// slice is shared; callers must not modify it.
func (b *Buffer) Read(id PageID) []byte {
	b.stats.LogicalReads++
	if e, ok := b.entries[id]; ok {
		b.moveToFront(e)
		return e.data
	}
	b.stats.PageReads++
	data := b.disk.read(id)
	b.install(id, data)
	return data
}

// SetOnEvict installs a hook observing every page that leaves the cache
// (LRU eviction, capacity shrink, DropAll). Pass nil to remove it. The
// hook must not mutate the buffer. Buffers forked after the call inherit
// the hook (see Fork), so a hook that may run on several forks
// concurrently must be thread-safe.
func (b *Buffer) SetOnEvict(fn func(id PageID)) { b.onEvict = fn }

// Contains reports whether the page is currently cached (no counter
// impact). Used by tests.
func (b *Buffer) Contains(id PageID) bool {
	_, ok := b.entries[id]
	return ok
}

// Write stores data into the page (write-through) and caches it.
func (b *Buffer) Write(id PageID, data []byte) {
	b.stats.PageWrites++
	b.disk.write(id, data)
	if e, ok := b.entries[id]; ok {
		e.data = b.disk.read(id)
		b.moveToFront(e)
		return
	}
	b.install(id, b.disk.read(id))
}

// Alloc allocates a fresh page on the underlying disk. Allocation itself
// is free; the subsequent Write pays the I/O.
func (b *Buffer) Alloc() PageID { return b.disk.Alloc() }

func (b *Buffer) install(id PageID, data []byte) {
	if b.capacity == 0 {
		return
	}
	e := b.free
	if e != nil {
		b.free = e.next
		e.next = nil
	} else {
		e = &bufEntry{}
	}
	e.id, e.data = id, data
	b.linkFront(e)
	b.entries[id] = e
	b.count++
	b.evictOverflow()
}

func (b *Buffer) evictOverflow() {
	for b.count > b.capacity {
		back := b.head.prev
		if back == &b.head {
			return
		}
		b.unlink(back)
		delete(b.entries, back.id)
		b.count--
		if b.onEvict != nil {
			b.onEvict(back.id)
		}
		b.release(back)
	}
}
