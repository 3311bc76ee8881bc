package storage

// Backend identifies how a tree's nodes are physically represented behind
// a Buffer handle.
//
// BackendPaged is the disk-resident representation of the paper: every
// node is an encoded page, reads go through the LRU cache, count physical
// I/O on misses and parse the page bytes on every access. BackendFlat
// marks a buffer that fronts no pages at all — the tree's nodes live in a
// contiguous in-memory arena (rtree flat mode), the one decode-free read
// path, and the buffer is retained purely as the I/O ledger: reads are
// counted (LogicalReads, DecodeHits) but no page is ever fetched,
// decoded, cached or evicted, so PageReads and PageWrites stay
// identically zero.
type Backend uint8

const (
	// BackendPaged is the default page-cache representation.
	BackendPaged Backend = iota
	// BackendFlat marks a stats-only ledger for arena-resident trees.
	BackendFlat
)

// String returns the backend's knob value ("paged", "flat").
func (b Backend) String() string {
	if b == BackendFlat {
		return "flat"
	}
	return "paged"
}

// NewFlatLedger creates the stats ledger of a flat (arena-resident) tree:
// a capacity-0 buffer over disk whose only job is counting node accesses.
// Flat reads bypass the page path entirely (rtree.Tree serves them from
// its node arena) and report themselves through NoteFlatRead, so the
// ledger's Stats keep the accounting invariants every consumer relies on —
// LogicalReads counts node accesses exactly like a paged run, while
// PageAccesses() is structurally zero.
//
// The ledger supports the full Buffer surface (Fork for per-worker or
// per-request isolation, Stats/ResetStats/RestoreStats, SetOnEvict), so
// joins, the parallel engine and the service run unchanged; forks inherit
// the flat backend.
func NewFlatLedger(disk *Disk) *Buffer {
	b := NewBuffer(disk, 0)
	b.backend = BackendFlat
	return b
}

// Backend reports the buffer's representation: BackendFlat for ledgers
// created by NewFlatLedger (and their forks), BackendPaged otherwise.
func (b *Buffer) Backend() Backend { return b.backend }

// NoteFlatRead counts one arena node access on a flat ledger: a logical
// read that was served decode-free. It is the entire accounting of the
// flat hot path — two counter increments, no map lookup, no LRU touch —
// and keeps DecodeHits == LogicalReads as the flat-mode invariant
// (every access reuses the arena node; nothing is ever re-parsed).
func (b *Buffer) NoteFlatRead() {
	b.stats.LogicalReads++
	b.stats.DecodeHits++
}
