package rtree

import (
	"sort"

	"cij/internal/geom"
	"cij/internal/storage"
)

// Flat storage mode: the tree's nodes live in one contiguous arena
// ([]Node slab plus shared Entry and vertex arenas) instead of encoded
// pages behind an LRU buffer. A node's PageID is its slab index, so
// ReadNode/ReadNodeStable degenerate to an array index — no page fetch,
// no decode, no cache bookkeeping — while the read contract (shared,
// read-only nodes) and every traversal built on it are unchanged. It is
// the one decode-free read path: paged trees parse every access. I/O
// accounting moves to a storage.Backend-flat ledger (storage.NewFlatLedger):
// each read counts one LogicalRead and one DecodeHit, and PageAccesses()
// is structurally zero.
//
// Flat trees are immutable: Insert/Delete (and any other mutation path)
// panic. They are produced either by one-shot conversion of a bulk-loaded
// paged tree (Freeze/FreezeWith, structure-preserving) or directly by the
// bulk loader (FlatBulkLoadPoints, no paged intermediate).

// flatStore is the arena of a flat tree. nodes is the slab indexed by
// PageID; every node's Entries is a subslice of the shared entries arena,
// and every polygon's vertices a subslice of verts. The arenas are sized
// exactly up front, so subslices never alias reallocated backing arrays.
type flatStore struct {
	nodes   []Node
	entries []Entry
	verts   []geom.Point
}

// Freeze returns a flat, read-only copy of the tree on a fresh stats
// ledger over the tree's own disk. The conversion is structure-preserving:
// node shapes, entry contents and orders are copied verbatim (only the
// page numbering changes, to slab indexes), so every traversal — and
// therefore every emitted pair sequence — is byte-identical to the paged
// tree's. The source tree is left untouched and remains fully usable.
func (t *Tree) Freeze() *Tree {
	return t.FreezeWith(storage.NewFlatLedger(t.buf.Disk()))
}

// FreezeWith is Freeze onto a caller-provided ledger, so several trees
// (the two join inputs of an experiment environment) can share one ledger
// exactly like paged trees sharing one buffer — collectors that meter a
// single buffer then see the combined node accesses of both trees.
func (t *Tree) FreezeWith(ledger *storage.Buffer) *Tree {
	if ledger.Backend() != storage.BackendFlat {
		panic("rtree: FreezeWith requires a flat ledger (storage.NewFlatLedger)")
	}
	if ledger.Disk() != t.buf.Disk() {
		panic("rtree: FreezeWith requires a ledger over the tree's own disk")
	}
	view := *t
	view.buf = ledger
	view.scratch = &Node{}
	f := &flatStore{}
	view.flat = f
	if t.root == storage.InvalidPage {
		return &view
	}
	// Exact-count pre-pass: the arenas must never grow while node Entries
	// subslices alias them.
	var nNodes, nEntries, nVerts int
	t.walkQuiet(t.root, t.height, func(n *Node) {
		nNodes++
		nEntries += len(n.Entries)
		for i := range n.Entries {
			nVerts += len(n.Entries[i].Poly.V)
		}
	})
	f.nodes = make([]Node, 0, nNodes)
	f.entries = make([]Entry, 0, nEntries)
	f.verts = make([]geom.Point, 0, nVerts)
	view.root = f.copyFrom(t, t.root, t.height)
	return &view
}

// walkQuiet visits every node of the subtree without disturbing the I/O
// counters (construction bookkeeping, like countPages).
func (t *Tree) walkQuiet(id storage.PageID, level int, visit func(*Node)) {
	n := t.readNodeQuiet(id)
	visit(n)
	if level > 1 {
		for i := range n.Entries {
			t.walkQuiet(n.Entries[i].Child, level-1, visit)
		}
	}
}

// copyFrom copies the subtree rooted at id into the arena (pre-order:
// parent slot allocated before children) and returns the node's slab
// index. Entry contents are copied verbatim except Child, which is
// renumbered to the child's slab index, and polygon vertex slices, which
// are deep-copied into the vertex arena so the flat tree shares no
// backing memory with the source's decoded nodes.
func (f *flatStore) copyFrom(t *Tree, id storage.PageID, level int) storage.PageID {
	src := t.readNodeQuiet(id)
	slot := len(f.nodes)
	f.nodes = append(f.nodes, Node{})
	estart := len(f.entries)
	f.entries = append(f.entries, src.Entries...)
	ents := f.entries[estart:len(f.entries):len(f.entries)]
	for i := range ents {
		if nv := len(ents[i].Poly.V); nv > 0 {
			vstart := len(f.verts)
			f.verts = append(f.verts, ents[i].Poly.V...)
			ents[i].Poly.V = f.verts[vstart : vstart+nv : vstart+nv]
		}
	}
	f.nodes[slot] = Node{Leaf: src.Leaf, Entries: ents}
	if level > 1 {
		// src may be scratch/cache-backed and invalidated by the recursive
		// reads below; the copied arena entries are the stable source of
		// child ids to renumber.
		for i := range ents {
			ents[i].Child = f.copyFrom(t, ents[i].Child, level-1)
		}
	}
	return storage.PageID(slot)
}

// alloc appends one node to the arena and returns its slab index. ents is
// copied into the entries arena.
func (f *flatStore) alloc(leaf bool, ents []Entry) storage.PageID {
	slot := len(f.nodes)
	estart := len(f.entries)
	f.entries = append(f.entries, ents...)
	f.nodes = append(f.nodes, Node{Leaf: leaf, Entries: f.entries[estart:len(f.entries):len(f.entries)]})
	return storage.PageID(slot)
}

// FlatBulkLoadPoints builds a flat point tree directly — Hilbert-sorted,
// fully packed, bottom-up, mirroring BulkLoadPoints exactly (same leaf
// partitioning, same fan-out, same entry order) but into the arena with
// no paged intermediate: no page is encoded, written or ever decoded.
// pageSize only determines node capacities, so flat and paged trees built
// from the same inputs are structurally identical (Freeze(BulkLoadPoints)
// and FlatBulkLoadPoints produce the same shape, entry for entry).
func FlatBulkLoadPoints(pts []geom.Point, domain geom.Rect, pageSize int, fillFactor float64) *Tree {
	ledger := storage.NewFlatLedger(storage.NewDisk(pageSize))
	t := New(ledger, KindPoints)
	f := &flatStore{}
	t.flat = f
	if len(pts) == 0 {
		return t
	}
	leafCap := scaleCap(t.maxPoints, fillFactor)
	fanout := scaleCap(t.maxInternal, fillFactor)

	// Exact-count pre-pass over the level structure.
	nLeaves := (len(pts) + leafCap - 1) / leafCap
	total, width := nLeaves, nLeaves
	for width > 1 {
		width = (width + fanout - 1) / fanout
		total += width
	}
	f.nodes = make([]Node, 0, total)
	f.entries = make([]Entry, 0, len(pts)+total-1)

	type keyed struct {
		id  int64
		pt  geom.Point
		key uint64
	}
	items := make([]keyed, len(pts))
	for i, p := range pts {
		items[i] = keyed{id: int64(i), pt: p, key: geom.HilbertValue(p, domain)}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].key < items[j].key })

	var level []Entry
	ents := make([]Entry, 0, leafCap)
	for start := 0; start < len(items); start += leafCap {
		end := start + leafCap
		if end > len(items) {
			end = len(items)
		}
		ents = ents[:0]
		for _, it := range items[start:end] {
			ents = append(ents, Entry{MBR: geom.RectFromPoint(it.pt), ID: it.id, Pt: it.pt})
		}
		id := f.alloc(true, ents)
		level = append(level, Entry{MBR: f.nodes[id].MBR(), Child: id})
	}
	t.size = len(pts)

	height := 1
	for len(level) > 1 {
		var next []Entry
		for start := 0; start < len(level); start += fanout {
			end := start + fanout
			if end > len(level) {
				end = len(level)
			}
			id := f.alloc(false, level[start:end])
			next = append(next, Entry{MBR: f.nodes[id].MBR(), Child: id})
		}
		level = next
		height++
	}
	t.root = level[0].Child
	t.height = height
	return t
}
