package rtree

import (
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
// panic. Freeze/FreezeWith is the one way to build one: a
// structure-preserving, one-shot conversion of a paged tree, so the flat
// layout is whatever the paged builders produced, never a second
// derivation of it.

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
