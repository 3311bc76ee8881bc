package rtree

import (
	"container/heap"
	"sort"

	"cij/internal/geom"
	"cij/internal/storage"
)

// RangeSearch returns all leaf entries whose MBR intersects query. For
// polygon trees this is the filter step: callers refine with exact
// geometry. PM-CIJ issues one such search per batch of Q-cells, with query
// enclosing the whole batch.
func (t *Tree) RangeSearch(query geom.Rect) []Entry {
	var out []Entry
	if t.root == storage.InvalidPage {
		return out
	}
	var walk func(id storage.PageID, level int)
	walk = func(id storage.PageID, level int) {
		n := t.ReadNodeStable(id)
		for i := range n.Entries {
			e := &n.Entries[i]
			if !e.MBR.Intersects(query) {
				continue
			}
			if n.Leaf {
				out = append(out, *e)
			} else {
				walk(e.Child, level-1)
			}
		}
	}
	walk(t.root, t.height)
	return out
}

// heapItem is a prioritized R-tree entry for best-first traversals.
type heapItem struct {
	key   float64
	entry Entry
	leaf  bool // whether entry is an object (from a leaf) or a child ref
}

// entryHeap is a min-heap over heapItem.
type entryHeap []heapItem

func (h entryHeap) Len() int            { return len(h) }
func (h entryHeap) Less(i, j int) bool  { return h[i].key < h[j].key }
func (h entryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *entryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// NNIterator browses leaf objects in ascending distance from an anchor
// point — the incremental best-first algorithm of Hjaltason & Samet that
// Algorithm 1 and the ConditionalFilter build on. It reads through
// ReadNodeStable: heap items retain entry values (including polygon
// vertex slices on polygon trees), which must not alias a scratch node.
type NNIterator struct {
	t      *Tree
	anchor geom.Point
	h      entryHeap
}

// NewNNIterator starts an incremental NN browse around anchor.
func (t *Tree) NewNNIterator(anchor geom.Point) *NNIterator {
	it := &NNIterator{t: t, anchor: anchor}
	if t.root != storage.InvalidPage {
		root := t.ReadNodeStable(t.root)
		it.pushNode(root)
	}
	heap.Init(&it.h)
	return it
}

func (it *NNIterator) pushNode(n *Node) {
	for i := range n.Entries {
		e := n.Entries[i]
		heap.Push(&it.h, heapItem{
			key:   e.MBR.MinDist(it.anchor),
			entry: e,
			leaf:  n.Leaf,
		})
	}
}

// Next returns the next closest object entry and its distance, or ok=false
// when the tree is exhausted.
func (it *NNIterator) Next() (Entry, float64, bool) {
	for it.h.Len() > 0 {
		top := heap.Pop(&it.h).(heapItem)
		if top.leaf {
			return top.entry, top.key, true
		}
		it.pushNode(it.t.ReadNodeStable(top.entry.Child))
	}
	return Entry{}, 0, false
}

// KNN returns the k nearest leaf objects to anchor for which accept
// returns true (accept == nil accepts everything).
func (t *Tree) KNN(anchor geom.Point, k int, accept func(Entry) bool) []Entry {
	it := t.NewNNIterator(anchor)
	var out []Entry
	for len(out) < k {
		e, _, ok := it.Next()
		if !ok {
			break
		}
		if accept == nil || accept(e) {
			out = append(out, e)
		}
	}
	return out
}

// VisitLeavesHilbert performs a depth-first traversal visiting each leaf
// node once, with the entries of every internal node visited in ascending
// Hilbert value of their MBR centers. This is the "tuned" DFS of Section
// III-C that makes successively visited leaves close in space, so that
// batch-computed Voronoi cells arrive in good packing order and buffer
// locality is high.
//
// The leaf handed to visit is shared and read-only (a flat tree's arena
// node); callbacks copy what they keep, as voronoi.AppendSites does.
func (t *Tree) VisitLeavesHilbert(domain geom.Rect, visit func(leaf *Node)) {
	if t.root == storage.InvalidPage {
		return
	}
	var walk func(id storage.PageID, level int)
	walk = func(id storage.PageID, level int) {
		n := t.ReadNodeStable(id)
		if n.Leaf {
			visit(n)
			return
		}
		order := make([]int, len(n.Entries))
		keys := make([]uint64, len(n.Entries))
		for i := range n.Entries {
			order[i] = i
			keys[i] = geom.HilbertValue(n.Entries[i].MBR.Center(), domain)
		}
		sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
		for _, i := range order {
			walk(n.Entries[i].Child, level-1)
		}
	}
	walk(t.root, t.height)
}

// VisitLeaves performs a plain depth-first traversal in stored entry
// order. Kept as the non-tuned ablation counterpart of
// VisitLeavesHilbert.
func (t *Tree) VisitLeaves(visit func(leaf *Node)) {
	if t.root == storage.InvalidPage {
		return
	}
	var walk func(id storage.PageID, level int)
	walk = func(id storage.PageID, level int) {
		n := t.ReadNodeStable(id)
		if n.Leaf {
			visit(n)
			return
		}
		for i := range n.Entries {
			walk(n.Entries[i].Child, level-1)
		}
	}
	walk(t.root, t.height)
}

// AllEntries returns every leaf object entry of the tree (test helper and
// export path; one full traversal).
func (t *Tree) AllEntries() []Entry {
	var out []Entry
	t.VisitLeaves(func(leaf *Node) {
		out = append(out, leaf.Entries...)
	})
	return out
}
