// Package joins implements the traditional pointset join operators the
// CIJ paper contrasts its operator with (Section I and II-A): the
// ε-distance join, the k-closest-pairs join, and the all-nearest-neighbor
// join used by the Grouped Nearest Neighbors application. All operate on
// R-tree indexed pointsets with the synchronous-traversal / best-first
// machinery of the literature they cite.
//
// No served path calls this package. It is kept because
// TestEpsilonDoesNotReproduceCIJ is the paper's argument that no ε
// reproduces CIJ, and examples/groupnn uses it as the All-NN route of the
// paper's third application.
package joins

import (
	"cij/internal/pq"
	"cij/internal/rtree"
	"cij/internal/storage"
)

// PointPair is a result of a distance-based join, with the two dataset
// indexes and their distance.
type PointPair struct {
	P, Q int64
	Dist float64
}

// DistanceJoin returns all pairs (p, q) with dist(p, q) ≤ eps, via
// synchronous traversal following entry pairs with mindist ≤ eps
// (the ε-distance join of Böhm et al., adapted to R-trees as described in
// Section II-A).
func DistanceJoin(rp, rq *rtree.Tree, eps float64, emit func(PointPair)) {
	if rp.Root() == storage.InvalidPage || rq.Root() == storage.InvalidPage {
		return
	}
	np := rp.ReadNodeStable(rp.Root())
	nq := rq.ReadNodeStable(rq.Root())
	distJoinNodes(rp, rq, np, nq, rp.Height(), rq.Height(), eps, emit)
}

func distJoinNodes(rp, rq *rtree.Tree, np, nq *rtree.Node, lp, lq int, eps float64, emit func(PointPair)) {
	switch {
	case np.Leaf && nq.Leaf:
		for i := range np.Entries {
			for j := range nq.Entries {
				d := np.Entries[i].Pt.Dist(nq.Entries[j].Pt)
				if d <= eps {
					emit(PointPair{P: np.Entries[i].ID, Q: nq.Entries[j].ID, Dist: d})
				}
			}
		}
	case !np.Leaf && (nq.Leaf || lp > lq):
		bound := nq.MBR()
		for i := range np.Entries {
			if np.Entries[i].MBR.MinDistRect(bound) <= eps {
				child := rp.ReadNodeStable(np.Entries[i].Child)
				distJoinNodes(rp, rq, child, nq, lp-1, lq, eps, emit)
			}
		}
	case !nq.Leaf && (np.Leaf || lq > lp):
		bound := np.MBR()
		for j := range nq.Entries {
			if nq.Entries[j].MBR.MinDistRect(bound) <= eps {
				child := rq.ReadNodeStable(nq.Entries[j].Child)
				distJoinNodes(rp, rq, np, child, lp, lq-1, eps, emit)
			}
		}
	default:
		for i := range np.Entries {
			for j := range nq.Entries {
				if np.Entries[i].MBR.MinDistRect(nq.Entries[j].MBR) <= eps {
					cp := rp.ReadNodeStable(np.Entries[i].Child)
					cq := rq.ReadNodeStable(nq.Entries[j].Child)
					distJoinNodes(rp, rq, cp, cq, lp-1, lq-1, eps, emit)
				}
			}
		}
	}
}

// pairItem is a prioritized pair of subtrees / objects for the best-first
// k-closest-pairs search; the priority (mindist of the two MBRs) lives in
// the pq.Min key.
type pairItem struct {
	ep, eq   rtree.Entry
	lp, lq   int  // remaining heights (0 = object)
	leafPair bool // both entries are objects
}

// ClosestPairs returns the k closest pairs between the two indexed
// pointsets in ascending distance (Hjaltason & Samet / Corral et al.,
// combining incremental NN ideas with synchronous traversal). The frontier
// lives in a typed pq.Min heap — the same no-boxing treatment the core
// traversals got — so expansion allocates only when the frontier grows past
// its high-water mark.
func ClosestPairs(rp, rq *rtree.Tree, k int) []PointPair {
	if k <= 0 || rp.Root() == storage.InvalidPage || rq.Root() == storage.InvalidPage {
		return nil
	}
	var h pq.Min[pairItem]
	push := func(ep, eq rtree.Entry, lp, lq int, leafPair bool) {
		h.Push(ep.MBR.MinDistRect(eq.MBR), pairItem{
			ep: ep, eq: eq, lp: lp, lq: lq, leafPair: leafPair,
		})
	}
	np := rp.ReadNodeStable(rp.Root())
	nq := rq.ReadNodeStable(rq.Root())
	crossPush(np, nq, rp.Height(), rq.Height(), push)

	var out []PointPair
	for h.Len() > 0 && len(out) < k {
		key, top := h.Pop()
		if top.leafPair {
			out = append(out, PointPair{P: top.ep.ID, Q: top.eq.ID, Dist: key})
			continue
		}
		if top.lp >= top.lq && top.lp > 0 {
			// Expand the P side (the taller remaining subtree).
			n := rp.ReadNodeStable(top.ep.Child)
			for i := range n.Entries {
				push(n.Entries[i], top.eq, top.lp-1, top.lq, top.lp-1 == 0 && top.lq == 0)
			}
		} else {
			n := rq.ReadNodeStable(top.eq.Child)
			for i := range n.Entries {
				push(top.ep, n.Entries[i], top.lp, top.lq-1, top.lp == 0 && top.lq-1 == 0)
			}
		}
	}
	return out
}

// crossPush seeds the pair heap with the children of both roots.
func crossPush(np, nq *rtree.Node, lp, lq int, push func(ep, eq rtree.Entry, lp, lq int, leafPair bool)) {
	for i := range np.Entries {
		for j := range nq.Entries {
			ep, eq := np.Entries[i], nq.Entries[j]
			elp, elq := lp-1, lq-1
			if np.Leaf {
				elp = 0
			}
			if nq.Leaf {
				elq = 0
			}
			push(ep, eq, elp, elq, np.Leaf && nq.Leaf)
		}
	}
}

// AllNN computes, for every point of rp, its nearest neighbor in rq. It
// returns a slice indexed by the P object id. This is the AllNN join the
// Grouped-NN application would otherwise need two of (Section I); simple
// per-point best-first queries suffice for the example workloads.
func AllNN(rp, rq *rtree.Tree) []PointPair {
	out := make([]PointPair, rp.Size())
	rp.VisitLeaves(func(leaf *rtree.Node) {
		for _, e := range leaf.Entries {
			nn := rq.KNN(e.Pt, 1, nil)
			if len(nn) == 1 {
				out[e.ID] = PointPair{P: e.ID, Q: nn[0].ID, Dist: e.Pt.Dist(nn[0].Pt)}
			}
		}
	})
	return out
}
