package parallel

import (
	"cij/internal/geom"
	"cij/internal/rtree"
	"cij/internal/voronoi"
)

// Unit is one work unit of the partitioned join: a contiguous run of
// Hilbert-ordered Q-leaf batches. Contiguity matters twice over — the
// leaves of distinct units index disjoint points of Q (no pair can be
// emitted by two units), and consecutive batches are close in space, so
// the worker that processes a unit keeps hitting its Voronoi-cell reuse
// buffer just like the serial algorithm does.
type Unit struct {
	Index   int              // position in the Hilbert order of units
	Batches [][]voronoi.Site // one entry per Q-leaf, in Hilbert order
	Points  int              // total sites across the unit's batches
}

// PartitionLeaves collects the leaves of rq in Hilbert order (one tree
// traversal, charged to rq's own buffer) and splits them into at most
// maxUnits contiguous units of near-equal leaf count. On a bulk-loaded
// tree counting leaves is counting points: every leaf but the last is
// packed full, under clustering as much as on uniform data.
func PartitionLeaves(rq *rtree.Tree, domain geom.Rect, maxUnits int) []Unit {
	var batches [][]voronoi.Site
	rq.VisitLeavesHilbert(domain, func(leaf *rtree.Node) {
		batches = append(batches, voronoi.SitesOfLeaf(leaf))
	})
	if maxUnits < 1 {
		maxUnits = 1
	}
	return splitEven(batches, maxUnits)
}

// splitEven cuts the batch sequence into min(maxUnits, len(batches))
// near-equal runs by batch count.
func splitEven(batches [][]voronoi.Site, maxUnits int) []Unit {
	n := len(batches)
	if n == 0 {
		return nil
	}
	k := maxUnits
	if k > n {
		k = n
	}
	units := make([]Unit, 0, k)
	for u := 0; u < k; u++ {
		lo, hi := u*n/k, (u+1)*n/k
		units = append(units, makeUnit(u, batches[lo:hi]))
	}
	return units
}

func makeUnit(index int, batches [][]voronoi.Site) Unit {
	points := 0
	for _, b := range batches {
		points += len(b)
	}
	return Unit{Index: index, Batches: batches, Points: points}
}
