package grid

import (
	"math"

	"cij/internal/geom"
)

const (
	// defaultTargetPerCell sizes the joint (replicate/join) grid from data
	// density: the tile side count is chosen so that an average tile holds
	// about this many points. Small enough that per-tile work stays
	// near-linear, large enough that a tile's batch amortizes the ring
	// expansion over many cells.
	defaultTargetPerCell = 48
	// diagramTargetPerCell is the occupancy the diagram grids aim for, as
	// seen by the average point (see newDiagramGrid). A diagram batch
	// tests every member against every site of the tiles it visits, so
	// its cost is quadratic in occupancy and the target sits well below
	// the joint grid's.
	diagramTargetPerCell = 8
	// maxSide caps the tile count: beyond ~10⁶ points the per-tile batches
	// stay at the target size by capping the resolution instead of growing
	// the tile table without bound.
	maxSide = 512
	// tilePad expands tile rectangles used in geometric predicates, so that
	// the floating-point residue of bucketing (a point whose computed tile
	// index and recomputed coordinate disagree in the last ulp) can never
	// make a covering test miss the point. Domain coordinates are ~1e4, so
	// geom.Eps (1e-7) dominates any such residue by several orders.
	tilePad = geom.Eps
)

// tileGrid is a uniform nx×ny tiling of the domain rectangle. Points are
// bucketed by truncating their offset from the domain origin; out-of-range
// indices clamp to the edge tiles, so every point of the (closed) domain
// lands in exactly one tile.
type tileGrid struct {
	domain geom.Rect
	nx, ny int
	cw, ch float64 // tile width / height
}

// newTileGrid sizes a grid for n points at the given average tile
// occupancy (<= 0 selects defaultTargetPerCell).
func newTileGrid(domain geom.Rect, n, targetPerCell int) tileGrid {
	if targetPerCell <= 0 {
		targetPerCell = defaultTargetPerCell
	}
	return squareGrid(domain, int(math.Sqrt(float64(n)/float64(targetPerCell))))
}

// newDiagramGrid sizes the grid a Voronoi diagram of pts is built on. An
// average-occupancy rule fails under skew: on clustered data most points
// sit in a few crowded tiles, and a diagram batch is quadratic in its
// tile's occupancy. So the grid is sized by the point-weighted occupancy
// w = Σc²/n, the tile population the average point sees: starting from
// the average-occupancy side, while w exceeds 1.5× the target the side
// grows by sqrt(w/target), at most twice. The tile count is capped at 4n
// (a point mass or a pile of duplicates cannot be split by any
// resolution, and finer grids only add empty ring tiles) and the side at
// maxSide. targetPerCell <= 0 selects diagramTargetPerCell.
func newDiagramGrid(domain geom.Rect, pts []geom.Point, targetPerCell int) tileGrid {
	if targetPerCell <= 0 {
		targetPerCell = diagramTargetPerCell
	}
	target := float64(targetPerCell)
	sideCap := int(math.Sqrt(4 * float64(len(pts))))
	side := math.Sqrt(float64(len(pts)) / target)
	g := squareGrid(domain, min(int(side), sideCap))
	for range 2 {
		w := pointOccupancy(g.histogram(pts))
		if w <= 1.5*target {
			break
		}
		side *= math.Sqrt(w / target)
		g = squareGrid(domain, min(int(side), sideCap))
	}
	return g
}

// squareGrid tiles domain with side×side tiles, side clamped to
// [1, maxSide].
func squareGrid(domain geom.Rect, side int) tileGrid {
	side = max(1, min(side, maxSide))
	g := tileGrid{domain: domain, nx: side, ny: side}
	g.cw = domain.Width() / float64(side)
	g.ch = domain.Height() / float64(side)
	// Degenerate domains (zero extent) collapse to one tile per axis.
	if g.cw <= 0 {
		g.nx, g.cw = 1, math.Max(domain.Width(), 1)
	}
	if g.ch <= 0 {
		g.ny, g.ch = 1, math.Max(domain.Height(), 1)
	}
	return g
}

// histogram counts the points of pts in each tile: the one occupancy
// computation behind both diagram sizing and SkewEstimate.
func (g tileGrid) histogram(pts []geom.Point) []int32 {
	counts := make([]int32, g.tiles())
	for i := range pts {
		counts[g.tileOf(pts[i])]++
	}
	return counts
}

// pointOccupancy is Σc²/Σc over a tile histogram: the occupancy of the
// tile the average point sits in (0 for an empty histogram).
func pointOccupancy(counts []int32) float64 {
	var n, ss float64
	for _, c := range counts {
		n += float64(c)
		ss += float64(c) * float64(c)
	}
	if n == 0 {
		return 0
	}
	return ss / n
}

// tiles returns the tile count.
func (g tileGrid) tiles() int { return g.nx * g.ny }

// col returns the clamped column index of coordinate x.
func (g tileGrid) col(x float64) int {
	i := int((x - g.domain.MinX) / g.cw)
	if i < 0 {
		return 0
	}
	if i >= g.nx {
		return g.nx - 1
	}
	return i
}

// row returns the clamped row index of coordinate y.
func (g tileGrid) row(y float64) int {
	i := int((y - g.domain.MinY) / g.ch)
	if i < 0 {
		return 0
	}
	if i >= g.ny {
		return g.ny - 1
	}
	return i
}

// tileOf returns the linear tile index of point p.
func (g tileGrid) tileOf(p geom.Point) int { return g.row(p.Y)*g.nx + g.col(p.X) }

// tileRect returns a rectangle covering every point bucketed into tile
// (ix, iy), padded by tilePad so the cover survives bucketing round-off.
// It is the rectangle the Lemma 2 tile test (voronoi.CanRefineMBR) runs
// against, so it must never under-cover.
func (g tileGrid) tileRect(ix, iy int) geom.Rect {
	x0 := g.domain.MinX + float64(ix)*g.cw
	y0 := g.domain.MinY + float64(iy)*g.ch
	return geom.Rect{
		MinX: x0 - tilePad, MinY: y0 - tilePad,
		MaxX: x0 + g.cw + tilePad, MaxY: y0 + g.ch + tilePad,
	}
}

// rangeOf returns the inclusive tile index range covered by rectangle r
// expanded by tilePad on the max sides — the replication range of a cell
// MBR. The expansion guarantees that the reference point of any MBR pair
// that Intersects within geom.Eps tolerance still falls inside both
// cells' replication ranges (see the dedup discussion in join.go).
func (g tileGrid) rangeOf(r geom.Rect) (ix0, iy0, ix1, iy1 int) {
	return g.col(r.MinX), g.row(r.MinY), g.col(r.MaxX + tilePad), g.row(r.MaxY + tilePad)
}
