package grid

import (
	"math"

	"cij/internal/geom"
)

// skewTargetPerCell sizes the skew histogram: coarse enough that a
// uniform dataset fills most tiles (expected occupancy ~16), fine enough
// that clustering concentrates mass into few tiles.
const skewTargetPerCell = 16

// SkewEstimate measures the spatial skew of a pointset as the
// Poisson-normalized dispersion of a coarse density histogram:
// sqrt(Var[tile count] / E[tile count]). Uniform data scatters tiles like
// a Poisson process, where variance equals mean, so the estimate sits
// near 1 regardless of cardinality; clustering concentrates points and
// drives it up without bound. The query planner uses it to decide whether
// a join is grid-friendly — the diagram grids refine until the average
// point's tile is near the target occupancy, but only up to 4n tiles, so
// heavy enough skew still piles hundreds of points into single tiles and
// degrades the backend toward its quadratic worst case. It reads the
// same tile histogram as the diagram sizing.
func SkewEstimate(pts []geom.Point, domain geom.Rect) float64 {
	if len(pts) == 0 {
		return 0
	}
	g := newTileGrid(domain, len(pts), skewTargetPerCell)
	counts := g.histogram(pts)
	mean := float64(len(pts)) / float64(len(counts))
	var ss float64
	for _, c := range counts {
		d := float64(c) - mean
		ss += d * d
	}
	variance := ss / float64(len(counts))
	return math.Sqrt(variance / mean)
}
