// The grid crossover experiment (cijbench -exp grid): the partitioned
// in-memory backend of internal/grid against serial NM-CIJ on the same
// pointsets, across cardinalities and distributions. It extends the
// paper's evaluation with the question the ROADMAP's multi-backend goal
// raises — when does partition-based in-memory evaluation beat index
// traversal? — and prints the crossover table the planner's routing
// thresholds are anchored to.
package exp

import (
	"fmt"
	"math/rand"
	"time"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/geom"
	"cij/internal/grid"
)

// DefaultGridSizes is the cardinality sweep of the crossover experiment
// (per side, before -scale).
var DefaultGridSizes = []int{2_000, 10_000, 40_000, 100_000}

// GridDistributions names the pointset distributions the crossover runs
// on: the near-uniform case the grid backend is built for, the ordinary
// clustered case that stresses its tiling but still favors it, and the
// near-point-mass case (one tight Gaussian) where the uniform grid
// degenerates toward quadratic and NM-CIJ wins — the regime behind the
// planner's skew gate.
var GridDistributions = []string{"uniform", "clustered", "pointmass"}

// GridRow is one (distribution, cardinality) cell of the crossover sweep.
type GridRow struct {
	Dist  string
	N     int
	Pairs int64
	Skew  float64 // planner's estimate on the P side
	// Wall-clock milliseconds of each backend on identical inputs.
	GridMS float64
	NMMS   float64
	// Speedup is NM/grid wall time: > 1 where the in-memory backend wins.
	Speedup float64
	// NMPages is NM-CIJ's physical I/O (the grid backend performs none).
	NMPages int64
}

// genGridSet materializes one side of a crossover input.
func genGridSet(dist string, n int, seed int64) []geom.Point {
	switch dist {
	case "clustered":
		return dataset.Clustered(n, 1+n/1500, seed)
	case "pointmass":
		// One tight Gaussian at the domain center: virtually all points
		// share a handful of grid tiles (skew estimate ~60).
		rng := rand.New(rand.NewSource(seed))
		pts := make([]geom.Point, n)
		c := Domain.Center()
		for i := range pts {
			pts[i] = geom.Pt(
				geom.Clamp(c.X+rng.NormFloat64()*100, Domain.MinX, Domain.MaxX),
				geom.Clamp(c.Y+rng.NormFloat64()*100, Domain.MinY, Domain.MaxY))
		}
		return pts
	default:
		return dataset.Uniform(n, seed)
	}
}

// RunGridCrossover measures grid vs NM-CIJ over sizes × distributions.
// Both backends run with pair collection off and a counting OnPair, so
// the comparison is pure evaluation cost.
func RunGridCrossover(sizes []int, bufferPct float64, seed int64) []GridRow {
	var rows []GridRow
	for _, dist := range GridDistributions {
		for _, n := range sizes {
			p := genGridSet(dist, n, seed)
			q := genGridSet(dist, n, seed+1)

			gOpts := grid.DefaultOptions()
			gOpts.CollectPairs = false
			var gridPairs int64
			gOpts.OnPair = func(core.Pair) { gridPairs++ }
			gridStart := time.Now()
			grid.Join(p, q, Domain, gOpts)
			gridWall := time.Since(gridStart)

			env := BuildEnv(p, q, DefaultPageSize, bufferPct)
			nOpts := core.DefaultOptions()
			nOpts.CollectPairs = false
			var nmPairs int64
			nOpts.OnPair = func(core.Pair) { nmPairs++ }
			nmStart := time.Now()
			nmRes := core.NMCIJ(env.RP, env.RQ, Domain, nOpts)
			nmWall := time.Since(nmStart)

			if gridPairs != nmPairs {
				// The equivalence suite guards this; a drift here means the
				// benchmark itself is broken, so fail loudly rather than
				// record garbage.
				panic(fmt.Sprintf("exp: grid/%s n=%d produced %d pairs, NM %d", dist, n, gridPairs, nmPairs))
			}
			row := GridRow{
				Dist:    dist,
				N:       n,
				Pairs:   gridPairs,
				Skew:    grid.SkewEstimate(p, Domain),
				GridMS:  float64(gridWall) / float64(time.Millisecond),
				NMMS:    float64(nmWall) / float64(time.Millisecond),
				NMPages: nmRes.Stats.PageAccesses(),
			}
			if row.GridMS > 0 {
				row.Speedup = row.NMMS / row.GridMS
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// TableGrid renders the crossover sweep.
func TableGrid(rows []GridRow) Table {
	t := Table{
		Title:   "Grid backend vs NM-CIJ — wall clock by distribution and cardinality",
		Columns: []string{"dist", "n", "skew", "pairs", "grid ms", "nm ms", "nm/grid", "nm pages"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Dist, formatK(r.N),
			fmt.Sprintf("%.2f", r.Skew),
			fmt.Sprintf("%d", r.Pairs),
			fmt.Sprintf("%.1f", r.GridMS),
			fmt.Sprintf("%.1f", r.NMMS),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%d", r.NMPages),
		})
	}
	return t
}
