// Package check is the randomized correctness harness of the repository:
// a seeded generator of adversarial pointsets and a metamorphic oracle
// asserting that every CIJ backend — NM, PM, FM, the parallel partitioned
// engine, the in-memory grid backend and the brute-force definition —
// computes the identical pair set, plus result invariants (operand
// symmetry, translation and scale equivariance, grid-resolution
// independence) that hold for the join by definition and therefore must
// hold for every implementation of it.
//
// With five algorithms answering the same query through three different
// architectures (best-first R-tree traversal, materialized Voronoi
// R-trees, uniform-grid partitioning), hand-picked fixtures cannot cover
// the interaction space; the harness instead derives ~50 deterministic
// scenarios from fixed seeds (see check_test.go), each mixing the
// geometric degeneracies that historically break computational-geometry
// code: exact duplicate points (within and across the two sets),
// collinear runs, axis-aligned lattices, dense clusters over sparse
// backgrounds, points on the domain boundary and corners, and degenerate
// 1–3 point sets. Failures reproduce exactly from the seed printed in the
// test name.
//
// No production code imports this package: it is the test-only
// equivalence harness.
package check

import (
	"math/rand"

	"cij/internal/dataset"
	"cij/internal/geom"
)

// maxSide caps per-set cardinality: the oracle is the O(n²)-diagram,
// O(|P|·|Q|)-pair brute force, so sets stay small enough that 50 seeds of
// six backends run in seconds.
const maxSide = 120

// Pointsets is one generated scenario.
type Pointsets struct {
	P, Q []geom.Point
}

// Generate derives an adversarial scenario deterministically from seed.
func Generate(seed int64) Pointsets {
	rng := rand.New(rand.NewSource(seed))
	ps := Pointsets{P: genSet(rng), Q: genSet(rng)}
	// Cross-set duplicates: with positive probability the two sets share
	// exact points, so equal cells (and degenerate bisectors between P and
	// Q sites) occur across operands too.
	if len(ps.P) > 0 && rng.Intn(2) == 0 {
		for i := 0; i < 1+rng.Intn(3); i++ {
			ps.Q = append(ps.Q, ps.P[rng.Intn(len(ps.P))])
		}
	}
	return ps
}

// genSet builds one pointset by mixing feature generators.
func genSet(rng *rand.Rand) []geom.Point {
	// Degenerate tiny sets are a scenario of their own: 1–3 points make
	// cells cover the whole domain and exercise every empty-structure
	// path (single-leaf trees, single-tile grids, trivial partitions).
	if rng.Intn(8) == 0 {
		return uniquePoints(rng, 1+rng.Intn(3))
	}
	n := 10 + rng.Intn(maxSide-10)
	var pts []geom.Point
	for len(pts) < n {
		switch rng.Intn(5) {
		case 0: // uniform background
			pts = append(pts, randPoint(rng))
		case 1: // dense Gaussian cluster
			c := randPoint(rng)
			spread := 20 + rng.Float64()*300
			for i := 0; i < 5+rng.Intn(20) && len(pts) < n; i++ {
				pts = append(pts, clampPoint(geom.Pt(
					c.X+rng.NormFloat64()*spread,
					c.Y+rng.NormFloat64()*spread)))
			}
		case 2: // collinear run (horizontal, vertical, or sloped)
			a, b := randPoint(rng), randPoint(rng)
			switch rng.Intn(3) {
			case 0:
				b.Y = a.Y
			case 1:
				b.X = a.X
			}
			k := 3 + rng.Intn(12)
			for i := 0; i <= k && len(pts) < n; i++ {
				t := float64(i) / float64(k)
				pts = append(pts, geom.Pt(a.X+t*(b.X-a.X), a.Y+t*(b.Y-a.Y)))
			}
		case 3: // axis-aligned lattice patch (equidistant ties everywhere)
			o := randPoint(rng)
			step := 50 + rng.Float64()*400
			w := 2 + rng.Intn(4)
			for i := 0; i < w*w && len(pts) < n; i++ {
				pts = append(pts, clampPoint(geom.Pt(
					o.X+float64(i%w)*step,
					o.Y+float64(i/w)*step)))
			}
		case 4: // domain boundary and corners
			switch rng.Intn(3) {
			case 0:
				pts = append(pts, geom.Pt(edgeCoord(rng), dataset.Domain.MinY))
			case 1:
				pts = append(pts, geom.Pt(dataset.Domain.MaxX, edgeCoord(rng)))
			default:
				c := dataset.Domain.Corners()
				pts = append(pts, c[rng.Intn(4)])
			}
		}
		// Exact in-set duplicates, sprinkled as the set grows.
		if len(pts) > 0 && rng.Intn(6) == 0 {
			pts = append(pts, pts[rng.Intn(len(pts))])
		}
	}
	return pts[:n]
}

// uniquePoints draws n distinct uniform points (degenerate-set scenario).
func uniquePoints(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = randPoint(rng)
	}
	return pts
}

func randPoint(rng *rand.Rand) geom.Point {
	return geom.Pt(
		dataset.Domain.MinX+rng.Float64()*dataset.Domain.Width(),
		dataset.Domain.MinY+rng.Float64()*dataset.Domain.Height(),
	)
}

func edgeCoord(rng *rand.Rand) float64 {
	return dataset.Domain.MinX + rng.Float64()*dataset.Domain.Width()
}

func clampPoint(p geom.Point) geom.Point {
	return geom.Pt(
		geom.Clamp(p.X, dataset.Domain.MinX, dataset.Domain.MaxX),
		geom.Clamp(p.Y, dataset.Domain.MinY, dataset.Domain.MaxY),
	)
}
