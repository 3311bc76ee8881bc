package grid

import (
	"math"
	"math/rand"
	"testing"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/geom"
)

// runBoth computes the grid join and the brute-force oracle on the same
// inputs and fails the test unless the pair sets agree.
func requireMatchesBrute(t *testing.T, name string, p, q []geom.Point, opts Options) core.Result {
	t.Helper()
	res := Join(p, q, dataset.Domain, opts)
	want := core.BruteCIJ(p, q, dataset.Domain)
	if !core.SamePairs(res.Pairs, want) {
		t.Fatalf("%s: grid=%d pairs brute=%d pairs\nmissing=%v\nextra=%v",
			name, len(res.Pairs), len(want),
			core.DiffPairs(want, res.Pairs), core.DiffPairs(res.Pairs, want))
	}
	return res
}

func TestJoinMatchesBruteUniform(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 150, 600} {
		p := dataset.Uniform(n, int64(n))
		q := dataset.Uniform(n, int64(n)+1000)
		requireMatchesBrute(t, "uniform", p, q, DefaultOptions())
	}
}

func TestJoinMatchesBruteClustered(t *testing.T) {
	p := dataset.Clustered(400, 7, 11)
	q := dataset.Clustered(500, 5, 12)
	requireMatchesBrute(t, "clustered", p, q, DefaultOptions())
}

func TestJoinAsymmetricCardinalities(t *testing.T) {
	p := dataset.Uniform(800, 21)
	q := dataset.Uniform(50, 22)
	requireMatchesBrute(t, "800x50", p, q, DefaultOptions())
	requireMatchesBrute(t, "50x800", q, p, DefaultOptions())
}

func TestJoinEmptyInputs(t *testing.T) {
	p := dataset.Uniform(10, 1)
	if res := Join(nil, p, dataset.Domain, DefaultOptions()); len(res.Pairs) != 0 {
		t.Fatalf("empty P joined %d pairs", len(res.Pairs))
	}
	if res := Join(p, nil, dataset.Domain, DefaultOptions()); len(res.Pairs) != 0 {
		t.Fatalf("empty Q joined %d pairs", len(res.Pairs))
	}
}

// TestDedupBoundaryStraddlers is the regression test for the PBSM
// reference-point rule: points are planted right next to tile boundary
// lines at a forced-fine resolution, so nearly every Voronoi cell MBR is
// replicated into several tiles, and any dedup defect shows up as a
// duplicated (or missing) pair in the emitted multiset.
func TestDedupBoundaryStraddlers(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	g := newTileGrid(dataset.Domain, 256, 1) // the resolution a 256-point set gets at TargetPerCell 1
	var p, q []geom.Point
	for i := 0; i < 128; i++ {
		// A point a hair away from a random vertical tile line, and one
		// near a horizontal line; the cell around each straddles the line.
		lineX := dataset.Domain.MinX + float64(rng.Intn(g.nx))*g.cw
		lineY := dataset.Domain.MinY + float64(rng.Intn(g.ny))*g.ch
		off := (rng.Float64() - 0.5) * g.cw * 0.01
		p = append(p, geom.Pt(geom.Clamp(lineX+off, dataset.Domain.MinX, dataset.Domain.MaxX), rng.Float64()*dataset.Domain.MaxY))
		q = append(q, geom.Pt(rng.Float64()*dataset.Domain.MaxX, geom.Clamp(lineY+off, dataset.Domain.MinY, dataset.Domain.MaxY)))
	}

	opts := Options{TargetPerCell: 1, CollectPairs: true}
	var emitted []core.Pair
	opts.OnPair = func(pr core.Pair) { emitted = append(emitted, pr) }
	res := requireMatchesBrute(t, "straddlers", p, q, opts)

	seen := make(map[core.Pair]int)
	for _, pr := range emitted {
		seen[pr]++
		if seen[pr] > 1 {
			t.Fatalf("pair %v emitted %d times: dedup failed", pr, seen[pr])
		}
	}
	if len(emitted) != len(res.Pairs) {
		t.Fatalf("OnPair saw %d pairs, Result.Pairs has %d", len(emitted), len(res.Pairs))
	}
}

// TestResolutionIndependence pins the documented contract that the pair
// set does not depend on the grid resolution: replication and dedup must
// hide the partitioning entirely.
func TestResolutionIndependence(t *testing.T) {
	p := dataset.Clustered(300, 6, 31)
	q := dataset.Uniform(300, 32)
	base := Join(p, q, dataset.Domain, DefaultOptions())
	for _, target := range []int{1, 7, 500} {
		res := Join(p, q, dataset.Domain, Options{TargetPerCell: target, CollectPairs: true})
		if !core.SamePairs(base.Pairs, res.Pairs) {
			t.Fatalf("target %d: %d pairs, default resolution %d", target, len(res.Pairs), len(base.Pairs))
		}
	}
}

func TestDuplicateAndCollinearPoints(t *testing.T) {
	p := dataset.Uniform(60, 77)
	p = append(p, p[:10]...) // exact duplicates within the set
	var q []geom.Point
	for i := 0; i < 40; i++ { // collinear run straight across the domain
		q = append(q, geom.Pt(250*float64(i)+100, 5000))
	}
	q = append(q, p[5]) // duplicate across sets
	requireMatchesBrute(t, "dups+collinear", p, q, DefaultOptions())
}

// pointMass is one tight Gaussian (σ = 100) at the domain center, the
// point-mass series of the cijbench grid crossover: virtually every point
// shares a handful of average-sized tiles.
func pointMass(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	c := dataset.Domain.Center()
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(
			geom.Clamp(c.X+rng.NormFloat64()*100, dataset.Domain.MinX, dataset.Domain.MaxX),
			geom.Clamp(c.Y+rng.NormFloat64()*100, dataset.Domain.MinY, dataset.Domain.MaxY))
	}
	return pts
}

// TestDiagramGridOccupancy gates the diagram-grid sizing on a
// deterministic counter: the point-weighted occupancy Σc²/n of the chosen
// grid stays within twice the target unless a cap (4n tiles, maxSide)
// binds, and the tile count never exceeds 4n.
func TestDiagramGridOccupancy(t *testing.T) {
	const n = 8000
	for _, tc := range []struct {
		name string
		pts  []geom.Point
	}{
		{"uniform", dataset.Uniform(n, 1)},
		{"clustered", dataset.Clustered(n, 20, 2)},
		{"pointmass", pointMass(n, 3)},
	} {
		g := newDiagramGrid(dataset.Domain, tc.pts, 0)
		w := pointOccupancy(g.histogram(tc.pts))
		capped := g.nx >= min(int(math.Sqrt(4*n)), maxSide)
		t.Logf("%s: side %d, tiles %d, Σc²/n %.1f, capped %v", tc.name, g.nx, g.tiles(), w, capped)
		if g.tiles() > 4*n {
			t.Errorf("%s: %d tiles for %d points, cap is 4n", tc.name, g.tiles(), n)
		}
		if !capped && w > 2*diagramTargetPerCell {
			t.Errorf("%s: Σc²/n = %.1f above 2×target %d with no cap binding", tc.name, w, diagramTargetPerCell)
		}
	}
}

// TestJoinMatchesBruteAtCaps runs inputs whose diagram grids hit the 4n
// tile cap: a point mass, and a pile of exact duplicates that no
// resolution can split.
func TestJoinMatchesBruteAtCaps(t *testing.T) {
	requireMatchesBrute(t, "pointmass", pointMass(600, 41), pointMass(600, 42), DefaultOptions())

	pile := dataset.Uniform(100, 43)
	for i := 0; i < 300; i++ {
		pile = append(pile, geom.Pt(4321.5, 6789.25))
	}
	requireMatchesBrute(t, "duplicate pile", pile, dataset.Uniform(400, 44), DefaultOptions())
	requireMatchesBrute(t, "duplicate pile as Q", dataset.Uniform(400, 44), pile, DefaultOptions())
	for _, pts := range [][]geom.Point{pointMass(600, 41), pile} {
		g := newDiagramGrid(dataset.Domain, pts, 0)
		if want := int(math.Sqrt(4 * float64(len(pts)))); g.nx != want {
			t.Errorf("%d points: diagram side %d, want the 4n cap %d", len(pts), g.nx, want)
		}
	}
}

func TestSkewEstimate(t *testing.T) {
	uni := SkewEstimate(dataset.Uniform(20000, 9), dataset.Domain)
	if uni > 1.5 {
		t.Fatalf("uniform skew estimate %.2f, want ~1", uni)
	}
	clu := SkewEstimate(dataset.Clustered(20000, 12, 9), dataset.Domain)
	if clu < 3 {
		t.Fatalf("clustered skew estimate %.2f, want >> 1", clu)
	}
	if got := SkewEstimate(nil, dataset.Domain); got != 0 {
		t.Fatalf("empty skew = %v, want 0", got)
	}
}

func BenchmarkGridJoinUniform(b *testing.B) {
	p := dataset.Uniform(20000, 1)
	q := dataset.Uniform(20000, 2)
	opts := Options{} // count only
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Join(p, q, dataset.Domain, opts)
	}
}

// BenchmarkGridJoinClustered is the live_churn join shape: a uniform side
// against a 20-cluster side, where diagram sizing decides the cost.
func BenchmarkGridJoinClustered(b *testing.B) {
	p := dataset.Uniform(8000, 1)
	q := dataset.Clustered(8000, 20, 2)
	opts := Options{} // count only
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Join(p, q, dataset.Domain, opts)
	}
}
