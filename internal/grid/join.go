package grid

import (
	"time"

	"cij/internal/core"
	"cij/internal/geom"
	"cij/internal/obs"
	"cij/internal/voronoi"
)

// Options tunes a grid join.
type Options struct {
	// TargetPerCell, when > 0, overrides the tile occupancy all three
	// grids are sized for: the average occupancy of the joint grid
	// (default 48) and the point-weighted occupancy of the two diagram
	// grids (default 8, see newDiagramGrid). The result pair set is
	// independent of this value — only the partitioning (and therefore
	// the cost profile) changes, a property the test suite pins.
	TargetPerCell int
	// OnPair, when non-nil, streams every result pair as it is produced
	// (in deterministic tile order on the calling goroutine).
	OnPair func(core.Pair)
	// CollectPairs controls whether Result.Pairs is populated.
	CollectPairs bool
	// Trace, when non-nil, receives per-phase spans: "voronoi" (tagged
	// "p"/"q") for the diagram builds, "replicate" for the PBSM tiling,
	// one "tile" span carrying the summed wall and the Candidates/TrueHits
	// of every tile with work on both sides, and an aggregate "join" span
	// over the whole tile loop. The span count is fixed, so nothing folds
	// into the trace's overflow spans. The backend performs no I/O, so
	// spans carry only wall clock and the filter-quality counters. Nil
	// costs nothing.
	Trace *obs.Trace
}

// DefaultOptions mirrors core.DefaultOptions for the grid backend: pairs
// collected, density-derived resolution.
func DefaultOptions() Options {
	return Options{CollectPairs: true}
}

// Join evaluates CIJ(P, Q) with the partitioned in-memory backend and
// returns a result equivalent (as a pair set) to core.NMCIJ over R-trees
// on the same pointsets. No index and no simulated disk are involved:
// both Voronoi diagrams are computed through the uniform grid
// (buildDiagram), cells are replicated into the tiles of a joint grid by
// MBR (the PBSM partitioning step), and each tile joins its resident
// P- and Q-cells with the shared predicate core.CellsJoinWith. A pair
// whose cells straddle tiles is seen by several tiles; the reference-point
// rule in joinTiles reports it exactly once.
//
// Stats mapping: MatCPU is the diagram-building phase, JoinCPU the
// replicate+join phase; both I/O counters stay zero (the backend performs
// none, which is its point). Candidates counts deduplicated cell pairs
// that survived the MBR prefilter, TrueHits the pairs that joined, so
// FalseHitRatio describes the grid filter exactly as it does the NM-CIJ
// filter. PCellsComputed is |P| — the backend materializes Vor(P) in full.
func Join(p, q []geom.Point, domain geom.Rect, opts Options) core.Result {
	start := time.Now()
	var res core.Result
	res.Stats.PCellsComputed = int64(len(p))
	if len(p) == 0 || len(q) == 0 {
		res.Stats.JoinCPU = time.Since(start)
		return res
	}

	tr := opts.Trace
	var ds diagramScratch
	phaseStart := start
	cellsP := buildDiagram(voronoi.MakeSites(p), newDiagramGrid(domain, p, opts.TargetPerCell), &ds)
	if tr.Enabled() {
		// PCells rides the P span only, so the trace total matches
		// Stats.PCellsComputed; the Q diagram reports plain item count.
		now := time.Now()
		tr.Add("voronoi", "p", now.Sub(phaseStart), obs.Counters{PCells: int64(len(p))})
		phaseStart = now
	}
	cellsQ := buildDiagram(voronoi.MakeSites(q), newDiagramGrid(domain, q, opts.TargetPerCell), &ds)
	if tr.Enabled() {
		tr.Add("voronoi", "q", time.Since(phaseStart), obs.Counters{Items: int64(len(q))})
	}
	res.Stats.MatCPU = time.Since(start)

	joinStart := time.Now()
	g := newTileGrid(domain, len(p)+len(q), opts.TargetPerCell)
	repP := replicate(cellsP, g)
	repQ := replicate(cellsQ, g)
	if tr.Enabled() {
		tr.Add("replicate", "", time.Since(joinStart), obs.Counters{Items: int64(g.tiles())})
		phaseStart = time.Now()
	}
	joinTiles(g, cellsP, cellsQ, repP, repQ, opts, &res)
	if tr.Enabled() {
		// Aggregate span over the tile loop; its wall overlaps the tile
		// span (which carries the Candidates/TrueHits), so it adds no
		// counters beyond the tile count.
		tr.Add("join", "", time.Since(phaseStart), obs.Counters{Items: int64(g.tiles())})
	}
	res.Stats.JoinCPU = time.Since(joinStart)
	return res
}

// replicate assigns every cell to each tile of g that its MBR overlaps —
// the PBSM replication step, in the same CSR layout as point bucketing.
// Empty cells (possible only for degenerate inputs) are dropped here,
// matching the join predicate, which can never accept them.
func replicate(cells []cellInfo, g tileGrid) buckets {
	b := buckets{start: make([]int32, g.tiles()+1)}
	total := 0
	for i := range cells {
		if cells[i].poly.IsEmpty() {
			continue
		}
		ix0, iy0, ix1, iy1 := g.rangeOf(cells[i].bounds)
		for iy := iy0; iy <= iy1; iy++ {
			for ix := ix0; ix <= ix1; ix++ {
				b.start[iy*g.nx+ix+1]++
				total++
			}
		}
	}
	for t := 1; t < len(b.start); t++ {
		b.start[t] += b.start[t-1]
	}
	b.ids = make([]int32, total)
	next := append([]int32(nil), b.start[:g.tiles()]...)
	for i := range cells {
		if cells[i].poly.IsEmpty() {
			continue
		}
		ix0, iy0, ix1, iy1 := g.rangeOf(cells[i].bounds)
		for iy := iy0; iy <= iy1; iy++ {
			for ix := ix0; ix <= ix1; ix++ {
				t := iy*g.nx + ix
				b.ids[next[t]] = int32(i)
				next[t]++
			}
		}
	}
	return b
}

// joinTiles runs the per-tile joins. Deduplication uses the PBSM
// reference-point rule: a candidate pair is evaluated only in the tile
// containing the bottom-left corner of its MBR intersection
// (max of the MinX/MinY coordinates). That corner lies in both cells'
// replication ranges — rangeOf expands the max sides by the same tilePad
// slack the MBR Intersects tolerance can introduce — so of all tiles that
// see the pair, exactly one owns it, and no cross-tile state is needed.
func joinTiles(g tileGrid, cellsP, cellsQ []cellInfo, repP, repQ buckets, opts Options, res *core.Result) {
	tr := opts.Trace
	var cl geom.Clipper
	var tileWall time.Duration
	var busyTiles int64
	for t := 0; t < g.tiles(); t++ {
		ps := repP.ids[repP.start[t]:repP.start[t+1]]
		qs := repQ.ids[repQ.start[t]:repQ.start[t+1]]
		if len(ps) == 0 || len(qs) == 0 {
			continue
		}
		var tileStart time.Time
		if tr.Enabled() {
			tileStart = time.Now()
		}
		tx, ty := t%g.nx, t/g.nx
		for _, pi := range ps {
			a := &cellsP[pi]
			for _, qi := range qs {
				b := &cellsQ[qi]
				if !a.bounds.Intersects(b.bounds) {
					continue
				}
				refX := max(a.bounds.MinX, b.bounds.MinX)
				refY := max(a.bounds.MinY, b.bounds.MinY)
				if g.col(refX) != tx || g.row(refY) != ty {
					continue // another tile owns this pair
				}
				res.Stats.Candidates++
				if core.CellsJoinWith(&cl, a.poly, b.poly) {
					res.Stats.TrueHits++
					pair := core.Pair{P: a.site.ID, Q: b.site.ID}
					if opts.CollectPairs {
						res.Pairs = append(res.Pairs, pair)
					}
					if opts.OnPair != nil {
						opts.OnPair(pair)
					}
				}
			}
		}
		if tr.Enabled() {
			tileWall += time.Since(tileStart)
			busyTiles++
		}
	}
	if tr.Enabled() {
		tr.Add("tile", "", tileWall, obs.Counters{
			Candidates: res.Stats.Candidates,
			TrueHits:   res.Stats.TrueHits,
			Items:      busyTiles,
		})
	}
}
