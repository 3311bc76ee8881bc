package core

import (
	"math"
	"time"

	"cij/internal/geom"
	"cij/internal/obs"
	"cij/internal/pq"
	"cij/internal/rtree"
	"cij/internal/storage"
	"cij/internal/voronoi"
)

// NMCIJ evaluates the common influence join with the No Materialization
// algorithm (Algorithm 6), the paper's best method. The tree of Q is
// traversed leaf by leaf in Hilbert order; for each leaf:
//
//  1. the Voronoi cells of its points are computed in batch (Algorithm 2);
//  2. a conditional filter (Algorithm 5) traverses the ORIGINAL tree of P
//     and collects the candidate set CP of points whose cells may
//     intersect any cell of the batch, pruning subtrees with the Φ(L,p)
//     geometric test (Lemma 3);
//  3. the exact cells of the candidates are computed on demand — reusing
//     cells cached from the previous batch (Section IV-B) — and tested
//     against the batch's cells.
//
// Nothing is materialized, no Voronoi R-tree is built, and pairs stream
// out from the very first batch: the algorithm is non-blocking (Fig. 9b)
// and its I/O converges to the lower bound of one traversal per tree
// (Fig. 8).
func NMCIJ(rp, rq *rtree.Tree, domain geom.Rect, opts Options) Result {
	buf := rp.Buffer()
	col := newCollector(opts, buf)
	cpuStart := time.Now()

	pipeline := NewBatchPipeline(rp, rq, domain, opts.Reuse)
	tr := opts.Trace
	pipeline.SetTrace(tr, "")
	visit := func(fn func(*rtree.Node)) { rq.VisitLeavesHilbert(domain, fn) }
	if opts.PlainVisitOrder {
		visit = rq.VisitLeaves
	}
	// Traverse spans cover the gaps between batches — the leaf traversal's
	// own page reads happen between ProcessBatch calls, so chaining a
	// boundary point across the callback keeps every page of the run
	// attributed to exactly one span.
	var tp phasePoint
	if tr.Enabled() {
		tp = markPhase(rp, rq)
	}
	var sites []voronoi.Site // reused across leaves; ProcessBatch does not retain it
	visit(func(leaf *rtree.Node) {
		if tr.Enabled() {
			tp = endPhase(tr, "", tp, rp, rq, "traverse", obs.Counters{Items: 1})
		}
		sites = voronoi.AppendSites(sites[:0], leaf)
		pipeline.ProcessBatch(sites, col.emit)
		col.sample()
		if tr.Enabled() {
			tp = markPhase(rp, rq)
		}
	})
	if tr.Enabled() {
		endPhase(tr, "", tp, rp, rq, "traverse", obs.Counters{})
	}

	stats := pipeline.FilterStats()
	stats.Join = buf.Stats().Sub(col.base)
	stats.JoinCPU = time.Since(cpuStart)
	stats.Progress = col.prog
	return Result{Pairs: col.pairs, Stats: stats}
}

// run is Algorithm 5 generalized to a group of convex polygons (the
// "Batch conditional filter" of Section IV-A): it traverses the R-tree of
// P best-first from the group's centroid and returns the candidate points
// whose Voronoi cells may intersect any polygon of the group. The
// returned slice is the scratch's candidate buffer, valid until the next
// run on the same scratch.
func (fs *filterScratch) run(rp *rtree.Tree, group []cellRecord, domain geom.Rect) []voronoi.Site {
	fs.cp = fs.cp[:0]
	fs.cpx = fs.cpx[:0]
	fs.cpy = fs.cpy[:0]
	if len(group) == 0 || rp.Root() == storage.InvalidPage {
		return fs.cp
	}
	// Anchor: centroid of the group's cell centroids; window: the MBR of
	// the whole group (used for cheap early tests).
	fs.cents = fs.cents[:0]
	window := geom.EmptyRect()
	for i := range group {
		fs.cents = append(fs.cents, group[i].poly.Centroid())
		window = window.Union(group[i].bounds)
	}
	anchor := geom.Centroid(fs.cents)
	fs.winCorners = window.Corners()

	fs.pruneHint = -1
	for i := range fs.killers {
		fs.killers[i] = -1
	}

	q := &fs.q
	q.Reset()
	q.PushNode(rp.ReadNode(rp.Root()), anchor)
	for q.Len() > 0 {
		e := q.Pop()
		if e.Leaf {
			p := voronoi.Site{ID: e.Ref, Pt: e.Pt()}
			if fs.approxCellIntersectsGroup(p, fs.cp, group, window, domain) {
				fs.cp = append(fs.cp, p)
				fs.cpx = append(fs.cpx, p.Pt.X)
				fs.cpy = append(fs.cpy, p.Pt.Y)
			}
			continue
		}
		if fs.canPruneSubtree(e.MBR, fs.cp, group, window) {
			continue
		}
		q.PushNode(rp.ReadNode(e.Child()), anchor)
	}
	return fs.cp
}

// filterScratch holds the reusable state of the conditional filter: the
// best-first queue, the candidate set and the buffers of the per-point
// approximate-cell test, the innermost loop of the filter.
type filterScratch struct {
	q          pq.Queue
	cp         []voronoi.Site
	cents      []geom.Point
	winCorners [4]geom.Point
	clip       geom.Clipper
	ord        []float64 // squared distance of each candidate to the probe
	cpx, cpy   []float64 // candidate coordinates, parallel to cp (scan locality)

	// pruneHint is the index into cp of the candidate that most recently
	// certified a subtree prune. Consecutive queue pops are spatially
	// adjacent, so the same candidate tends to keep pruning; trying it
	// first turns the existential scan of canPruneSubtree into a
	// single-candidate test most of the time. Reset per run (cp indexes
	// are only stable within one run).
	pruneHint int
	// killers are the indexes into cp of the candidates whose bisectors
	// most recently rejected probe points, most recent first; see the
	// separating-bisector fast path of approxCellIntersectsGroup. Reset
	// per run. A small ring instead of one slot: probes near a window
	// corner alternate between a few separators.
	killers [8]int
}

// pushKiller records idx as the most recent separating candidate, moving
// it to the front if already present so the ring holds distinct
// candidates (duplicates would silently shrink its effective size).
func (fs *filterScratch) pushKiller(idx int) {
	pos := len(fs.killers) - 1
	for k, v := range fs.killers {
		if v == idx {
			pos = k
			break
		}
	}
	copy(fs.killers[1:pos+1], fs.killers[:pos])
	fs.killers[0] = idx
}

// candDist is one slot of the nearest-candidate selection.
type candDist struct {
	d   float64
	idx int
}

// killerMargin is the geometric separation (in domain units) the
// separating-bisector fast path demands between the group window and a
// candidate's bisector halfplane before rejecting a probe point without
// building its cell. It sits three orders of magnitude above geom.Eps
// (the clipping and SAT tolerance), so the short-cut verdict can never
// disagree with the clip-and-test verdict it replaces, and eight orders
// below the domain width, so it fires for essentially every genuinely
// separated probe.
const killerMargin = 1e-4

// approxCellIntersectsGroup computes the approximate Voronoi cell
// V(p, CP) — the cell of p with respect to the current candidate set only,
// a superset of the true V(p, P) — and reports whether it intersects any
// polygon of the group. Candidates are applied nearest-first so the cell
// shrinks quickly, with a periodic early exit as soon as it leaves the
// group window.
//
// Fast path: the cell of p is contained in the bisector halfplane of
// (p, c) for EVERY candidate c, so if one candidate's bisector strictly
// separates p from the whole group window, the cell cannot reach any
// group polygon and the answer is false before any clipping. The
// candidate that last rejected a probe this way (fs.killer) is tried
// first — consecutive probes are spatially adjacent, so one "killer"
// candidate typically rejects long runs of them.
func (fs *filterScratch) approxCellIntersectsGroup(p voronoi.Site, cp []voronoi.Site, group []cellRecord, window geom.Rect, domain geom.Rect) bool {
	for k := 0; k < len(fs.killers); k++ {
		idx := fs.killers[k]
		if idx < 0 || idx >= len(cp) {
			continue
		}
		if fs.bisectorSeparatesWindow(p.Pt, cp[idx].Pt) {
			if k != 0 {
				copy(fs.killers[1:k+1], fs.killers[:k])
				fs.killers[0] = idx
			}
			return false
		}
	}
	cell := fs.clip.Seed(domain)
	if len(cp) > 0 {
		// One pass over the candidate set: cache every squared distance
		// (the tail scan below needs them) and keep the nearestK closest
		// candidates in a small insertion-sorted array. The nearest
		// candidates do all the shrinking; once the cell is tight the
		// remaining clips are no-ops, so their order is irrelevant.
		const nearestK = 12
		if cap(fs.ord) < len(cp) {
			fs.ord = make([]float64, len(cp))
		}
		fs.ord = fs.ord[:len(cp)]
		var sel [nearestK]candDist
		nsel := 0
		px, py := p.Pt.X, p.Pt.Y
		cpx, cpy := fs.cpx[:len(cp)], fs.cpy[:len(cp)]
		for i := range cpx {
			dx, dy := cpx[i]-px, cpy[i]-py
			d := dx*dx + dy*dy
			fs.ord[i] = d
			if nsel < nearestK {
				j := nsel
				for j > 0 && sel[j-1].d > d {
					sel[j] = sel[j-1]
					j--
				}
				sel[j] = candDist{d: d, idx: i}
				nsel++
			} else if d < sel[nearestK-1].d {
				j := nearestK - 1
				for j > 0 && sel[j-1].d > d {
					sel[j] = sel[j-1]
					j--
				}
				sel[j] = candDist{d: d, idx: i}
			}
		}
		// rad2 is the squared circumradius of the current cell around p: a
		// candidate at distance ≥ 2·radius cannot cut the cell (triangle
		// inequality on Lemma 1), so after the nearest candidates have
		// tightened the cell, the — mostly distant — rest of the set is
		// dismissed with one comparison each.
		// Before clipping, give the nearest candidates a chance to reject p
		// outright: each bisector is a proven upper bound on the cell, so a
		// separating one ends the test in O(1). Whichever candidate fires
		// becomes the killer hint for the following probes.
		for s := 0; s < nsel && s < 4; s++ {
			if idx := sel[s].idx; fs.bisectorSeparatesWindow(p.Pt, cp[idx].Pt) {
				fs.pushKiller(idx)
				return false
			}
		}
		rad2 := geom.MaxDist2(cell.V, p.Pt)
		clips := 0
		for s := 0; s < nsel; s++ {
			idx := sel[s].idx
			fs.ord[idx] = math.Inf(1) // consumed; the tail scan skips it
			if sel[s].d >= 4*rad2 {
				continue
			}
			c := cp[idx]
			if c.Pt.Eq(p.Pt) {
				continue
			}
			// CanRefinePoint is the clip's own vertex prescan without the
			// bisector construction: candidates that cannot cut skip the
			// halfplane and its sqrt entirely. A within-tolerance pass
			// re-emits the identical ring, so everything downstream stays
			// bit-equal.
			if !voronoi.CanRefinePoint(cell.V, p.Pt, c.Pt, rad2) {
				continue
			}
			cell = fs.clip.Clip(cell, geom.Bisector(p.Pt, c.Pt))
			if cell.IsEmpty() {
				fs.pushKiller(idx)
				return false
			}
			rad2 = geom.MaxDist2(cell.V, p.Pt)
			clips++
			if clips%4 == 0 && !cell.Bounds().Intersects(window) {
				fs.pushKiller(idx)
				return false
			}
		}
		for i, d := range fs.ord {
			if d >= 4*rad2 {
				continue
			}
			c := cp[i]
			if c.Pt.Eq(p.Pt) {
				continue
			}
			if !voronoi.CanRefinePoint(cell.V, p.Pt, c.Pt, rad2) {
				continue
			}
			cell = fs.clip.Clip(cell, geom.Bisector(p.Pt, c.Pt))
			if cell.IsEmpty() {
				fs.pushKiller(i)
				return false
			}
			rad2 = geom.MaxDist2(cell.V, p.Pt)
			clips++
			if clips%4 == 0 && !cell.Bounds().Intersects(window) {
				fs.pushKiller(i)
				return false
			}
		}
	}
	cellBounds := cell.Bounds()
	if !cellBounds.Intersects(window) {
		return false
	}
	for i := range group {
		if cellBounds.Intersects(group[i].bounds) && cell.IntersectsSAT(group[i].poly) {
			return true
		}
	}
	return false
}

// bisectorSeparatesWindow reports whether the bisector halfplane of
// (p, c) — which contains every cell of p no matter what else clips it —
// leaves the whole group window at least killerMargin away on c's side.
// When it does, no cell of p can touch any group polygon (they all lie in
// the window), so the probe is rejected without any clipping. The margin
// keeps the verdict strictly inside what the clip-and-SAT path would also
// reject: the clipped cell respects the halfplane within geom.Eps, three
// orders of magnitude tighter than the demanded separation.
func (fs *filterScratch) bisectorSeparatesWindow(p, c geom.Point) bool {
	if c.Eq(p) {
		return false
	}
	// Inlined Bisector without the normal-length sqrt: the margin compare
	// Side > killerMargin·max(1,|N|) is evaluated on squares instead.
	nx, ny := 2*(c.X-p.X), 2*(c.Y-p.Y)
	cc := c.X*c.X + c.Y*c.Y - p.X*p.X - p.Y*p.Y
	n2 := nx*nx + ny*ny
	m2 := killerMargin * killerMargin
	if n2 > 1 {
		m2 *= n2
	}
	for _, w := range fs.winCorners {
		// side > 0 means w is closer to c than to p; the window is convex,
		// so corner sidedness bounds every window point.
		side := nx*w.X + ny*w.Y - cc
		if side <= 0 || side*side <= m2 {
			return false
		}
	}
	return true
}

// canPruneSubtree applies the geometric pruning of Section IV-A: a
// non-leaf entry with MBR r can be pruned iff no polygon of the group
// intersects r and there is a candidate p such that every group polygon T
// falls inside Φ(L, p) for every side L of r — then the Voronoi cell of
// any point inside r cannot reach any T (Lemma 3).
func (fs *filterScratch) canPruneSubtree(r geom.Rect, cp []voronoi.Site, group []cellRecord, window geom.Rect) bool {
	if len(cp) == 0 {
		return false
	}
	// An entry intersecting some group polygon may contain points inside
	// it — those join for sure; never prune. Every group polygon lies in
	// the window, so an entry clear of the window skips the per-polygon
	// scan.
	if r.Intersects(window) {
		for i := range group {
			if group[i].bounds.Intersects(r) && group[i].poly.IntersectsRect(r) {
				return false
			}
		}
	}
	sides := r.Sides()
	// Fast path: test the group's bounding window (4 vertices) instead of
	// every polygon. W ⊇ every T, so W ⊆ Φ(L,p) implies T ⊆ Φ(L,p).
	//
	// W ⊆ Φ(L,p) for all four sides L unrolls to: for every window corner
	// t and every side L, dist²(p,t) ≤ dist²(L,t) + Eps (Segment.InPhi
	// over the window's vertices). The right-hand sides depend only on the
	// entry, so their per-corner minima are computed once and the whole
	// existential test collapses, per candidate, to four squared-distance
	// comparisons — algebraically identical to running Segment.PolygonInPhi
	// on every side, at a tenth of the arithmetic. The candidate that
	// pruned the previous entry goes first: consecutive pops are spatial
	// neighbors, so one candidate tends to prune runs of them.
	var minSide2 [4]float64
	for c, t := range fs.winCorners {
		m := sides[0].Dist2Point(t)
		for l := 1; l < 4; l++ {
			if d := sides[l].Dist2Point(t); d < m {
				m = d
			}
		}
		minSide2[c] = m + geom.Eps
	}
	windowInPhi := func(p geom.Point) bool {
		return p.Dist2(fs.winCorners[0]) <= minSide2[0] &&
			p.Dist2(fs.winCorners[1]) <= minSide2[1] &&
			p.Dist2(fs.winCorners[2]) <= minSide2[2] &&
			p.Dist2(fs.winCorners[3]) <= minSide2[3]
	}
	if h := fs.pruneHint; h >= 0 && h < len(cp) && windowInPhi(cp[h].Pt) {
		return true
	}
	for i := range cp {
		if i == fs.pruneHint {
			continue
		}
		if windowInPhi(cp[i].Pt) {
			fs.pruneHint = i
			return true
		}
	}
	// Exact path: per-polygon test, early-failing on the first vertex
	// outside Φ. Before paying the segment tests, each candidate runs a
	// sampled-vertex screen: Φ-containment of every group polygon demands
	// in particular dist²(p,v) ≤ min_L dist²(L,v)+Eps for each sampled
	// vertex v, so the screen (a necessary condition with the identical
	// tolerance) can only skip candidates the full test would reject.
	const screenSamples = 8
	var sv [screenSamples]geom.Point
	var sm [screenSamples]float64
	ns := 0
	for k := 0; k < screenSamples && k*len(group)/screenSamples < len(group); k++ {
		g := &group[k*len(group)/screenSamples]
		if len(g.poly.V) == 0 {
			continue
		}
		v := g.poly.V[0]
		m := sides[0].Dist2Point(v)
		for l := 1; l < 4; l++ {
			if d := sides[l].Dist2Point(v); d < m {
				m = d
			}
		}
		sv[ns], sm[ns] = v, m+geom.Eps
		ns++
	}
	for _, p := range cp {
		screened := false
		for k := 0; k < ns; k++ {
			if p.Pt.Dist2(sv[k]) > sm[k] {
				screened = true
				break
			}
		}
		if screened {
			continue
		}
		ok := true
		for _, l := range sides {
			for i := range group {
				if !l.PolygonInPhi(p.Pt, group[i].poly) {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
