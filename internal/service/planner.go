package service

import (
	"fmt"
	"runtime"
	"time"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/geom"
	"cij/internal/grid"
	"cij/internal/obs"
	"cij/internal/parallel"
	"cij/internal/rtree"
	"cij/internal/storage"
)

// autoPointsPerWorker is the planner's sizing unit: roughly how many
// joined points one worker is worth. The auto plan goes parallel once the
// joint cardinality covers two workers and sizes the pool as
// cardinality / autoPointsPerWorker (capped at GOMAXPROCS) — small joins
// stay serial because partitioning and merge overhead would dominate them.
const autoPointsPerWorker = 25_000

// autoGridSkewMax is the density gate of the serial-range auto plan: a
// join goes to the in-memory grid backend only when BOTH datasets'
// Poisson-normalized skew estimates (grid.SkewEstimate, ~1 for uniform
// data, computed once at ingest) stay below this bound. The grid sizes
// its diagram tiles by the occupancy points actually see, but caps the
// tile count at 4n, so beyond some density contrast the hot tiles still
// go quadratic; extremely skewed serial joins route to NM-CIJ, whose
// R-tree adapts to density without a cap. The bound is
// measurement-anchored (the cijbench -exp grid crossover table, scale
// 0.2, two runs on a 2-CPU host): ordinary clustered data (skew 11–16)
// beats NM on wall clock by 3–33×, while in the point-mass series the
// advantage shrinks to 1.1–1.4× (skew ≈ 45, 2K–8K points) and inverts
// at the largest size (skew ≈ 103: 0.87–0.91×). The gate sits below the
// point-mass band, trading a mild win at skew 33–45 for never landing
// in the inverted regime.
const autoGridSkewMax = 32

// Plan is a resolved execution strategy for one join query.
type Plan struct {
	// Algo is the concrete algorithm: "nm", "pm", "fm", "parallel" or
	// "grid".
	Algo string `json:"algo"`
	// Workers is the pool size when Algo is "parallel", 0 otherwise.
	Workers int `json:"workers,omitempty"`
	// Storage is the node representation the tree algorithms read:
	// "flat" (arena-resident, decode-free, zero page I/O) or "paged"
	// (the paper's LRU-buffered disk format). Empty for the grid
	// backend, which indexes nothing.
	Storage string `json:"storage,omitempty"`
}

// plan maps a query onto a concrete algorithm, worker count and storage,
// and says why. Explicit choices are honored; "auto" (or empty) consults
// the dataset cardinalities and density statistics: large joins go to the
// parallel partitioned engine, small-to-medium joins go to the in-memory
// grid backend when both inputs are near-uniform, and skewed serial joins
// fall back to NM-CIJ. Each branch writes its reason where it decides, so
// the narration served by explain=1 and journaled per join is the
// decision itself, not a reconstruction of it.
func plan(q Query, left, right *Dataset) (Explanation, error) {
	stor, explicitStorage, err := normalizeStorage(q.Storage)
	if err != nil {
		return Explanation{}, err
	}
	in := planInputs(left, right)
	total := in.TotalPoints
	pl := Plan{Algo: q.Algo}
	var reason string
	switch q.Algo {
	case "", "auto":
		switch w := autoWorkers(total); {
		case q.Workers > 0:
			// An explicit worker count — including 1, a client bounding
			// its CPU share — fixes the pool; only workers <= 0 leaves the
			// choice to the planner.
			pl.Algo, pl.Workers = "parallel", clampWorkers(q.Workers)
			reason = fmt.Sprintf("explicit worker count %d selects the parallel engine (clamped to %d)",
				q.Workers, pl.Workers)
		case w > 1:
			pl.Algo, pl.Workers = "parallel", w
			reason = fmt.Sprintf("joint cardinality %d covers %d workers at %d points/worker, so the join parallelizes",
				total, w, autoPointsPerWorker)
		case explicitStorage:
			// An explicit storage choice is a statement about tree nodes,
			// so algo-auto then restricts itself to the tree algorithms.
			pl.Algo = "nm"
			reason = fmt.Sprintf("explicit storage %q restricts algo-auto to the tree algorithms; serial range selects NM-CIJ", stor)
		case left.Skew <= autoGridSkewMax && right.Skew <= autoGridSkewMax:
			pl.Algo = "grid"
			reason = fmt.Sprintf("serial-range join with near-uniform inputs (skew %.1f and %.1f, both <= %d) routes to the in-memory grid",
				left.Skew, right.Skew, autoGridSkewMax)
		default:
			pl.Algo = "nm"
			reason = fmt.Sprintf("serial-range join too skewed for the grid (skew %.1f and %.1f vs gate %d) falls back to NM-CIJ",
				left.Skew, right.Skew, autoGridSkewMax)
		}
	case "nm", "pm", "fm", "grid":
		reason = fmt.Sprintf("algorithm %q requested explicitly", q.Algo)
	case "parallel":
		reason = fmt.Sprintf("algorithm %q requested explicitly", q.Algo)
		pl.Workers = clampWorkers(q.Workers)
		if q.Workers <= 0 {
			pl.Workers = autoWorkers(total)
			reason += fmt.Sprintf("; pool auto-sized to %d workers from %d joint points at %d points/worker",
				pl.Workers, total, autoPointsPerWorker)
		}
	default:
		return Explanation{}, fmt.Errorf("unknown algo %q (want nm, pm, fm, parallel, grid or auto)", q.Algo)
	}

	// Attach the storage decision. The tree algorithms read either
	// representation; PM/FM materialize Voronoi R-trees page by page, so
	// they are pinned to paged; the grid backend indexes nothing and
	// carries no storage at all.
	switch pl.Algo {
	case "grid":
		if explicitStorage {
			return Explanation{}, fmt.Errorf("storage %q does not apply to the grid backend (it joins raw pointsets, no tree)", stor)
		}
	case "pm", "fm":
		if stor == "flat" {
			return Explanation{}, fmt.Errorf("algo %q materializes Voronoi R-trees page by page and cannot run on flat storage", pl.Algo)
		}
		pl.Storage = "paged"
		if explicitStorage {
			reason += "; paged storage requested explicitly (the paper's LRU-buffered disk format)"
		} else {
			reason += "; paged storage (this algorithm materializes R-trees page by page)"
		}
	default: // nm, parallel
		pl.Storage = stor
		switch stor {
		case "auto":
			// Every registered dataset lives in memory and carries a frozen
			// flat tree, so auto picks the decode-free representation;
			// "paged" remains the knob for measuring the paper's I/O
			// behavior.
			pl.Storage = "flat"
			reason += "; storage auto-selects flat (datasets are in-memory, so joins read arena nodes decode-free)"
		case "flat":
			reason += "; flat storage requested explicitly (arena nodes, zero page I/O)"
		case "paged":
			reason += "; paged storage requested explicitly (the paper's LRU-buffered disk format)"
		}
	}
	return Explanation{Plan: pl, Reason: reason, Inputs: in}, nil
}

// planInputs snapshots the decision inputs of a join between left and
// right: their live cardinalities and skew statistics next to the
// planner's gates.
func planInputs(left, right *Dataset) PlanInputs {
	return PlanInputs{
		LeftPoints:      left.Live,
		RightPoints:     right.Live,
		TotalPoints:     left.Live + right.Live,
		LeftSkew:        left.Skew,
		RightSkew:       right.Skew,
		GridSkewMax:     autoGridSkewMax,
		PointsPerWorker: autoPointsPerWorker,
		MaxWorkers:      runtime.GOMAXPROCS(0),
	}
}

// normalizeStorage canonicalizes the storage knob: auto (empty included)
// leaves the choice to the planner; paged and flat are explicit requests.
func normalizeStorage(s string) (value string, explicit bool, err error) {
	switch s {
	case "", "auto":
		return "auto", false, nil
	case "paged", "flat":
		return s, true, nil
	default:
		return "", false, fmt.Errorf("unknown storage %q (want paged, flat or auto)", s)
	}
}

// autoWorkers sizes a worker pool from the joint cardinality.
func autoWorkers(totalPoints int) int {
	return clampWorkers(totalPoints / autoPointsPerWorker)
}

// clampWorkers bounds a worker count to [1, GOMAXPROCS]: more workers than
// cores never helps this CPU-bound kernel.
func clampWorkers(w int) int {
	if max := runtime.GOMAXPROCS(0); w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// execHooks are the streaming callbacks and per-request options of one
// join execution. The callbacks run on the executing goroutine (the
// request handler's), mirroring the contract of core.Options.OnPair /
// parallel.Options.OnPair+OnProgress.
type execHooks struct {
	onPair     func(core.Pair)
	onProgress func(core.ProgressPoint)
	// trace requests a per-phase trace of the computation even when the
	// slow-query log (which traces unconditionally) is off.
	trace bool
}

// execute runs the planned join and returns the full result with its cost.
// NM and parallel runs read the registry trees through per-request buffer
// views; the materializing algorithms (PM/FM) write Voronoi R-trees, so
// they get a private scratch environment — the registry's dataset disks
// stay strictly read-only after build, which is what makes concurrent
// queries safe. tr (nil = untraced) is threaded into the engine so its
// spans cover every phase; the eviction metric hook rides the same
// per-request buffers (worker forks inherit it).
func (s *Service) execute(left, right *Dataset, pl Plan, hooks execHooks, tr *obs.Trace) *cachedResult {
	start := time.Now()
	var res core.Result
	var io storage.Stats
	// The point-array backends (grid, PM, FM) consume dense slices whose
	// positions double as IDs, so mutated datasets hand them the live
	// compaction and the emitted pairs are remapped back to original IDs
	// — the tree algorithms need neither (registry trees index live
	// points under their original IDs already). For never-deleted
	// datasets JoinPoints returns nil id tables and the remap is free.
	var leftPts, rightPts []geom.Point
	var leftIDs, rightIDs []int64
	if pointArrayAlgo(pl.Algo) {
		leftPts, leftIDs = left.JoinPoints()
		rightPts, rightIDs = right.JoinPoints()
		hooks.onPair = remapOnPair(hooks.onPair, pl.Algo, leftIDs, rightIDs)
	}
	switch pl.Algo {
	case "grid":
		// The in-memory backend joins the raw pointsets: no tree view, no
		// buffer fork, no pages — its physical I/O is genuinely zero.
		opts := grid.DefaultOptions()
		opts.OnPair = hooks.onPair
		opts.Trace = tr
		res = grid.Join(leftPts, rightPts, dataset.Domain, opts)
		remapPairs(res.Pairs, leftIDs, rightIDs)
	case "nm":
		rp, rq := left.StorageView(pl.Storage), right.StorageView(pl.Storage)
		rp.Buffer().SetOnEvict(s.metrics.onEvict)
		rq.Buffer().SetOnEvict(s.metrics.onEvict)
		opts := core.DefaultOptions()
		opts.OnPair = hooks.onPair
		opts.Trace = tr
		res = core.NMCIJ(rp, rq, dataset.Domain, opts)
		// The serial collector meters rp's buffer only (the single-disk
		// setting of the paper); with per-dataset disks the request's I/O
		// is the sum over both private views — which is also exactly what
		// the trace spans meter, so response and trace reconcile.
		io = rp.Buffer().Stats().Add(rq.Buffer().Stats())
	case "parallel":
		rp, rq := left.StorageView(pl.Storage), right.StorageView(pl.Storage)
		rp.Buffer().SetOnEvict(s.metrics.onEvict)
		rq.Buffer().SetOnEvict(s.metrics.onEvict)
		opts := parallel.DefaultOptions()
		opts.Workers = pl.Workers
		opts.OnPair = hooks.onPair
		opts.OnProgress = hooks.onProgress
		opts.Trace = tr
		res = parallel.Join(rp, rq, dataset.Domain, opts)
		io = res.Stats.Mat.Add(res.Stats.Join) // partition traversal + all worker forks
	case "pm", "fm":
		rp, rq := buildScratchEnv(leftPts, rightPts, s.cfg.BufferPct)
		rp.Buffer().SetOnEvict(s.metrics.onEvict) // one shared scratch buffer
		opts := core.DefaultOptions()
		opts.OnPair = hooks.onPair
		opts.Trace = tr
		if pl.Algo == "pm" {
			res = core.PMCIJ(rp, rq, dataset.Domain, opts)
		} else {
			res = core.FMCIJ(rp, rq, dataset.Domain, opts)
		}
		io = res.Stats.Mat.Add(res.Stats.Join) // MAT + JOIN on the shared scratch buffer
		remapPairs(res.Pairs, leftIDs, rightIDs)
	default:
		panic("service: unplanned algo " + pl.Algo)
	}
	return &cachedResult{
		Pairs:        res.Pairs,
		Count:        int64(len(res.Pairs)),
		IO:           io,
		CPU:          time.Since(start),
		Trace:        tr.Spans(),
		TraceDropped: tr.Dropped(),
	}
}

// pointArrayAlgo reports whether the algorithm consumes raw point
// slices (positions double as IDs) rather than registry trees.
func pointArrayAlgo(algo string) bool {
	return algo == "grid" || algo == "pm" || algo == "fm"
}

// remapOnPair wraps a streaming pair callback so point-array runs over
// compacted live slices emit original point IDs. Tree runs and dense
// datasets pass through untouched.
func remapOnPair(onPair func(core.Pair), algo string, leftIDs, rightIDs []int64) func(core.Pair) {
	if onPair == nil || !pointArrayAlgo(algo) || (leftIDs == nil && rightIDs == nil) {
		return onPair
	}
	return func(p core.Pair) { onPair(remapPair(p, leftIDs, rightIDs)) }
}

// remapPair translates one compacted-index pair back to original IDs.
func remapPair(p core.Pair, leftIDs, rightIDs []int64) core.Pair {
	if leftIDs != nil {
		p.P = leftIDs[p.P]
	}
	if rightIDs != nil {
		p.Q = rightIDs[p.Q]
	}
	return p
}

// remapPairs translates a result's pair list in place; a no-op for dense
// datasets (nil id tables). Pairs stay sorted: the id tables are built
// in ascending ID order, so the remap is strictly monotone in each
// coordinate.
func remapPairs(pairs []core.Pair, leftIDs, rightIDs []int64) {
	if leftIDs == nil && rightIDs == nil {
		return
	}
	for i := range pairs {
		pairs[i] = remapPair(pairs[i], leftIDs, rightIDs)
	}
}

// PlanInputs are the decision inputs the planner consulted — everything a
// client needs to reproduce (or argue with) the routing by hand.
type PlanInputs struct {
	LeftPoints  int     `json:"left_points"`
	RightPoints int     `json:"right_points"`
	TotalPoints int     `json:"total_points"`
	LeftSkew    float64 `json:"left_skew"`
	RightSkew   float64 `json:"right_skew"`
	// GridSkewMax and PointsPerWorker are the planner's gates
	// (autoGridSkewMax, autoPointsPerWorker); MaxWorkers is GOMAXPROCS at
	// planning time.
	GridSkewMax     float64 `json:"grid_skew_max"`
	PointsPerWorker int     `json:"points_per_worker"`
	MaxWorkers      int     `json:"max_workers"`
}

// Explanation is the planner's answer to an explain-only request: the plan
// it would execute, why, and the inputs the decision was made from.
type Explanation struct {
	Plan   Plan       `json:"plan"`
	Reason string     `json:"reason"`
	Inputs PlanInputs `json:"inputs"`
	// Observed is the journal's aggregate over past executions of this
	// exact plan on these exact dataset versions — the "observed" half of
	// modeled-vs-observed. Omitted when the journal is disabled.
	Observed *ObservedJSON `json:"observed,omitempty"`
}

// Explain resolves and plans q without executing anything — the backing of
// POST /join?explain=1.
func (s *Service) Explain(q Query) (Explanation, error) {
	left, right, ex, err := s.resolve(q)
	if err != nil {
		return ex, err
	}
	if s.journal.Enabled() {
		seen := s.journal.Observed(left.Name, left.Version, right.Name, right.Version, ex.Plan)
		ex.Observed = &seen
	}
	return ex, nil
}

// resolve looks up both datasets of q and plans the join between them —
// the one step Join and Explain share.
func (s *Service) resolve(q Query) (left, right *Dataset, ex Explanation, err error) {
	left, ok := s.reg.Get(q.Left)
	if !ok {
		return nil, nil, ex, fmt.Errorf("unknown dataset %q", q.Left)
	}
	right, ok = s.reg.Get(q.Right)
	if !ok {
		return nil, nil, ex, fmt.Errorf("unknown dataset %q", q.Right)
	}
	ex, err = plan(q, left, right)
	return left, right, ex, err
}

// buildScratchEnv bulk-loads both pointsets onto one fresh disk behind one
// LRU buffer sized to bufferPct% of their combined pages — the single-disk
// environment the materializing algorithms expect, built per request so
// their page writes never touch registry state. The build runs through an
// unbounded buffer (construction I/O is not what the service meters); the
// buffer is then sized and cleared, so measurement starts cold.
func buildScratchEnv(p, q []geom.Point, bufferPct float64) (rp, rq *rtree.Tree) {
	buf := storage.NewBuffer(storage.NewDisk(storage.DefaultPageSize), 1<<30)
	rp = rtree.BulkLoadPoints(buf, p, dataset.Domain, 1)
	rq = rtree.BulkLoadPoints(buf, q, dataset.Domain, 1)
	buf.SetCapacity(storage.CapacityFor(rp.NumPages()+rq.NumPages(), bufferPct))
	buf.DropAll()
	buf.ResetStats()
	return rp, rq
}
