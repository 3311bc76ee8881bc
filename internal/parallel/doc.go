// Package parallel is the partition-parallel execution engine for the
// common influence join: it runs NM-CIJ (Algorithm 6) across a pool of
// workers while producing exactly the pair set of the serial algorithm.
//
// NM-CIJ's batch structure makes it embarrassingly parallel: each Q-leaf
// batch is filtered and refined against the R-tree of P independently of
// every other batch, and distinct leaves index disjoint points of Q, so
// no two batches can emit the same pair — partitioned execution needs no
// deduplication. The only cross-batch state of the serial algorithm, the
// Voronoi-cell reuse buffer of Section IV-B, is a pure cache of exact
// cells; keeping one per worker changes how many cells are recomputed,
// never which pairs are found.
//
// The engine has three stages:
//
//   - A partitioner (PartitionLeaves) traverses the Q-tree once and
//     splits its Hilbert-ordered leaf sequence into contiguous work
//     units of near-equal leaf count. Contiguity preserves the spatial
//     locality that feeds each worker's reuse buffer. On a bulk-loaded
//     tree equal leaf counts are equal point counts, skewed data
//     included, because bulk loading packs every leaf but the last full;
//     the work queue (several units per worker) absorbs the cost
//     differences that remain.
//   - A worker pool where each worker pulls units from a shared queue and
//     runs the NM-CIJ conditional-filter + refinement pipeline
//     (core.BatchPipeline) against the shared read-only trees. Workers
//     read through private storage.Buffer forks via rtree tree views, so
//     the hot path takes no locks; per-worker Stats account I/O exactly.
//   - A streaming merge that fans the workers' pair streams into a single
//     OnPair output on the caller's goroutine and folds per-worker I/O
//     and filter counters into one core.Stats. Pairs flow out while
//     workers are still joining, preserving the non-blocking
//     progressive-output property of Fig. 9b.
//
// Prefer Join over core.NMCIJ when wall-clock latency matters and more
// than one core is available; stay with the serial algorithm for the
// paper's I/O experiments (it reproduces the exact single-buffer page
// counts) or when the caller needs pairs in the serial emission order.
package parallel
