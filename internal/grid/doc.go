// Package grid is the partitioned in-memory CIJ backend: a second
// execution architecture for the common influence join that uses no
// R-tree, no page buffer and no simulated disk. Where the paper's NM/PM/FM
// algorithms are index-driven — their cost model is page accesses — this
// backend assumes both pointsets fit in RAM (they always do in this
// module) and trades index traversal for a uniform grid in the style of
// the Partition Based Spatial-Merge join (PBSM, Patel & DeWitt) and its
// in-memory descendants (Tsitsigkos et al., "Parallel In-Memory Evaluation
// of Spatial Joins"; Kipf et al., "Adaptive Geospatial Joins for Modern
// Hardware").
//
// # Partitioning
//
// Each pointset is bucketed into a uniform nx×ny grid over the domain,
// with the resolution derived from data density: nx = ny =
// sqrt(n / targetPerCell), so an average tile holds targetPerCell points
// regardless of cardinality. Three grids exist per join — one per input
// for diagram computation, one joint grid (sized from |P|+|Q|) for the
// join phase.
//
// # Diagram computation
//
// The Voronoi cells of each input are computed per tile: a tile's sites
// form one batch (the grid analogue of a leaf batch in Algorithm 2 of the
// paper) whose cells are refined concurrently while surrounding tiles are
// visited in rings of increasing Chebyshev distance. Pruning reuses the
// paper's lemmas verbatim through voronoi.CanRefineMBR (a whole tile
// cannot refine any member, Lemma 2 with the tile rectangle in place of a
// subtree MBR) and voronoi.CanRefinePoint (Lemma 1 per site), and a batch
// member stops expanding once every unvisited tile lies at least twice
// its circumradius away — the same triangle-inequality bound behind the
// tree traversal's O(1) prefilter. Per-member clippers and radii live in
// a reusable diagramScratch mirroring voronoi.Workspace, so the hot loop
// allocates only when a tile's occupancy exceeds every previous tile's.
//
// # Replication and deduplication
//
// Computed cells are replicated into every joint-grid tile their MBR
// overlaps (the PBSM spatial-merge step: a Voronoi cell is an extended
// object even though its site is a point, so boundary-straddling cells
// are candidates in several tiles). Each tile then joins its resident
// P-cells against its Q-cells — MBR prefilter, then the exact
// core.CellsJoinWith predicate shared with every other algorithm, so the
// pair verdicts are bit-identical. Because replication makes a
// straddling pair visible to several tiles, the join applies the PBSM
// reference-point rule: the pair is evaluated only in the tile containing
// the bottom-left corner of its MBR intersection, which exactly one tile
// owns. Deduplication therefore costs two comparisons per candidate and
// no cross-tile state.
//
// # Where it wins, where it loses
//
// With near-uniform density every phase is linear in n and allocation
// light, and the backend beats the tree algorithms on wall clock (see
// cijbench -exp grid, which prints the crossover against NM-CIJ). Under
// heavy skew a single tile can hold thousands of points, and the
// per-tile batches degrade toward the quadratic brute force;
// SkewEstimate quantifies this, and the query planner (internal/service)
// uses it to route skewed joins to the tree-based algorithms instead.
package grid
