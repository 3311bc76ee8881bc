package core

import (
	"math/rand"
	"testing"

	"cij/internal/rtree"
	"cij/internal/voronoi"
)

// TestProcessBatchAllocBudget guards the allocation budget of the NM-CIJ
// hot path: zero. A warm BatchPipeline reuses all its scratch (typed
// best-first queues, clippers, arenas, swap maps), and its tree reads go
// through ReadNode, which parses each page into the handle's reused
// scratch node. So a warm batch allocates nothing, on a buffer-less tree
// (every read physical) and on a fully resident one (every read a hit)
// alike. Reintroducing any per-node, per-entry or per-clip allocation
// (heap boxing, closure capture, make-per-refinement) fails the suite
// instead of silently eroding the perf win.
func TestProcessBatchAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := randPoints(rng, 3000)
	q := randPoints(rng, 3000)

	for _, resident := range []bool{false, true} {
		name := "capacity=0"
		if resident {
			name = "capacity=resident"
		}
		t.Run(name, func(t *testing.T) {
			rp, rq, buf := buildPair(t, p, q, 0)
			if resident {
				buf.SetCapacity(rp.NumPages() + rq.NumPages())
			}

			var batches [][]voronoi.Site
			rq.VisitLeavesHilbert(testDomain, func(leaf *rtree.Node) {
				batches = append(batches, voronoi.SitesOfLeaf(leaf))
			})
			if len(batches) < 10 {
				t.Fatalf("too few batches to measure: %d", len(batches))
			}

			pipe := NewBatchPipeline(rp, rq, testDomain, true)
			emit := func(Pair) {}
			// Warm pass: grow every scratch buffer to its high-water mark
			// (and, when resident, load every page).
			for _, b := range batches {
				pipe.ProcessBatch(b, emit)
			}

			// Measured pass over the same batches on the warm pipeline.
			allocs := testing.AllocsPerRun(1, func() {
				for _, b := range batches {
					pipe.ProcessBatch(b, emit)
				}
			})
			if allocs != 0 {
				t.Fatalf("warm ProcessBatch allocates %.1f objects per batch over %d batches, budget 0",
					allocs/float64(len(batches)), len(batches))
			}
			if resident && buf.Stats().PageReads > int64(rp.NumPages()+rq.NumPages()) {
				t.Fatalf("resident buffer re-read pages: %d physical reads for %d pages",
					buf.Stats().PageReads, rp.NumPages()+rq.NumPages())
			}
		})
	}
}
