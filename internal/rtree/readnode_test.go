package rtree

import (
	"math/rand"
	"sync"
	"testing"

	"cij/internal/geom"
	"cij/internal/storage"
)

// collectPages returns every page id of the tree (root to leaves).
func collectPages(t *Tree) []storage.PageID {
	var pages []storage.PageID
	var walk func(id storage.PageID, level int)
	walk = func(id storage.PageID, level int) {
		pages = append(pages, id)
		if level <= 1 {
			return
		}
		n := t.readNodeQuiet(id)
		for i := range n.Entries {
			walk(n.Entries[i].Child, level-1)
		}
	}
	if t.Root() != storage.InvalidPage {
		walk(t.Root(), t.Height())
	}
	return pages
}

// TestReadNodeScratchZeroAllocCapacity0 pins the paged hot read path: a
// handle decodes every ReadNode into its reused scratch node, so once the
// scratch has grown the point-tree read path is allocation-free — on a
// capacity-0 buffer (every read physical, as in Fig. 5) and on a buffer
// holding the whole tree (every read a hit) alike. Paged reads always
// parse, so neither buffer records a decode hit.
func TestReadNodeScratchZeroAllocCapacity0(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	big := newBuf(t, 1<<20)
	tr := BulkLoadPoints(big, randPoints(rng, 2000), testDomain, 1)
	pages := collectPages(tr)

	for _, resident := range []bool{false, true} {
		name, capacity := "capacity=0", 0
		if resident {
			name, capacity = "capacity=resident", len(pages)
		}
		t.Run(name, func(t *testing.T) {
			view := tr.WithBuffer(big.Fork(capacity))
			for _, id := range pages { // grow the scratch, warm the buffer
				view.ReadNode(id)
			}
			allocs := testing.AllocsPerRun(50, func() {
				for _, id := range pages {
					view.ReadNode(id)
				}
			})
			if allocs != 0 {
				t.Fatalf("scratch ReadNode allocates %.2f objects per sweep, want 0", allocs)
			}
			st := view.Buffer().Stats()
			if st.DecodeHits != 0 {
				t.Fatalf("paged buffer recorded %d decode hits, want 0 (paged reads always parse)", st.DecodeHits)
			}
			if resident && st.PageReads != int64(len(pages)) {
				t.Fatalf("resident buffer read %d pages physically, want %d (first sweep only)", st.PageReads, len(pages))
			}
		})
	}
}

// TestForkViewsIndependent runs concurrent traversals over per-goroutine
// buffer forks with the race detector watching: each view owns its LRU
// state and its decode scratch, so parallel workers never share (or
// contend on) either.
func TestForkViewsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pts := randPoints(rng, 3000)
	base := newBuf(t, 1<<20)
	tr := BulkLoadPoints(base, pts, testDomain, 1)
	pages := collectPages(tr)

	const workers = 8
	var wg sync.WaitGroup
	results := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view := tr.WithBuffer(base.Fork(64))
			query := geom.NewRect(float64(w)*1000, 0, float64(w)*1000+2500, 10000)
			for i := 0; i < 20; i++ {
				results[w] = len(view.RangeSearch(query))
				for _, id := range pages {
					view.ReadNode(id)
				}
			}
			if view.Buffer().Stats().LogicalReads == 0 {
				t.Error("fork performed no reads")
			}
		}(w)
	}
	wg.Wait()

	// Every fork must have seen the same tree.
	for w := 0; w < workers; w++ {
		query := geom.NewRect(float64(w)*1000, 0, float64(w)*1000+2500, 10000)
		if want := len(tr.RangeSearch(query)); results[w] != want {
			t.Fatalf("worker %d saw %d results, want %d", w, results[w], want)
		}
	}
}
