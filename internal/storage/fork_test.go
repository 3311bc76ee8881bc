package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// seededDisk writes n distinguishable pages through a throwaway buffer and
// returns that buffer (capacity cap).
func seededDisk(n, cap int) *Buffer {
	buf := NewBuffer(NewDisk(64), cap)
	for i := 0; i < n; i++ {
		id := buf.Alloc()
		buf.Write(id, []byte(fmt.Sprintf("page-%d", id)))
	}
	return buf
}

// TestForkIsolation: a fork starts empty (cold cache, zeroed counters) and
// its traffic never shows up in the parent's counters or cache.
func TestForkIsolation(t *testing.T) {
	base := seededDisk(8, 8)
	base.ResetStats()
	fork := base.Fork(4)
	if got := fork.Stats(); got != (Stats{}) {
		t.Fatalf("fork counters = %+v, want zero", got)
	}
	if fork.Capacity() != 4 {
		t.Fatalf("fork capacity = %d, want 4", fork.Capacity())
	}
	for id := 0; id < 8; id++ {
		if fork.Contains(PageID(id)) {
			t.Fatalf("fork born with page %d cached", id)
		}
		fork.Read(PageID(id))
	}
	if got := fork.Stats(); got.LogicalReads != 8 || got.PageReads != 8 {
		t.Fatalf("fork stats after cold scan = %+v", got)
	}
	if got := base.Stats(); got != (Stats{}) {
		t.Fatalf("fork traffic leaked into parent counters: %+v", got)
	}
	// Parent kept its own cache: pages written above are still hits.
	base.Read(PageID(0))
	if got := base.Stats(); got.PageReads != 0 {
		t.Fatalf("parent lost its cache to the fork: %+v", got)
	}
}

// TestConcurrentForks is the contract the parallel engine and the query
// service lean on: any number of goroutines may Fork the same buffer and
// read (and resize) their private forks concurrently, as long as nobody
// allocates or writes pages. Run under -race this guards the lock-free
// sharing design.
func TestConcurrentForks(t *testing.T) {
	const pages, workers, rounds = 64, 8, 4
	base := seededDisk(pages, pages)

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				fork := base.Fork(1 + w%5)
				order := rng.Perm(pages)
				for i, id := range order {
					// Resize mid-scan: shrink then grow, exercising
					// evictOverflow under live traffic.
					if i == pages/2 {
						fork.SetCapacity(1)
						fork.SetCapacity(2 + w)
					}
					// Pages are fixed-size and zero-padded; compare content.
					got := string(bytes.TrimRight(fork.Read(PageID(id)), "\x00"))
					if want := fmt.Sprintf("page-%d", id); got != want {
						errs <- fmt.Errorf("worker %d: page %d = %q, want %q", w, id, got, want)
						return
					}
				}
				s := fork.Stats()
				if s.LogicalReads != pages {
					errs <- fmt.Errorf("worker %d: logical reads %d, want %d", w, s.LogicalReads, pages)
					return
				}
				if s.PageReads < int64(pages)-int64(fork.Capacity()) || s.PageReads > pages {
					errs <- fmt.Errorf("worker %d: physical reads %d out of range", w, s.PageReads)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSetCapacityZeroDropsCaching: shrinking to zero evicts everything and
// disables installs, and growing back re-enables caching.
func TestSetCapacityZeroDropsCaching(t *testing.T) {
	buf := seededDisk(4, 4)
	buf.SetCapacity(0)
	for id := 0; id < 4; id++ {
		if buf.Contains(PageID(id)) {
			t.Fatalf("page %d survived SetCapacity(0)", id)
		}
	}
	buf.ResetStats()
	buf.Read(PageID(1))
	buf.Read(PageID(1))
	if got := buf.Stats(); got.PageReads != 2 {
		t.Fatalf("capacity-0 reads = %+v, want 2 physical", got)
	}
	buf.SetCapacity(2)
	buf.Read(PageID(1))
	buf.Read(PageID(1))
	if got := buf.Stats(); got.PageReads != 3 {
		t.Fatalf("after regrow = %+v, want exactly one more physical read", got)
	}
}

// TestForkInheritsOnEvict: an eviction hook installed on a base buffer
// observes evictions from forks created afterwards — the mechanism behind
// the service's cij_buffer_evictions_total counter, which hooks each
// dataset's base buffer and counts across all per-request views.
func TestForkInheritsOnEvict(t *testing.T) {
	base := seededDisk(8, 8)
	var evicted int
	base.SetOnEvict(func(PageID) { evicted++ })

	fork := base.Fork(2) // room for 2 pages: reading 8 evicts 6
	for id := 0; id < 8; id++ {
		fork.Read(PageID(id))
	}
	if evicted != 6 {
		t.Fatalf("evictions observed through fork = %d, want 6", evicted)
	}

	// Removing the hook on the base does not reach into existing forks
	// (the fork copied the function value), but new forks see the change.
	base.SetOnEvict(nil)
	fresh := base.Fork(1)
	for id := 0; id < 4; id++ {
		fresh.Read(PageID(id))
	}
	if evicted != 6 {
		t.Fatalf("hookless fork still reported evictions: %d", evicted)
	}
}
