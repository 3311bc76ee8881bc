package storage

import "testing"

// newTestBuf returns a buffer over a disk with n pre-written pages.
func newTestBuf(t *testing.T, capacity, pages int) (*Buffer, []PageID) {
	t.Helper()
	d := NewDisk(64)
	b := NewBuffer(d, capacity)
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = b.Alloc()
		data := make([]byte, 64)
		data[0] = byte(i + 1)
		b.Write(ids[i], data)
	}
	b.DropAll()
	b.ResetStats()
	return b, ids
}

// TestEvictionFiresHook: the eviction hook sees every page that leaves
// the cache, by LRU overflow and by DropAll.
func TestEvictionFiresHook(t *testing.T) {
	b, ids := newTestBuf(t, 2, 3)
	var evicted []PageID
	b.SetOnEvict(func(id PageID) { evicted = append(evicted, id) })

	b.Read(ids[0])
	b.Read(ids[1])
	b.Read(ids[2]) // capacity 2: evicts ids[0]
	if len(evicted) != 1 || evicted[0] != ids[0] {
		t.Fatalf("eviction hook saw %v, want [%d]", evicted, ids[0])
	}
	if b.Contains(ids[0]) {
		t.Fatal("evicted page still resident")
	}

	// DropAll fires the hook for everything still resident.
	evicted = evicted[:0]
	b.DropAll()
	if len(evicted) != 2 {
		t.Fatalf("DropAll evicted %d pages, want 2", len(evicted))
	}
}

// TestLRUFreeListRecycles pins the allocation-free page churn: with the
// intrusive free list, steady-state install/evict cycles reuse entries.
func TestLRUFreeListRecycles(t *testing.T) {
	b, ids := newTestBuf(t, 2, 3)
	for i := 0; i < 3; i++ { // warm the free list past its high-water mark
		for _, id := range ids {
			b.Read(id)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, id := range ids {
			b.Read(id)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state page churn allocates %.2f objects per cycle, want 0", allocs)
	}
}

// TestCapacityFor pins the %-of-pages buffer sizing: rounded up, at least
// one page for any positive share, zero pages only for a zero share.
func TestCapacityFor(t *testing.T) {
	for _, tc := range []struct {
		pages int
		pct   float64
		want  int
	}{
		{1000, 2, 20},
		{1001, 2, 21},
		{10, 2, 1},
		{0, 2, 1},
		{1000, 0, 0},
		{1000, 100, 1000},
	} {
		if got := CapacityFor(tc.pages, tc.pct); got != tc.want {
			t.Errorf("CapacityFor(%d, %v) = %d, want %d", tc.pages, tc.pct, got, tc.want)
		}
	}
}
