package storage

import (
	"bytes"
	"testing"
)

func TestDiskAllocReadWrite(t *testing.T) {
	d := NewDisk(64)
	if d.PageSize() != 64 {
		t.Fatalf("PageSize = %d", d.PageSize())
	}
	id := d.Alloc()
	if d.NumPages() != 1 {
		t.Fatalf("NumPages = %d", d.NumPages())
	}
	if got := d.read(id); len(got) != 64 || !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("fresh page should be zeroed")
	}
	d.write(id, []byte("hello"))
	got := d.read(id)
	if string(got[:5]) != "hello" {
		t.Fatalf("read back %q", got[:5])
	}
	if got[5] != 0 {
		t.Fatal("tail should stay zero")
	}
	// Overwrite with shorter data zero-fills the remainder.
	d.write(id, []byte("xy"))
	got = d.read(id)
	if string(got[:2]) != "xy" || got[2] != 0 {
		t.Fatalf("overwrite produced %q", got[:5])
	}
}

func TestDiskPanicsOnBadAccess(t *testing.T) {
	d := NewDisk(32)
	assertPanics(t, "read unallocated", func() { d.read(0) })
	assertPanics(t, "read negative", func() { d.read(-5) })
	id := d.Alloc()
	assertPanics(t, "oversized write", func() { d.write(id, make([]byte, 33)) })
	assertPanics(t, "zero page size", func() { NewDisk(0) })
}

func TestBufferCountsLogicalAndPhysical(t *testing.T) {
	d := NewDisk(32)
	b := NewBuffer(d, 4)
	id := d.Alloc()
	b.Write(id, []byte("abc"))
	if s := b.Stats(); s.PageWrites != 1 {
		t.Fatalf("writes = %d, want 1", s.PageWrites)
	}
	// First read after write hits the cache (write-through installed it).
	b.Read(id)
	if s := b.Stats(); s.LogicalReads != 1 || s.PageReads != 0 {
		t.Fatalf("stats after cached read: %+v", s)
	}
	b.DropAll()
	b.Read(id)
	if s := b.Stats(); s.LogicalReads != 2 || s.PageReads != 1 {
		t.Fatalf("stats after cold read: %+v", s)
	}
	// Second read is a hit again.
	b.Read(id)
	if s := b.Stats(); s.LogicalReads != 3 || s.PageReads != 1 {
		t.Fatalf("stats after warm read: %+v", s)
	}
}

func TestBufferLRUEviction(t *testing.T) {
	d := NewDisk(16)
	b := NewBuffer(d, 2)
	ids := []PageID{d.Alloc(), d.Alloc(), d.Alloc()}
	for i, id := range ids {
		d.write(id, []byte{byte(i)})
	}
	b.Read(ids[0])
	b.Read(ids[1])
	b.Read(ids[2]) // evicts ids[0]
	if b.Contains(ids[0]) {
		t.Fatal("ids[0] should be evicted")
	}
	if !b.Contains(ids[1]) || !b.Contains(ids[2]) {
		t.Fatal("ids[1], ids[2] should be cached")
	}
	// Touch ids[1] so it becomes MRU; reading ids[0] should evict ids[2].
	b.Read(ids[1])
	b.Read(ids[0])
	if b.Contains(ids[2]) {
		t.Fatal("ids[2] should be evicted after LRU rotation")
	}
	if !b.Contains(ids[1]) {
		t.Fatal("recently used ids[1] should survive")
	}
}

func TestBufferZeroCapacity(t *testing.T) {
	d := NewDisk(16)
	b := NewBuffer(d, 0)
	id := d.Alloc()
	b.Write(id, []byte("z"))
	for i := 0; i < 5; i++ {
		b.Read(id)
	}
	s := b.Stats()
	if s.PageReads != 5 {
		t.Fatalf("zero-capacity buffer should miss every read, got %d", s.PageReads)
	}
	if s.LogicalReads != 5 {
		t.Fatalf("logical reads = %d", s.LogicalReads)
	}
}

func TestBufferNegativeCapacityClamped(t *testing.T) {
	d := NewDisk(16)
	b := NewBuffer(d, -3)
	if b.Capacity() != 0 {
		t.Fatalf("capacity = %d, want 0", b.Capacity())
	}
	b.SetCapacity(-1)
	if b.Capacity() != 0 {
		t.Fatalf("capacity after SetCapacity(-1) = %d", b.Capacity())
	}
}

func TestBufferShrinkEvicts(t *testing.T) {
	d := NewDisk(16)
	b := NewBuffer(d, 4)
	var ids []PageID
	for i := 0; i < 4; i++ {
		id := d.Alloc()
		ids = append(ids, id)
		b.Read(id)
	}
	b.SetCapacity(1)
	cached := 0
	for _, id := range ids {
		if b.Contains(id) {
			cached++
		}
	}
	if cached != 1 {
		t.Fatalf("after shrink to 1, %d pages cached", cached)
	}
	if !b.Contains(ids[3]) {
		t.Fatal("most recently used page should survive the shrink")
	}
}

func TestBufferWriteThrough(t *testing.T) {
	d := NewDisk(16)
	b := NewBuffer(d, 2)
	id := d.Alloc()
	b.Write(id, []byte("first"))
	b.Write(id, []byte("secon"))
	// Data must be durable on disk regardless of cache state.
	b.DropAll()
	got := b.Read(id)
	if string(got[:5]) != "secon" {
		t.Fatalf("read %q after write-through", got[:5])
	}
	if s := b.Stats(); s.PageWrites != 2 {
		t.Fatalf("writes = %d, want 2", s.PageWrites)
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := Stats{LogicalReads: 10, PageReads: 5, PageWrites: 2, DecodeHits: 4}
	b := Stats{LogicalReads: 3, PageReads: 1, PageWrites: 1, DecodeHits: 1}
	if got := a.Sub(b); got != (Stats{LogicalReads: 7, PageReads: 4, PageWrites: 1, DecodeHits: 3}) {
		t.Fatalf("Sub = %+v", got)
	}
	if got := a.Add(b); got != (Stats{LogicalReads: 13, PageReads: 6, PageWrites: 3, DecodeHits: 5}) {
		t.Fatalf("Add = %+v", got)
	}
	if a.PageAccesses() != 7 {
		t.Fatalf("PageAccesses = %d", a.PageAccesses())
	}
}

func TestResetStatsKeepsCache(t *testing.T) {
	d := NewDisk(16)
	b := NewBuffer(d, 2)
	id := d.Alloc()
	b.Read(id)
	b.ResetStats()
	if s := b.Stats(); s != (Stats{}) {
		t.Fatalf("stats not reset: %+v", s)
	}
	b.Read(id)
	if s := b.Stats(); s.PageReads != 0 {
		t.Fatal("cache should have survived ResetStats")
	}
}

func TestBufferAlloc(t *testing.T) {
	d := NewDisk(16)
	b := NewBuffer(d, 2)
	id := b.Alloc()
	if d.NumPages() != 1 {
		t.Fatal("Alloc should allocate on the disk")
	}
	if s := b.Stats(); s.PageAccesses() != 0 {
		t.Fatal("Alloc itself should be free")
	}
	b.Write(id, []byte("a"))
	if s := b.Stats(); s.PageWrites != 1 {
		t.Fatal("write after alloc should cost one page write")
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
