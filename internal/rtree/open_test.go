package rtree

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"cij/internal/geom"
	"cij/internal/storage"
)

func collectIDs(entries []Entry) []int64 {
	ids := make([]int64, len(entries))
	for i, e := range entries {
		ids[i] = e.ID
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// TestOpenFromSnapshot persists a built tree's pages through the page-file
// format and reattaches with Open: the reopened tree must be structurally
// identical and answer searches exactly like the original.
func TestOpenFromSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	buf := newBuf(t, 0)
	tr := New(buf, KindPoints)
	pts := randPoints(rng, 500)
	for i, p := range pts {
		tr.InsertPoint(int64(i), p)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	fs := storage.NewFaultFS()
	if err := storage.SaveDiskFile(fs, "tree.pages", buf.Disk()); err != nil {
		t.Fatalf("SaveDiskFile: %v", err)
	}
	disk, err := storage.OpenDiskFile(fs, "tree.pages")
	if err != nil {
		t.Fatalf("OpenDiskFile: %v", err)
	}
	got, err := Open(storage.NewBuffer(disk, 0), tr.Meta())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("reopened tree invariants: %v", err)
	}
	if got.Size() != tr.Size() || got.Height() != tr.Height() || got.Root() != tr.Root() {
		t.Fatalf("reopened header (%d,%d,%d) != original (%d,%d,%d)",
			got.Size(), got.Height(), got.Root(), tr.Size(), tr.Height(), tr.Root())
	}
	for trial := 0; trial < 20; trial++ {
		q := geom.NewRect(rng.Float64()*9000, rng.Float64()*9000, 800, 800)
		a := collectIDs(tr.RangeSearch(q))
		b := collectIDs(got.RangeSearch(q))
		if len(a) != len(b) {
			t.Fatalf("query %v: %d vs %d results after reopen", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %v: result %d differs (%d vs %d)", q, i, a[i], b[i])
			}
		}
	}

	// The reopened tree stays mutable: a COW clone accepts inserts.
	mbuf := storage.NewBuffer(got.Buffer().Disk().Clone(), 0)
	mut := got.CloneMut(mbuf)
	mut.InsertPoint(10_000, geom.Pt(1, 1))
	if mut.Size() != tr.Size()+1 {
		t.Fatalf("mutable clone of reopened tree: size %d", mut.Size())
	}
	if err := mut.CheckInvariants(); err != nil {
		t.Fatalf("mutated clone invariants: %v", err)
	}
}

func TestOpenEmptyTree(t *testing.T) {
	tr, err := Open(newBuf(t, 0), Meta{Kind: KindPoints, Root: storage.InvalidPage})
	if err != nil {
		t.Fatalf("Open empty: %v", err)
	}
	if tr.Size() != 0 || tr.Height() != 0 {
		t.Fatalf("empty open: size %d height %d", tr.Size(), tr.Height())
	}
}

func TestOpenRejectsBadMeta(t *testing.T) {
	cases := []Meta{
		{Kind: KindPoints, Root: 99, Height: 1, Size: 1},                  // root beyond disk
		{Kind: KindPoints, Root: storage.InvalidPage, Height: 2, Size: 5}, // empty root, nonzero shape
		{Kind: KindPoints, Root: -7, Height: 1, Size: 1},                  // negative root
		{Kind: 7, Root: storage.InvalidPage},                              // unknown kind
	}
	for i, m := range cases {
		if _, err := Open(newBuf(t, 0), m); err == nil {
			t.Errorf("case %d: Open accepted bad meta %+v", i, m)
		}
	}
	// A page file's header sets the page size; one too small for a node
	// is an error, not a panic in New.
	tiny := storage.NewBuffer(storage.NewDisk(16), 0)
	if _, err := Open(tiny, Meta{Kind: KindPoints, Root: storage.InvalidPage}); err == nil {
		t.Error("Open accepted a 16-byte page size")
	}
}

// TestOpenMalformedPageIsError restores a page file whose frames are all
// checksum-valid but whose pages lie: CheckInvariants must report each as
// an error rather than panic in the decoder.
func TestOpenMalformedPageIsError(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	buf := newBuf(t, 0)
	tr := BulkLoadPoints(buf, randPoints(rng, 500), testDomain, 1)
	root := tr.Root()

	cases := []struct {
		name   string
		page   storage.PageID
		damage func(p []byte)
	}{
		{"root entry count 60000", root, func(p []byte) { binary.LittleEndian.PutUint16(p[2:4], 60000) }},
		{"root leaf flag 7", root, func(p []byte) { p[1] = 7 }},
		{"root kind polygons", root, func(p []byte) { p[0] = byte(KindPolygons) }},
		{"child id past the disk", root, func(p []byte) { binary.LittleEndian.PutUint64(p[headerSize+32:], 1<<40) }},
		{"child id negative", root, func(p []byte) { binary.LittleEndian.PutUint64(p[headerSize+32:], 1<<63) }},
		{"child is the root", root, func(p []byte) { binary.LittleEndian.PutUint64(p[headerSize+32:], uint64(root)) }},
		{"leaf entry count 60000", tr.ReadNodeStable(root).Entries[0].Child, func(p []byte) { binary.LittleEndian.PutUint16(p[2:4], 60000) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			disk := buf.Disk().Clone()
			page := append([]byte(nil), disk.PageBytes(tc.page)...)
			tc.damage(page)
			storage.NewBuffer(disk, 0).Write(tc.page, page)

			fs := storage.NewFaultFS()
			if err := storage.SaveDiskFile(fs, "tree.pages", disk); err != nil {
				t.Fatalf("SaveDiskFile: %v", err)
			}
			restored, err := storage.OpenDiskFile(fs, "tree.pages")
			if err != nil {
				t.Fatalf("OpenDiskFile rejected a checksum-valid image: %v", err)
			}
			got, err := Open(storage.NewBuffer(restored, 0), tr.Meta())
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if err := got.CheckInvariants(); err == nil {
				t.Fatal("CheckInvariants accepted a malformed page")
			}
		})
	}
}
