package rtree

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"cij/internal/geom"
	"cij/internal/storage"
)

// fuzzPageSize keeps seed images small — the fuzzer minimizes every new
// interesting input, which is slow on large ones: a 128-byte page holds 5
// points, 3 internal entries or 2 triangles, so a few dozen objects
// already span three levels.
const fuzzPageSize = 128

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// reseal rewrites the framing of a page-file image (see the format in
// storage/pagefile.go) after mutation: magic, page count, header CRC and
// every frame's id and CRC. Mutated page payloads then pass OpenDiskFile's
// checksum checks and reach the tree decoder, which is what the restore
// fuzz target is after. A trailing partial frame is dropped.
func reseal(img []byte) []byte {
	const header, frameHeader = 24, 8
	if len(img) < header {
		return img
	}
	pageSize := int(binary.LittleEndian.Uint32(img[8:12]))
	if pageSize <= 0 || pageSize > 1<<20 {
		return img
	}
	frame := frameHeader + pageSize
	n := (len(img) - header) / frame
	img = img[:header+n*frame]
	copy(img[0:8], "CIJPAGE1")
	binary.LittleEndian.PutUint32(img[12:16], uint32(n))
	binary.LittleEndian.PutUint32(img[16:20], crc32.Checksum(img[0:16], castagnoli))
	for i := 0; i < n; i++ {
		off := header + i*frame
		binary.LittleEndian.PutUint32(img[off+4:off+8], uint32(i))
		crc := crc32.Update(0, castagnoli, img[off+4:off+8]) // page id || payload
		crc = crc32.Update(crc, castagnoli, img[off+frameHeader:off+frame])
		binary.LittleEndian.PutUint32(img[off:off+4], crc)
	}
	return img
}

// FuzzPageFileRestore drives the restore path over fuzzer-chosen page
// files: a page-file image (re-checksummed, so damage reaches the
// decoder) and a tree header go through OpenDiskFile → Open →
// CheckInvariants → AllEntries. Every step may reject the input with an
// error; none may panic, and a tree that passes its invariants must
// return exactly Size() entries.
//
// Run it with:
//
//	go test -run '^$' -fuzz FuzzPageFileRestore -fuzzminimizetime 1x ./internal/rtree
//
// Inputs are kilobyte images, and the fuzzer's default minimization of
// every new interesting input (up to 60 s each) would stall a bounded run.
func FuzzPageFileRestore(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	seed := func(tr *Tree) {
		m := tr.Meta()
		f.Add(storage.EncodeDiskImage(tr.Buffer().Disk()), uint8(m.Kind), int64(m.Root), m.Height, m.Size)
	}
	newSeedBuf := func() *storage.Buffer { return storage.NewBuffer(storage.NewDisk(fuzzPageSize), 0) }

	seed(BulkLoadPoints(newSeedBuf(), randPoints(rng, 40), testDomain, 1))
	items := make([]PolygonItem, 16)
	for i := range items {
		x, y := rng.Float64()*9000, rng.Float64()*9000
		items[i] = PolygonItem{ID: int64(i), Poly: geom.Polygon{V: []geom.Point{
			geom.Pt(x, y), geom.Pt(x+100, y), geom.Pt(x, y+100),
		}}}
	}
	seed(PackPolygons(newSeedBuf(), items))

	f.Fuzz(func(t *testing.T, img []byte, kind uint8, root int64, height, size int) {
		if len(img) > 1<<16 {
			t.Skip("bounded input keeps each run fast")
		}
		img = reseal(append([]byte(nil), img...))
		fs := storage.NewFaultFS()
		if err := storage.WriteFileAtomic(fs, "tree.pages", img); err != nil {
			t.Fatal(err)
		}
		disk, err := storage.OpenDiskFile(fs, "tree.pages")
		if err != nil {
			return
		}
		tr, err := Open(storage.NewBuffer(disk, 0), Meta{Kind: Kind(kind), Root: storage.PageID(root), Height: height, Size: size})
		if err != nil {
			return
		}
		if err := tr.CheckInvariants(); err != nil {
			return
		}
		if got := len(tr.AllEntries()); got != tr.Size() {
			t.Fatalf("tree passed its invariants but holds %d entries, header says %d", got, tr.Size())
		}
	})
}
