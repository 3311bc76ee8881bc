package rtree

import (
	"fmt"

	"cij/internal/storage"
)

// Meta is the handful of header fields a Tree needs beyond its pages: the
// durable tier persists it in the manifest next to each page file, and
// Open rebuilds the identical handle from the two. Everything else (entry
// capacities, minimum fill) is derived from the page size exactly as New
// derives it, so a reopened tree behaves — and paginates — identically.
type Meta struct {
	Kind   Kind           `json:"kind"`
	Root   storage.PageID `json:"root"`
	Height int            `json:"height"`
	Size   int            `json:"size"`
}

// Meta returns the tree's header for persistence.
func (t *Tree) Meta() Meta {
	return Meta{Kind: t.kind, Root: t.root, Height: t.height, Size: t.size}
}

// Open attaches a Tree handle to an existing disk image: buf's disk holds
// the tree's pages (typically restored via storage.OpenDiskFile) and meta
// carries the header persisted alongside them. The returned tree is fully
// equivalent to the one the pages were written by — same capacities, same
// page layout, mutable via CloneMut like any other.
func Open(buf *storage.Buffer, meta Meta) (*Tree, error) {
	if meta.Kind != KindPoints && meta.Kind != KindPolygons {
		return nil, fmt.Errorf("rtree: unknown tree kind %d", meta.Kind)
	}
	if ps := buf.Disk().PageSize(); MaxInternalEntries(ps) < 2 || MaxPointEntries(ps) < 2 {
		return nil, fmt.Errorf("rtree: page size %d too small", ps)
	}
	t := New(buf, meta.Kind)
	if meta.Root != storage.InvalidPage {
		if meta.Root < 0 || int(meta.Root) >= buf.Disk().NumPages() {
			return nil, fmt.Errorf("rtree: meta root %d outside disk of %d pages", meta.Root, buf.Disk().NumPages())
		}
		if meta.Height < 1 || meta.Size < 0 {
			return nil, fmt.Errorf("rtree: implausible meta (height %d, size %d)", meta.Height, meta.Size)
		}
	} else if meta.Height != 0 || meta.Size != 0 {
		return nil, fmt.Errorf("rtree: empty root with height %d, size %d", meta.Height, meta.Size)
	}
	t.root = meta.Root
	t.height = meta.Height
	t.size = meta.Size
	return t, nil
}
