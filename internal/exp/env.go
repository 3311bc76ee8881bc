// Package exp is the experiment harness: one entry point per table and
// figure of the paper's evaluation (Section V), each regenerating the
// corresponding rows/series with this repository's implementations.
// cmd/cijbench drives them at paper scale; bench_test.go at reduced scale.
//
// Defaults follow Section V: domain [0,10000]², 1 KB pages, |P| = |Q| =
// 100K uniform points, LRU buffer = 2% of the data size on disk, 10 ms
// charged per physical page access.
package exp

import (
	"time"

	"cij/internal/dataset"
	"cij/internal/geom"
	"cij/internal/rtree"
	"cij/internal/storage"
)

// Defaults of the experimental section.
const (
	DefaultPageSize  = storage.DefaultPageSize
	DefaultBufferPct = 2.0
	// PageAccessCost is the charged cost per random page access used in
	// the paper's I/O-vs-CPU discussion ("if we charge a typical 10ms for
	// each random disk page access").
	PageAccessCost = 10 * time.Millisecond
)

// Domain is the normalized experiment domain.
var Domain = dataset.Domain

// Env is one experimental setup: two point R-trees sharing a disk and an
// LRU buffer sized as a percentage of the data size on disk.
type Env struct {
	Buf *storage.Buffer
	RP  *rtree.Tree
	RQ  *rtree.Tree
	// DataPages is the page count of the two input trees (the "data size
	// on disk" that buffer percentages refer to).
	DataPages int

	// Flat-mode lazies (Flat): the two trees frozen onto one shared stats
	// ledger, mirroring the paged setup's single shared buffer so
	// collectors that meter RP's buffer see the combined node accesses.
	flatRP, flatRQ *rtree.Tree
	flatLedger     *storage.Buffer
}

// BuildEnv indexes p and q on a fresh simulated disk and sizes the buffer
// to bufferPct% of the resulting data pages. Counters are reset and the
// cache dropped, so measurements start cold.
func BuildEnv(p, q []geom.Point, pageSize int, bufferPct float64) *Env {
	disk := storage.NewDisk(pageSize)
	// Build with an unbounded-ish buffer; measurement capacity is set
	// afterwards, once the data size is known.
	buf := storage.NewBuffer(disk, 1<<30)
	rp := rtree.BulkLoadPoints(buf, p, Domain, 1)
	rq := rtree.BulkLoadPoints(buf, q, Domain, 1)
	env := &Env{Buf: buf, RP: rp, RQ: rq}
	env.DataPages = rp.NumPages() + rq.NumPages()
	env.SetBufferPct(bufferPct)
	env.Reset()
	return env
}

// SetBufferPct resizes the LRU buffer to pct% of the data pages (at least
// one page unless pct is zero).
func (e *Env) SetBufferPct(pct float64) {
	e.Buf.SetCapacity(storage.CapacityFor(e.DataPages, pct))
}

// Reset drops the cache and zeroes counters: the next measurement starts
// cold. The flat ledger (when Flat has been called) is zeroed too.
func (e *Env) Reset() {
	e.Buf.DropAll()
	e.Buf.ResetStats()
	if e.flatLedger != nil {
		e.flatLedger.ResetStats()
	}
}

// Flat returns the environment's two trees in flat (arena-resident) form,
// frozen on first use onto ONE shared stats ledger — the flat analogue of
// the paged setup's single shared buffer, so algorithms that meter RP's
// buffer capture the node accesses of both trees, exactly as they do in
// paged mode. Freezing reads through the paged buffer, so the paged cache
// is dropped and both stat sets zeroed afterwards: whichever mode runs
// next starts cold.
func (e *Env) Flat() (rp, rq *rtree.Tree) {
	if e.flatRP == nil {
		ledger := storage.NewFlatLedger(e.Buf.Disk())
		e.flatRP = e.RP.FreezeWith(ledger)
		e.flatRQ = e.RQ.FreezeWith(ledger)
		e.flatLedger = ledger
		e.Reset()
	}
	return e.flatRP, e.flatRQ
}

// LowerBound returns the LB of the paper's CIJ plots: the I/O cost of
// traversing both input trees exactly once. Footnote 3: every point of P
// and Q participates in the result, so any algorithm must visit all of
// both trees.
func (e *Env) LowerBound() int64 {
	return int64(e.DataPages)
}

// ChargedCost converts physical page accesses to charged time under the
// paper's 10 ms/page model and adds the measured CPU time.
func ChargedCost(pages int64, cpu time.Duration) time.Duration {
	return time.Duration(pages)*PageAccessCost + cpu
}
