// Flat-storage guard: the companion of the pages guard. Flat mode's
// whole claim is "same join, same answer, zero page I/O" — so at the
// benchmark cardinality the flat run must emit the byte-identical pair
// sequence of the paged run while reporting no page accesses and no
// decode misses. If a flat-path change ever starts touching the page
// layer (or drifting the result), this test fails the build.
package cij_test

import (
	"testing"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/exp"
)

// TestFlatModeZeroPages runs NM-CIJ at the benchmark cardinality on both
// backends and pins the flat run's result and cost profile to the paged
// baseline.
func TestFlatModeZeroPages(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark-scale joins; `make pages-guard` and CI run this without -short")
	}
	env := exp.BuildEnv(dataset.Uniform(benchN, 1), dataset.Uniform(benchN, 2),
		exp.DefaultPageSize, exp.DefaultBufferPct)
	frp, frq := env.Flat()

	paged := core.NMCIJ(env.RP, env.RQ, exp.Domain, core.Options{Reuse: true})
	pagedIO := env.Buf.Stats()
	env.Reset()
	flat := core.NMCIJ(frp, frq, exp.Domain, core.Options{Reuse: true})
	flatIO := frp.Buffer().Stats()

	if len(flat.Pairs) != len(paged.Pairs) {
		t.Fatalf("flat emitted %d pairs, paged %d", len(flat.Pairs), len(paged.Pairs))
	}
	for i := range flat.Pairs {
		if flat.Pairs[i] != paged.Pairs[i] {
			t.Fatalf("pair %d: flat %v, paged %v — emission order diverged", i, flat.Pairs[i], paged.Pairs[i])
		}
	}
	if pages := flatIO.PageAccesses(); pages != 0 {
		t.Errorf("flat join performed %d page accesses, want 0", pages)
	}
	if pagedIO.DecodeHits != 0 {
		t.Errorf("paged join reported %d decode hits, want 0 (paged reads always parse)", pagedIO.DecodeHits)
	}
	if flatIO.DecodeHits != flatIO.LogicalReads {
		t.Errorf("flat join: %d decode hits vs %d logical reads, want equal (every read decode-free)",
			flatIO.DecodeHits, flatIO.LogicalReads)
	}
	if flatIO.LogicalReads != pagedIO.LogicalReads {
		t.Errorf("flat join read %d nodes, paged read %d — the traversals diverged",
			flatIO.LogicalReads, pagedIO.LogicalReads)
	}
	if pagedIO.PageAccesses() == 0 {
		t.Error("paged baseline reported zero page accesses — the guard is not guarding")
	}
}
