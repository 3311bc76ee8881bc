package check

import (
	"fmt"
	"testing"

	"cij/internal/core"
	"cij/internal/exp"
	"cij/internal/parallel"
)

// TestFlatPagedEquivalence pins the flat storage mode to the paged one at
// full strictness on a slice of the seed matrix: the emitted pair
// SEQUENCE (order included, stronger than the multiset equality of the
// oracle suite) must be byte-identical, the flat run must be free of page
// I/O and decode misses, and its logical reads — the node-access metric —
// must equal the paged run's exactly. A divergence in the sequence means
// the arena renumbering leaked into traversal order; a logical-read drift
// means the ledger miscounts node accesses.
func TestFlatPagedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ps := Generate(seed)
			env := exp.BuildEnv(ps.P, ps.Q, exp.DefaultPageSize, exp.DefaultBufferPct)
			frp, frq := env.Flat() // freeze first; Flat resets to cold

			paged := core.NMCIJ(env.RP, env.RQ, exp.Domain, core.DefaultOptions())
			pagedIO := env.Buf.Stats()

			env.Reset()
			flat := core.NMCIJ(frp, frq, exp.Domain, core.DefaultOptions())
			flatIO := frp.Buffer().Stats()

			if len(flat.Pairs) != len(paged.Pairs) {
				t.Fatalf("flat emitted %d pairs, paged %d", len(flat.Pairs), len(paged.Pairs))
			}
			for i := range flat.Pairs {
				if flat.Pairs[i] != paged.Pairs[i] {
					t.Fatalf("pair %d: flat %v != paged %v (emission order diverged)",
						i, flat.Pairs[i], paged.Pairs[i])
				}
			}
			if flatIO.PageAccesses() != 0 {
				t.Errorf("flat run performed %d page accesses, want 0", flatIO.PageAccesses())
			}
			if pagedIO.DecodeHits != 0 {
				t.Errorf("paged run counted %d decode hits, want 0 (paged reads always parse)", pagedIO.DecodeHits)
			}
			if flatIO.DecodeHits != flatIO.LogicalReads {
				t.Errorf("flat DecodeHits %d != LogicalReads %d (every flat read is decode-free)",
					flatIO.DecodeHits, flatIO.LogicalReads)
			}
			if flatIO.LogicalReads != pagedIO.LogicalReads {
				t.Errorf("flat LogicalReads %d != paged %d — the storage mode moved the node-access metric",
					flatIO.LogicalReads, pagedIO.LogicalReads)
			}
		})
	}
}

// TestFlatStatsEquivalenceParallel is the same pinning for the parallel
// engine: summed worker-fork stats of a flat run carry zero page I/O and
// the paged run's pair multiset.
func TestFlatStatsEquivalenceParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by `make prop`")
	}
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ps := Generate(seed)
			env := exp.BuildEnv(ps.P, ps.Q, exp.DefaultPageSize, exp.DefaultBufferPct)
			frp, frq := env.Flat()

			popts := parallel.DefaultOptions()
			popts.Workers = 3
			paged := parallel.Join(env.RP, env.RQ, exp.Domain, popts)
			env.Reset()
			flat := parallel.Join(frp, frq, exp.Domain, popts)

			if !core.SamePairs(flat.Pairs, paged.Pairs) {
				t.Fatalf("flat parallel pair multiset diverged: got %d pairs, want %d",
					len(flat.Pairs), len(paged.Pairs))
			}
			flatIO := flat.Stats.Mat.Add(flat.Stats.Join)
			if flatIO.PageAccesses() != 0 {
				t.Errorf("flat parallel run moved page counters: %+v", flatIO)
			}
		})
	}
}
