package grid

import (
	"testing"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/obs"
)

// TestTraceSumsToStats pins the trace/stats reconciliation for the grid
// backend: the tile span's Candidates/TrueHits equal the aggregate Stats,
// PCells rides the P-diagram span, no I/O counter ever appears — the
// backend performs none — and no span folds into an overflow span.
func TestTraceSumsToStats(t *testing.T) {
	p := dataset.Clustered(700, 6, 51)
	q := dataset.Uniform(600, 52)

	// Target 4 gives the joint grid 18×18 tiles, more than the trace's
	// span cap, so a span per tile would overflow.
	for _, target := range []int{0, 4} {
		opts := DefaultOptions()
		opts.TargetPerCell = target
		opts.Trace = obs.NewTrace()
		res := Join(p, q, dataset.Domain, opts)
		if len(res.Pairs) == 0 {
			t.Fatal("no pairs")
		}

		total := opts.Trace.Total()
		if total.Candidates != res.Stats.Candidates || total.TrueHits != res.Stats.TrueHits {
			t.Fatalf("target %d: trace filter counters %+v != stats %+v", target, total, res.Stats)
		}
		if total.PCells != res.Stats.PCellsComputed {
			t.Fatalf("target %d: trace p-cells %d != stats %d", target, total.PCells, res.Stats.PCellsComputed)
		}
		if total.PagesRead != 0 || total.PagesWritten != 0 || total.LogicalReads != 0 {
			t.Fatalf("target %d: grid trace reported I/O: %+v", target, total)
		}

		phases := map[string]bool{}
		for _, sp := range opts.Trace.Spans() {
			phases[sp.Phase] = true
			if sp.Tag == obs.OverflowTag {
				t.Fatalf("target %d: span %s/%s folded into the overflow span", target, sp.Phase, sp.Tag)
			}
		}
		for _, want := range []string{"voronoi", "replicate", "tile", "join"} {
			if !phases[want] {
				t.Fatalf("target %d: missing phase %q in %v", target, want, phases)
			}
		}
	}
}

// TestTraceDoesNotPerturbResult: the traced pair set and counters equal
// the untraced ones.
func TestTraceDoesNotPerturbResult(t *testing.T) {
	p := dataset.Uniform(500, 61)
	q := dataset.Clustered(500, 5, 62)

	plain := Join(p, q, dataset.Domain, DefaultOptions())
	opts := DefaultOptions()
	opts.Trace = obs.NewTrace()
	traced := Join(p, q, dataset.Domain, opts)
	if !core.SamePairs(plain.Pairs, traced.Pairs) {
		t.Fatal("tracing changed the grid pair set")
	}
	if plain.Stats.Candidates != traced.Stats.Candidates || plain.Stats.TrueHits != traced.Stats.TrueHits {
		t.Fatal("tracing perturbed grid counters")
	}
}
