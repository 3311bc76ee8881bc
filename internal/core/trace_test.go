package core

import (
	"math/rand"
	"testing"

	"cij/internal/obs"
	"cij/internal/storage"
)

// ioTotals projects a Stats aggregate onto the obs.Counters I/O fields,
// the common vocabulary the invariance assertions compare in.
func ioTotals(s storage.Stats) obs.Counters { return IOCounters(s) }

// assertTraceMatchesIO pins the accounting invariance the observability
// layer promises: the per-phase I/O deltas of a traced run sum exactly to
// the run's aggregate Stats.
func assertTraceMatchesIO(t *testing.T, name string, tr *obs.Trace, agg storage.Stats) {
	t.Helper()
	total := tr.Total()
	want := ioTotals(agg)
	if total.LogicalReads != want.LogicalReads ||
		total.PagesRead != want.PagesRead ||
		total.PagesWritten != want.PagesWritten ||
		total.DecodeHits != want.DecodeHits {
		t.Fatalf("%s: trace totals %+v do not reconcile with aggregate %+v", name, total, want)
	}
}

// TestTraceSumsToAggregateStats runs every serial algorithm twice over the
// paper's shared-buffer setting — once untraced, once traced — and checks
// that (a) tracing changes no result and no I/O counter, and (b) the trace
// spans sum to the aggregate Stats, I/O field for I/O field.
func TestTraceSumsToAggregateStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randPoints(rng, 1500)
	q := randPoints(rng, 1500)

	type algo struct {
		name string
		run  func(opts Options) Result
	}
	// A fresh environment per run: the shared buffer's counters and cache
	// state must start identical for the traced/untraced comparison.
	algos := []algo{
		{"nm", func(opts Options) Result {
			rp, rq, _ := buildPair(t, p, q, 32)
			return NMCIJ(rp, rq, testDomain, opts)
		}},
		{"pm", func(opts Options) Result {
			rp, rq, _ := buildPair(t, p, q, 32)
			return PMCIJ(rp, rq, testDomain, opts)
		}},
		{"fm", func(opts Options) Result {
			rp, rq, _ := buildPair(t, p, q, 32)
			return FMCIJ(rp, rq, testDomain, opts)
		}},
	}

	for _, a := range algos {
		plain := a.run(DefaultOptions())

		opts := DefaultOptions()
		opts.Trace = obs.NewTrace()
		traced := a.run(opts)

		if len(traced.Pairs) != len(plain.Pairs) {
			t.Fatalf("%s: tracing changed the result: %d pairs vs %d", a.name, len(traced.Pairs), len(plain.Pairs))
		}
		for i := range plain.Pairs {
			if plain.Pairs[i] != traced.Pairs[i] {
				t.Fatalf("%s: tracing perturbed pair %d: %v vs %v", a.name, i, plain.Pairs[i], traced.Pairs[i])
			}
		}
		pAgg := plain.Stats.Mat.Add(plain.Stats.Join)
		tAgg := traced.Stats.Mat.Add(traced.Stats.Join)
		if pAgg != tAgg {
			t.Fatalf("%s: tracing perturbed I/O accounting: %+v vs %+v", a.name, tAgg, pAgg)
		}

		assertTraceMatchesIO(t, a.name, opts.Trace, tAgg)
		total := opts.Trace.Total()
		if total.Candidates != traced.Stats.Candidates {
			t.Fatalf("%s: trace candidates %d != stats %d", a.name, total.Candidates, traced.Stats.Candidates)
		}
		if total.TrueHits != traced.Stats.TrueHits {
			t.Fatalf("%s: trace true hits %d != stats %d", a.name, total.TrueHits, traced.Stats.TrueHits)
		}
		if total.PCells != traced.Stats.PCellsComputed {
			t.Fatalf("%s: trace p-cells %d != stats %d", a.name, total.PCells, traced.Stats.PCellsComputed)
		}
		if len(opts.Trace.Spans()) == 0 {
			t.Fatalf("%s: traced run recorded no spans", a.name)
		}
	}
}

// TestTraceNMPhases pins the span set of a traced serial NM-CIJ run: the
// four pipeline phases plus the driver's traversal spans, each with
// plausible per-phase content.
func TestTraceNMPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randPoints(rng, 1200)
	q := randPoints(rng, 1200)
	rp, rq, _ := buildPair(t, p, q, 16)

	opts := DefaultOptions()
	opts.Trace = obs.NewTrace()
	res := NMCIJ(rp, rq, testDomain, opts)
	if len(res.Pairs) == 0 {
		t.Fatal("no pairs")
	}

	byPhase := map[string]obs.Span{}
	for _, sp := range opts.Trace.Spans() {
		byPhase[sp.Phase] = sp
	}
	for _, phase := range []string{"traverse", "voronoi", "filter", "refine", "join"} {
		if _, ok := byPhase[phase]; !ok {
			t.Fatalf("missing phase %q; got %v", phase, byPhase)
		}
	}
	// Batch count rides the voronoi spans; traversal sees one item per leaf.
	if byPhase["voronoi"].Items == 0 || byPhase["voronoi"].Items != byPhase["traverse"].Items {
		t.Fatalf("batch/leaf counts disagree: voronoi %d, traverse %d",
			byPhase["voronoi"].Items, byPhase["traverse"].Items)
	}
	if byPhase["filter"].Candidates != res.Stats.Candidates {
		t.Fatalf("filter span candidates %d != stats %d", byPhase["filter"].Candidates, res.Stats.Candidates)
	}
	if byPhase["refine"].PCells != res.Stats.PCellsComputed {
		t.Fatalf("refine span p-cells %d != stats %d", byPhase["refine"].PCells, res.Stats.PCellsComputed)
	}
	if byPhase["join"].TrueHits != res.Stats.TrueHits {
		t.Fatalf("join span hits %d != stats %d", byPhase["join"].TrueHits, res.Stats.TrueHits)
	}
}
