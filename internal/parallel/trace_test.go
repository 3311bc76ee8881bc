package parallel_test

import (
	"strings"
	"testing"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/obs"
	"cij/internal/parallel"
)

// TestTraceSumsToAggregateStats pins the accounting invariance for the
// parallel engine: the partition span plus every worker's pipeline spans
// sum exactly to Stats.Join (partition traversal + all private forks),
// and the filter-quality counters reconcile too. Workers record into one
// shared trace concurrently, so running this under -race also guards
// obs.Trace.Add's thread-safety in its real usage.
func TestTraceSumsToAggregateStats(t *testing.T) {
	p := dataset.Clustered(900, 8, 31)
	q := dataset.Uniform(800, 32)
	rp, rq := buildTrees(t, p, q, 32)

	opts := parallel.DefaultOptions()
	opts.Workers = 4
	opts.Trace = obs.NewTrace()
	res := parallel.Join(rp, rq, dataset.Domain, opts)
	if len(res.Pairs) == 0 {
		t.Fatal("no pairs")
	}

	total := opts.Trace.Total()
	agg := core.IOCounters(res.Stats.Join)
	if total.LogicalReads != agg.LogicalReads ||
		total.PagesRead != agg.PagesRead ||
		total.PagesWritten != agg.PagesWritten ||
		total.DecodeHits != agg.DecodeHits {
		t.Fatalf("trace totals %+v do not reconcile with Stats.Join %+v", total, agg)
	}
	if total.Candidates != res.Stats.Candidates || total.TrueHits != res.Stats.TrueHits ||
		total.PCells != res.Stats.PCellsComputed {
		t.Fatalf("trace filter counters %+v != stats %+v", total, res.Stats)
	}

	// The span set holds the partition and merge stages plus per-worker
	// tagged pipeline phases.
	phases := map[string]bool{}
	workerTags := map[string]bool{}
	for _, sp := range opts.Trace.Spans() {
		phases[sp.Phase] = true
		if strings.HasPrefix(sp.Tag, "w") {
			workerTags[sp.Tag] = true
		}
	}
	for _, want := range []string{"partition", "merge", "voronoi", "filter", "refine", "join"} {
		if !phases[want] {
			t.Fatalf("missing phase %q in %v", want, phases)
		}
	}
	if len(workerTags) == 0 {
		t.Fatalf("no worker-tagged spans recorded")
	}
}

// TestTraceDoesNotPerturbResult: tracing must not change the pair set or
// the I/O accounting of a parallel run.
func TestTraceDoesNotPerturbResult(t *testing.T) {
	p := dataset.Uniform(600, 41)
	q := dataset.Uniform(600, 42)

	run := func(tr *obs.Trace, workers int) core.Result {
		rp, rq := buildTrees(t, p, q, 32)
		opts := parallel.DefaultOptions()
		opts.Workers = workers
		opts.Trace = tr
		return parallel.Join(rp, rq, dataset.Domain, opts)
	}
	plain := run(nil, 3)
	traced := run(obs.NewTrace(), 3)
	if !core.SamePairs(plain.Pairs, traced.Pairs) {
		t.Fatal("tracing changed the parallel pair set")
	}
	// I/O is only run-to-run deterministic with a single worker: with more,
	// dynamic unit assignment changes each fork's locality between runs
	// (traced or not), so the multi-worker comparison stops at the pair set.
	plain1 := run(nil, 1)
	traced1 := run(obs.NewTrace(), 1)
	if plain1.Stats.Join != traced1.Stats.Join {
		t.Fatalf("tracing perturbed I/O: %+v vs %+v", traced1.Stats.Join, plain1.Stats.Join)
	}
}
