// Pages guard: the paper's I/O metric is the whole point of the
// reproduction, so the Fig. 7 page counts are pinned here as constants.
// CPU-side work — flat arenas, geometric fast paths, allocation
// pooling — must never move a single page access; if it does,
// this test (run by the CI bench-smoke job and the regular suite) fails
// the build instead of letting the regression ship inside a "faster"
// benchmark record.
package cij_test

import (
	"testing"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/exp"
)

// TestFig7PagesMatchBaseline recomputes the Fig. 7 experiments at the
// benchmark cardinality and asserts byte-identical pages/op against the
// pinned counts for NM, PM and FM.
func TestFig7PagesMatchBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 7 joins; the bench-smoke CI job runs this without -short")
	}
	algos := []struct {
		bench string
		pages int64 // pinned pages/op
		run   func(e *exp.Env) core.Result
	}{
		{"BenchmarkFig7_NMCIJ", 6279, func(e *exp.Env) core.Result {
			return core.NMCIJ(e.RP, e.RQ, exp.Domain, core.Options{Reuse: true})
		}},
		{"BenchmarkFig7_PMCIJ", 9788, func(e *exp.Env) core.Result {
			return core.PMCIJ(e.RP, e.RQ, exp.Domain, core.Options{})
		}},
		{"BenchmarkFig7_FMCIJ", 12810, func(e *exp.Env) core.Result {
			return core.FMCIJ(e.RP, e.RQ, exp.Domain, core.Options{})
		}},
	}
	for _, a := range algos {
		// Identical setup to benchCIJ in bench_test.go: fresh env, cold
		// buffer, fixed seeds.
		env := exp.BuildEnv(dataset.Uniform(benchN, 1), dataset.Uniform(benchN, 2),
			exp.DefaultPageSize, exp.DefaultBufferPct)
		got := a.run(env).Stats.PageAccesses()
		if got != a.pages {
			t.Errorf("%s: pages/op = %d, pinned baseline %d — an optimization moved the paper's I/O metric",
				a.bench, got, a.pages)
		}
	}
}
