package service

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"cij/internal/dataset"
	"cij/internal/geom"
)

// fakeDataset fabricates a registry entry with the given live
// cardinality and skew statistic, the only two fields plan() reads.
func fakeDataset(n int, skew float64) *Dataset {
	return &Dataset{Live: n, Skew: skew}
}

// TestPlanSelection covers every routing path of the auto planner plus
// the explicit choices, including the new grid branches.
func TestPlanSelection(t *testing.T) {
	// Pin a two-wide scheduler so the auto-parallel branch below, which
	// needs a pool of more than one worker, runs on every host.
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	uniform := func(n int) *Dataset { return fakeDataset(n, 1.0) }
	skewed := func(n int) *Dataset { return fakeDataset(n, 2*autoGridSkewMax) }

	cases := []struct {
		name        string
		q           Query
		left, right *Dataset
		wantAlgo    string
	}{
		{"auto small uniform -> grid", Query{}, uniform(500), uniform(500), "grid"},
		{"auto small left-skewed -> nm", Query{}, skewed(500), uniform(500), "nm"},
		{"auto small right-skewed -> nm", Query{}, uniform(500), skewed(500), "nm"},
		{"auto borderline skew -> grid", Query{}, fakeDataset(500, autoGridSkewMax), uniform(500), "grid"},
		{"auto explicit workers -> parallel", Query{Workers: 1}, uniform(100), uniform(100), "parallel"},
		{"explicit grid on skewed data honored", Query{Algo: "grid"}, skewed(500), skewed(500), "grid"},
		{"explicit nm honored", Query{Algo: "nm"}, uniform(100), uniform(100), "nm"},
		{"explicit parallel sizes pool", Query{Algo: "parallel"}, uniform(100), uniform(100), "parallel"},
	}
	for _, tc := range cases {
		ex, err := plan(tc.q, tc.left, tc.right)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		pl := ex.Plan
		if pl.Algo != tc.wantAlgo {
			t.Errorf("%s: planned %q, want %q", tc.name, pl.Algo, tc.wantAlgo)
		}
		if pl.Algo == "parallel" && (pl.Workers < 1 || pl.Workers > runtime.GOMAXPROCS(0)) {
			t.Errorf("%s: workers %d out of [1, GOMAXPROCS]", tc.name, pl.Workers)
		}
		if pl.Algo != "parallel" && pl.Workers != 0 {
			t.Errorf("%s: serial plan carries workers %d", tc.name, pl.Workers)
		}
	}

	if _, err := plan(Query{Algo: "pbsm"}, uniform(10), uniform(10)); err == nil {
		t.Fatal("unknown algo accepted")
	}

	// A joint cardinality covering two workers goes parallel whatever the
	// skew.
	big := uniform(2 * autoPointsPerWorker)
	for _, d := range []*Dataset{big, skewed(2 * autoPointsPerWorker)} {
		ex, err := plan(Query{}, d, big)
		if err != nil {
			t.Fatal(err)
		}
		pl := ex.Plan
		if pl.Algo != "parallel" || pl.Workers != 2 {
			t.Errorf("auto large join planned %q with %d workers, want parallel with 2 (skew %.1f)", pl.Algo, pl.Workers, d.Skew)
		}
	}
}

// Reason suffixes the storage decision appends to every tree-algorithm
// plan.
const (
	autoFlat      = "; storage auto-selects flat (datasets are in-memory, so joins read arena nodes decode-free)"
	explicitFlat  = "; flat storage requested explicitly (arena nodes, zero page I/O)"
	explicitPaged = "; paged storage requested explicitly (the paper's LRU-buffered disk format)"
	pinnedPaged   = "; paged storage (this algorithm materializes R-trees page by page)"
)

// TestPlanSelectionReasons pins plan's whole answer — algo, workers,
// storage and the exact narrated reason, or the exact error — for every
// TestPlanSelection row plus the pinned-storage and clamped-pool
// algorithms, under every storage value. Empty storage must plan exactly
// like "auto", and an unknown storage value fails first whatever the
// algorithm. The reasons are the explain=1 and journal wire text, so a
// change here is a visible API change.
func TestPlanSelectionReasons(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	uniform := func(n int) *Dataset { return fakeDataset(n, 1.0) }
	skewed := func(n int) *Dataset { return fakeDataset(n, 2*autoGridSkewMax) }
	big := uniform(2 * autoPointsPerWorker)

	type want struct {
		algo    string
		workers int
		storage string
		reason  string
		err     string
	}
	cases := []struct {
		name        string
		q           Query
		left, right *Dataset
		want        map[string]want
	}{
		{"auto small uniform", Query{}, uniform(500), uniform(500), map[string]want{
			"auto":  {"grid", 0, "", "serial-range join with near-uniform inputs (skew 1.0 and 1.0, both <= 32) routes to the in-memory grid", ""},
			"paged": {"nm", 0, "paged", "explicit storage \"paged\" restricts algo-auto to the tree algorithms; serial range selects NM-CIJ" + explicitPaged, ""},
			"flat":  {"nm", 0, "flat", "explicit storage \"flat\" restricts algo-auto to the tree algorithms; serial range selects NM-CIJ" + explicitFlat, ""},
		}},
		{"auto small left-skewed", Query{}, skewed(500), uniform(500), map[string]want{
			"auto":  {"nm", 0, "flat", "serial-range join too skewed for the grid (skew 64.0 and 1.0 vs gate 32) falls back to NM-CIJ" + autoFlat, ""},
			"paged": {"nm", 0, "paged", "explicit storage \"paged\" restricts algo-auto to the tree algorithms; serial range selects NM-CIJ" + explicitPaged, ""},
			"flat":  {"nm", 0, "flat", "explicit storage \"flat\" restricts algo-auto to the tree algorithms; serial range selects NM-CIJ" + explicitFlat, ""},
		}},
		{"auto small right-skewed", Query{}, uniform(500), skewed(500), map[string]want{
			"auto":  {"nm", 0, "flat", "serial-range join too skewed for the grid (skew 1.0 and 64.0 vs gate 32) falls back to NM-CIJ" + autoFlat, ""},
			"paged": {"nm", 0, "paged", "explicit storage \"paged\" restricts algo-auto to the tree algorithms; serial range selects NM-CIJ" + explicitPaged, ""},
			"flat":  {"nm", 0, "flat", "explicit storage \"flat\" restricts algo-auto to the tree algorithms; serial range selects NM-CIJ" + explicitFlat, ""},
		}},
		{"auto borderline skew", Query{}, fakeDataset(500, autoGridSkewMax), uniform(500), map[string]want{
			"auto":  {"grid", 0, "", "serial-range join with near-uniform inputs (skew 32.0 and 1.0, both <= 32) routes to the in-memory grid", ""},
			"paged": {"nm", 0, "paged", "explicit storage \"paged\" restricts algo-auto to the tree algorithms; serial range selects NM-CIJ" + explicitPaged, ""},
			"flat":  {"nm", 0, "flat", "explicit storage \"flat\" restricts algo-auto to the tree algorithms; serial range selects NM-CIJ" + explicitFlat, ""},
		}},
		{"auto explicit workers", Query{Workers: 1}, uniform(100), uniform(100), map[string]want{
			"auto":  {"parallel", 1, "flat", "explicit worker count 1 selects the parallel engine (clamped to 1)" + autoFlat, ""},
			"paged": {"parallel", 1, "paged", "explicit worker count 1 selects the parallel engine (clamped to 1)" + explicitPaged, ""},
			"flat":  {"parallel", 1, "flat", "explicit worker count 1 selects the parallel engine (clamped to 1)" + explicitFlat, ""},
		}},
		{"explicit grid on skewed data", Query{Algo: "grid"}, skewed(500), skewed(500), map[string]want{
			"auto":  {"grid", 0, "", "algorithm \"grid\" requested explicitly", ""},
			"paged": {err: "storage \"paged\" does not apply to the grid backend (it joins raw pointsets, no tree)"},
			"flat":  {err: "storage \"flat\" does not apply to the grid backend (it joins raw pointsets, no tree)"},
		}},
		{"explicit nm", Query{Algo: "nm"}, uniform(100), uniform(100), map[string]want{
			"auto":  {"nm", 0, "flat", "algorithm \"nm\" requested explicitly" + autoFlat, ""},
			"paged": {"nm", 0, "paged", "algorithm \"nm\" requested explicitly" + explicitPaged, ""},
			"flat":  {"nm", 0, "flat", "algorithm \"nm\" requested explicitly" + explicitFlat, ""},
		}},
		{"explicit parallel sizes pool", Query{Algo: "parallel"}, uniform(100), uniform(100), map[string]want{
			"auto":  {"parallel", 1, "flat", "algorithm \"parallel\" requested explicitly; pool auto-sized to 1 workers from 200 joint points at 25000 points/worker" + autoFlat, ""},
			"paged": {"parallel", 1, "paged", "algorithm \"parallel\" requested explicitly; pool auto-sized to 1 workers from 200 joint points at 25000 points/worker" + explicitPaged, ""},
			"flat":  {"parallel", 1, "flat", "algorithm \"parallel\" requested explicitly; pool auto-sized to 1 workers from 200 joint points at 25000 points/worker" + explicitFlat, ""},
		}},
		{"unknown algo", Query{Algo: "pbsm"}, uniform(10), uniform(10), map[string]want{
			"auto":  {err: "unknown algo \"pbsm\" (want nm, pm, fm, parallel, grid or auto)"},
			"paged": {err: "unknown algo \"pbsm\" (want nm, pm, fm, parallel, grid or auto)"},
			"flat":  {err: "unknown algo \"pbsm\" (want nm, pm, fm, parallel, grid or auto)"},
		}},
		{"auto large uniform", Query{}, big, big, map[string]want{
			"auto":  {"parallel", 2, "flat", "joint cardinality 100000 covers 2 workers at 25000 points/worker, so the join parallelizes" + autoFlat, ""},
			"paged": {"parallel", 2, "paged", "joint cardinality 100000 covers 2 workers at 25000 points/worker, so the join parallelizes" + explicitPaged, ""},
			"flat":  {"parallel", 2, "flat", "joint cardinality 100000 covers 2 workers at 25000 points/worker, so the join parallelizes" + explicitFlat, ""},
		}},
		{"auto large skewed", Query{}, skewed(2 * autoPointsPerWorker), big, map[string]want{
			"auto":  {"parallel", 2, "flat", "joint cardinality 100000 covers 2 workers at 25000 points/worker, so the join parallelizes" + autoFlat, ""},
			"paged": {"parallel", 2, "paged", "joint cardinality 100000 covers 2 workers at 25000 points/worker, so the join parallelizes" + explicitPaged, ""},
			"flat":  {"parallel", 2, "flat", "joint cardinality 100000 covers 2 workers at 25000 points/worker, so the join parallelizes" + explicitFlat, ""},
		}},
		{"explicit pm", Query{Algo: "pm"}, uniform(100), uniform(100), map[string]want{
			"auto":  {"pm", 0, "paged", "algorithm \"pm\" requested explicitly" + pinnedPaged, ""},
			"paged": {"pm", 0, "paged", "algorithm \"pm\" requested explicitly" + explicitPaged, ""},
			"flat":  {err: "algo \"pm\" materializes Voronoi R-trees page by page and cannot run on flat storage"},
		}},
		{"explicit fm", Query{Algo: "fm"}, uniform(100), uniform(100), map[string]want{
			"auto":  {"fm", 0, "paged", "algorithm \"fm\" requested explicitly" + pinnedPaged, ""},
			"paged": {"fm", 0, "paged", "algorithm \"fm\" requested explicitly" + explicitPaged, ""},
			"flat":  {err: "algo \"fm\" materializes Voronoi R-trees page by page and cannot run on flat storage"},
		}},
		{"explicit parallel workers 3", Query{Algo: "parallel", Workers: 3}, uniform(100), uniform(100), map[string]want{
			"auto":  {"parallel", 2, "flat", "algorithm \"parallel\" requested explicitly" + autoFlat, ""},
			"paged": {"parallel", 2, "paged", "algorithm \"parallel\" requested explicitly" + explicitPaged, ""},
			"flat":  {"parallel", 2, "flat", "algorithm \"parallel\" requested explicitly" + explicitFlat, ""},
		}},
	}
	for _, tc := range cases {
		for _, stor := range []string{"", "auto", "paged", "flat", "ssd"} {
			w, ok := tc.want[stor]
			switch stor {
			case "":
				w, ok = tc.want["auto"]
			case "ssd":
				w, ok = want{err: `unknown storage "ssd" (want paged, flat or auto)`}, true
			}
			if !ok {
				t.Fatalf("%s: no expectation for storage %q", tc.name, stor)
			}
			q := tc.q
			q.Storage = stor
			ex, err := plan(q, tc.left, tc.right)
			if w.err != "" {
				if err == nil || err.Error() != w.err {
					t.Errorf("%s/storage=%q: err %v, want %q", tc.name, stor, err, w.err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s/storage=%q: %v", tc.name, stor, err)
				continue
			}
			got := want{ex.Plan.Algo, ex.Plan.Workers, ex.Plan.Storage, ex.Reason, ""}
			if got != w {
				t.Errorf("%s/storage=%q:\n got %+v\nwant %+v", tc.name, stor, got, w)
			}
			if ex.Inputs != planInputs(tc.left, tc.right) {
				t.Errorf("%s/storage=%q: inputs %+v", tc.name, stor, ex.Inputs)
			}
		}
	}
}

// TestIngestComputesSkew pins the ingest-time statistic the auto plan
// routes on: near 1 for uniform data, between 1 and the gate for
// ordinary clustered data (which the measurements say grid should still
// take), far above the gate for a near-point-mass dataset.
func TestIngestComputesSkew(t *testing.T) {
	svc := New(Config{})
	u, err := svc.Ingest("u", dataset.Uniform(5000, 91))
	if err != nil {
		t.Fatal(err)
	}
	c, err := svc.Ingest("c", dataset.Clustered(5000, 8, 92))
	if err != nil {
		t.Fatal(err)
	}
	// Every point inside one tiny patch: the whole dataset lands in one
	// histogram tile, the regime where the grid backend goes quadratic.
	mass := make([]geom.Point, 5000)
	for i := range mass {
		mass[i] = geom.Pt(5000+float64(i%50)*0.1, 5000+float64(i/50)*0.1)
	}
	m, err := svc.Ingest("m", mass)
	if err != nil {
		t.Fatal(err)
	}
	if u.Skew <= 0 || u.Skew > 2 {
		t.Fatalf("uniform ingest skew %.2f, want ~1", u.Skew)
	}
	if c.Skew <= 2 || c.Skew > autoGridSkewMax {
		t.Fatalf("clustered ingest skew %.2f, want in (2, %d]", c.Skew, autoGridSkewMax)
	}
	if m.Skew <= autoGridSkewMax {
		t.Fatalf("point-mass ingest skew %.2f, want > %d", m.Skew, autoGridSkewMax)
	}
}

// TestConcurrentAutoAndGridJoins drives the new planner paths (auto->grid
// and explicit grid) from many goroutines against one service while a
// writer re-ingests, so `go test -race` patrols the grid execution path
// and the skew statistic's publication through the registry.
func TestConcurrentAutoAndGridJoins(t *testing.T) {
	svc := New(Config{CacheEntries: -1})
	if _, err := svc.Ingest("p", dataset.Uniform(400, 71)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest("q", dataset.Uniform(400, 72)); err != nil {
		t.Fatal(err)
	}

	queries := []Query{
		{Left: "p", Right: "q"},               // auto -> grid
		{Left: "p", Right: "q", Algo: "grid"}, // explicit grid
		{Left: "p", Right: "q", Algo: "nm"},   // serial baseline
		{Left: "q", Right: "p", Algo: "grid"}, // reversed operands
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		q := queries[i%len(queries)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				out, err := svc.Join(context.Background(), q, execHooks{})
				if err != nil {
					t.Errorf("join %+v: %v", q, err)
					return
				}
				if out.Result.Count == 0 {
					t.Errorf("join %+v: empty result", q)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 5; j++ {
			if _, err := svc.Ingest("p", dataset.Uniform(400, int64(100+j))); err != nil {
				t.Errorf("re-ingest: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}
