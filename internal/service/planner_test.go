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
		pl, err := plan(tc.q, tc.left, tc.right)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
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
		pl, err := plan(Query{}, d, big)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Algo != "parallel" || pl.Workers != 2 {
			t.Errorf("auto large join planned %q with %d workers, want parallel with 2 (skew %.1f)", pl.Algo, pl.Workers, d.Skew)
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
