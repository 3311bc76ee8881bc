package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/exp"
	"cij/internal/geom"
	"cij/internal/service"
)

// newTestServer spins a service (default config unless cfg given) with the
// two named pointsets ingested, behind httptest.
func newTestServer(t *testing.T, cfg service.Config, p, q []geom.Point) (*service.Service, *httptest.Server) {
	t.Helper()
	svc := service.New(cfg)
	if _, err := svc.Ingest("p", p); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest("q", q); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// postJoin issues POST /join and decodes the response.
func postJoin(t *testing.T, ts *httptest.Server, req service.JoinRequest) service.JoinResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /join %+v: status %d", req, resp.StatusCode)
	}
	var jr service.JoinResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return jr
}

// streamJoin issues GET /join/stream and parses the NDJSON stream into
// pair set, progress count and the summary line.
func streamJoin(t *testing.T, ts *httptest.Server, params string) (map[core.Pair]bool, int, service.StreamSummary) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/join/stream?" + params)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /join/stream?%s: status %d", params, resp.StatusCode)
	}
	pairs := make(map[core.Pair]bool)
	progress := 0
	var summary service.StreamSummary
	sawSummary := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if sawSummary {
			t.Fatalf("line after summary: %s", sc.Text())
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch probe.Type {
		case "pair":
			var p service.StreamPair
			if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
				t.Fatal(err)
			}
			pairs[core.Pair{P: p.P, Q: p.Q}] = true
		case "progress":
			progress++
		case "trace":
			// Parsed by the dedicated trace tests; tolerated here so shared
			// callers keep working with &trace=1.
		case "summary":
			if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
				t.Fatal(err)
			}
			sawSummary = true
		default:
			t.Fatalf("unknown stream line type %q", probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawSummary {
		t.Fatal("stream ended without a summary line")
	}
	return pairs, progress, summary
}

// serialReference computes the reference pair set with serial NM-CIJ on
// the single-disk experiment environment.
func serialReference(t *testing.T, p, q []geom.Point) map[core.Pair]bool {
	t.Helper()
	env := exp.BuildEnv(p, q, exp.DefaultPageSize, exp.DefaultBufferPct)
	res := core.NMCIJ(env.RP, env.RQ, exp.Domain, core.DefaultOptions())
	ref := make(map[core.Pair]bool, len(res.Pairs))
	for _, pr := range res.Pairs {
		ref[pr] = true
	}
	return ref
}

func pairSet(pairs []service.PairJSON) map[core.Pair]bool {
	m := make(map[core.Pair]bool, len(pairs))
	for _, p := range pairs {
		m[core.Pair{P: p.P, Q: p.Q}] = true
	}
	return m
}

func sameSet(t *testing.T, label string, got, want map[core.Pair]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("%s: missing pair %+v", label, p)
		}
	}
}

// testDistributions is the uniform × clustered grid of the acceptance
// criteria at test-friendly cardinality.
func testDistributions() map[string][2][]geom.Point {
	return map[string][2][]geom.Point{
		"uniform":   {dataset.Uniform(400, 11), dataset.Uniform(400, 12)},
		"clustered": {dataset.Clustered(400, 16, 13), dataset.Clustered(400, 12, 14)},
	}
}

// TestJoinEquivalence is the acceptance criterion: pairs returned via
// POST /join and streamed via GET /join/stream are set-equal to serial
// core results for every algorithm × distribution cell. The streaming
// check runs with the cache disabled, so it exercises the live emission
// path; the buffered check also covers the parallel plan.
func TestJoinEquivalence(t *testing.T) {
	for dist, pq := range testDistributions() {
		p, q := pq[0], pq[1]
		want := serialReference(t, p, q)
		_, buffered := newTestServer(t, service.Config{}, p, q)
		_, streaming := newTestServer(t, service.Config{CacheEntries: -1}, p, q)
		for _, algo := range []string{"nm", "pm", "fm", "parallel", "grid"} {
			jr := postJoin(t, buffered, service.JoinRequest{Left: "p", Right: "q", Algo: algo, Workers: 2})
			if jr.Cached {
				t.Fatalf("%s/%s: first join reported cached", dist, algo)
			}
			sameSet(t, fmt.Sprintf("%s/%s POST /join", dist, algo), pairSet(jr.Pairs), want)
			if jr.Count != int64(len(want)) {
				t.Fatalf("%s/%s: count %d, want %d", dist, algo, jr.Count, len(want))
			}

			got, _, summary := streamJoin(t, streaming, "left=p&right=q&algo="+algo+"&workers=2")
			sameSet(t, fmt.Sprintf("%s/%s GET /join/stream", dist, algo), got, want)
			if summary.Count != int64(len(want)) {
				t.Fatalf("%s/%s stream summary: count %d, want %d", dist, algo, summary.Count, len(want))
			}
		}
	}
}

// TestStreamParallelProgress checks that the parallel plan streams live
// progress lines (the exported OnProgress hook end to end).
func TestStreamParallelProgress(t *testing.T) {
	p, q := dataset.Uniform(500, 21), dataset.Uniform(500, 22)
	_, ts := newTestServer(t, service.Config{CacheEntries: -1}, p, q)
	_, progress, _ := streamJoin(t, ts, "left=p&right=q&algo=parallel&workers=2")
	if progress == 0 {
		t.Fatal("parallel stream produced no progress lines")
	}
}

// TestStreamCachedReplay: a stream after a buffered join of the same plan
// replays the memoized pairs and marks the summary cached.
func TestStreamCachedReplay(t *testing.T) {
	p, q := dataset.Uniform(300, 31), dataset.Uniform(300, 32)
	_, ts := newTestServer(t, service.Config{}, p, q)
	jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
	got, _, summary := streamJoin(t, ts, "left=p&right=q&algo=nm")
	if !summary.Cached {
		t.Fatal("second identical join not served from cache")
	}
	sameSet(t, "cached replay", got, pairSet(jr.Pairs))
}

// TestCacheHitAndInvalidation is the acceptance criterion: a repeated
// identical join performs zero page accesses and reports a cache hit in
// /stats; ingesting a new dataset version invalidates the entry.
func TestCacheHitAndInvalidation(t *testing.T) {
	p, q := dataset.Uniform(300, 41), dataset.Uniform(300, 42)
	svc, ts := newTestServer(t, service.Config{}, p, q)

	// Paged explicitly: the acceptance assertion below is about page
	// accesses, which auto-selected flat storage makes structurally zero.
	first := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm", Storage: "paged"})
	if first.Cached {
		t.Fatal("first join reported cached")
	}
	statsAfterFirst := svc.StatsSnapshot()
	if statsAfterFirst.PageAccesses == 0 {
		t.Fatal("computed join reported zero page accesses")
	}

	second := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm", Storage: "paged"})
	if !second.Cached {
		t.Fatal("second identical join not cached")
	}
	if second.Stats.PageAccesses != 0 {
		t.Fatalf("cached join reported %d page accesses, want 0", second.Stats.PageAccesses)
	}
	stats := svc.StatsSnapshot()
	if stats.PageAccesses != statsAfterFirst.PageAccesses {
		t.Fatalf("cache hit performed I/O: total %d -> %d", statsAfterFirst.PageAccesses, stats.PageAccesses)
	}
	if stats.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", stats.CacheHits)
	}
	if stats.JoinsComputed != 1 {
		t.Fatalf("joins computed = %d, want 1", stats.JoinsComputed)
	}

	// Re-ingest q (same points, new version): the cached entry must not
	// serve the new version.
	if _, err := svc.Ingest("q", q); err != nil {
		t.Fatal(err)
	}
	third := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm", Storage: "paged"})
	if third.Cached {
		t.Fatal("join after re-ingest served from stale cache")
	}
	if third.RightVersion != 2 {
		t.Fatalf("right version = %d, want 2", third.RightVersion)
	}
	if got := svc.StatsSnapshot().JoinsComputed; got != 2 {
		t.Fatalf("joins computed after invalidation = %d, want 2", got)
	}
}

// TestStatsDecodeHits: a computed join on flat storage (the planner's
// default) records its decode-free arena reads in /stats, and a cache hit
// adds none (no execution, no reads).
func TestStatsDecodeHits(t *testing.T) {
	p, q := dataset.Uniform(2000, 51), dataset.Uniform(2000, 52)
	svc, ts := newTestServer(t, service.Config{}, p, q)

	postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
	hits := svc.StatsSnapshot().DecodeHits
	if hits == 0 {
		t.Fatal("computed flat join recorded no decode hits")
	}
	postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
	if got := svc.StatsSnapshot().DecodeHits; got != hits {
		t.Fatalf("cached join changed decode hits: %d -> %d", hits, got)
	}
}

// TestTopK: the response caps pairs at topk while count and cache keep the
// full result.
func TestTopK(t *testing.T) {
	p, q := dataset.Uniform(300, 51), dataset.Uniform(300, 52)
	_, ts := newTestServer(t, service.Config{}, p, q)
	full := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
	capped := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm", TopK: 5})
	if !capped.Cached {
		t.Fatal("topk variant missed the cache (topk must not fragment keys)")
	}
	if len(capped.Pairs) != 5 {
		t.Fatalf("topk=5 returned %d pairs", len(capped.Pairs))
	}
	if capped.Count != full.Count {
		t.Fatalf("topk count %d, want full %d", capped.Count, full.Count)
	}

	got, _, _ := streamJoin(t, ts, "left=p&right=q&algo=nm&topk=5")
	if len(got) != 5 {
		t.Fatalf("stream topk=5 emitted %d pairs", len(got))
	}
}

// TestPlannerSelection checks the auto plan through the response: small
// near-uniform joins go to the in-memory grid backend, an explicit worker
// count goes parallel.
func TestPlannerSelection(t *testing.T) {
	p, q := dataset.Uniform(200, 61), dataset.Uniform(200, 62)
	_, ts := newTestServer(t, service.Config{}, p, q)
	if jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q"}); jr.Algo != "grid" {
		t.Fatalf("auto plan on small uniform join = %q, want grid", jr.Algo)
	}
	jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Workers: 2})
	if jr.Algo != "parallel" {
		t.Fatalf("auto plan with workers=2 = %q, want parallel", jr.Algo)
	}
	if jr.Workers < 1 || jr.Workers > 2 {
		t.Fatalf("planned workers = %d, want 1..2", jr.Workers)
	}
}

// TestIngestHTTP covers the generator and CSV ingest paths plus their
// error cases.
func TestIngestHTTP(t *testing.T) {
	svc := service.New(service.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "text/csv", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	resp, body := post("/datasets/gen1?gen=uniform&n=500&seed=7", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generator ingest: status %d: %s", resp.StatusCode, body)
	}
	var info service.DatasetInfo
	json.Unmarshal(body, &info)
	if info.Points != 500 || info.Version != 1 {
		t.Fatalf("generator ingest info = %+v", info)
	}

	resp, _ = post("/datasets/csv1", "1,2\n3,4\n5,6\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("CSV ingest: status %d", resp.StatusCode)
	}

	for _, bad := range []struct{ path, body string }{
		{"/datasets/bad|name", "1,2\n"},          // invalid name
		{"/datasets/empty", ""},                  // no points
		{"/datasets/malformed", "1,2\nnope\n"},   // bad row
		{"/datasets/badgen?gen=uniform", ""},     // n missing
		{"/datasets/badkind?gen=hexagonal", ""},  // unknown generator
		{"/datasets/badn?gen=uniform&n=zap", ""}, // unparsable n
		// Non-finite input, or a span overflowing to +Inf, would
		// normalize every point to NaN and serve joins missing points.
		{"/datasets/nan", "NaN,1\n2,3\n5,5\n"},
		{"/datasets/inf", "Inf,1\n2,3\n5,5\n"},
		{"/datasets/overflow", "1e308,0\n-1e308,5\n"},
	} {
		if resp, _ := post(bad.path, bad.body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s: status %d, want 400", bad.path, resp.StatusCode)
		}
	}

	// Unknown datasets in a join are the client's fault.
	body, _ = json.Marshal(service.JoinRequest{Left: "gen1", Right: "ghost"})
	resp2, err := http.Post(ts.URL+"/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("join on unknown dataset: status %d, want 400", resp2.StatusCode)
	}
}

// TestConcurrentJoins hammers one service from many goroutines across
// plans, datasets and both endpoints — the race-detector workout for the
// registry, cache, admission and per-request buffer forking.
func TestConcurrentJoins(t *testing.T) {
	p, q := dataset.Uniform(300, 71), dataset.Clustered(300, 8, 72)
	svc, ts := newTestServer(t, service.Config{MaxConcurrent: 2}, p, q)
	want := serialReference(t, p, q)

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				switch (g + i) % 3 {
				case 0:
					body, _ := json.Marshal(service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
					resp, err := http.Post(ts.URL+"/join", "application/json", bytes.NewReader(body))
					if err != nil {
						errCh <- err
						continue
					}
					var jr service.JoinResponse
					json.NewDecoder(resp.Body).Decode(&jr)
					resp.Body.Close()
					if int(jr.Count) != len(want) {
						errCh <- fmt.Errorf("goroutine %d: count %d, want %d", g, jr.Count, len(want))
					}
				case 1:
					resp, err := http.Get(ts.URL + "/join/stream?left=p&right=q&algo=parallel&workers=2")
					if err != nil {
						errCh <- err
						continue
					}
					resp.Body.Close() // early close: the stream must tolerate it
				case 2:
					if _, err := svc.Ingest("scratch", dataset.Uniform(100, int64(100+g))); err != nil {
						errCh <- err
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// The service must still answer coherently after the storm.
	jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
	sameSet(t, "post-storm join", pairSet(jr.Pairs), want)
	if svc.InFlight() != 0 {
		t.Fatalf("in-flight = %d after all requests done", svc.InFlight())
	}
}

// TestRegistryVersioning: versions move strictly forward per name and
// List is sorted.
func TestRegistryVersioning(t *testing.T) {
	svc := service.New(service.Config{})
	for i := 1; i <= 3; i++ {
		d, err := svc.Ingest("b", dataset.Uniform(50, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if d.Version != i {
			t.Fatalf("version after ingest %d = %d", i, d.Version)
		}
	}
	if _, err := svc.Ingest("a", dataset.Uniform(50, 9)); err != nil {
		t.Fatal(err)
	}
	list := svc.Registry().List()
	if len(list) != 2 || list[0].Name != "a" || list[1].Name != "b" {
		t.Fatalf("List() = %v", list)
	}
}

// TestSingleFlight: a burst of identical first-time queries executes the
// join once; followers share the leader's result and report cached.
func TestSingleFlight(t *testing.T) {
	p, q := dataset.Uniform(400, 81), dataset.Uniform(400, 82)
	svc, ts := newTestServer(t, service.Config{}, p, q)

	const burst = 6
	var wg sync.WaitGroup
	responses := make([]service.JoinResponse, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i] = postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
		}(i)
	}
	wg.Wait()

	if got := svc.StatsSnapshot().JoinsComputed; got != 1 {
		t.Fatalf("burst of %d identical joins computed %d times, want 1", burst, got)
	}
	for i := 1; i < burst; i++ {
		if responses[i].Count != responses[0].Count {
			t.Fatalf("response %d count %d differs from leader's %d", i, responses[i].Count, responses[0].Count)
		}
	}
}

// TestExplicitWorkersOne: auto plan honors workers=1 (a client bounding
// its CPU share must not be upgraded to a full-machine pool).
func TestExplicitWorkersOne(t *testing.T) {
	p, q := dataset.Uniform(200, 91), dataset.Uniform(200, 92)
	_, ts := newTestServer(t, service.Config{}, p, q)
	jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Workers: 1})
	if jr.Algo != "parallel" || jr.Workers != 1 {
		t.Fatalf("workers=1 planned %s/w%d, want parallel/w1", jr.Algo, jr.Workers)
	}
}
