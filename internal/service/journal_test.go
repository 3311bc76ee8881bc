package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"cij/internal/dataset"
	"cij/internal/obs"
	"cij/internal/service"
)

// mkRec builds a minimal journal record for the ring unit tests.
func mkRec(id int64, left, algo string, wallMS float64) service.JournalRecord {
	return service.JournalRecord{
		ID: id, Left: left, Right: "q", Algo: algo,
		Stats: service.JoinStatsJSON{WallMS: wallMS},
	}
}

// TestJournalRingWraparound: the ring keeps the newest entries-capacity
// records, lists them newest first, and filters by dataset/algo/latency.
func TestJournalRingWraparound(t *testing.T) {
	j := service.NewJournal(4, 2, nil)
	for i := int64(1); i <= 6; i++ {
		algo := "nm"
		if i%2 == 0 {
			algo = "grid"
		}
		j.Add(mkRec(i, fmt.Sprintf("d%d", i), algo, float64(i)), nil, 0)
	}
	if j.Len() != 4 {
		t.Fatalf("Len = %d, want 4", j.Len())
	}
	if j.Total() != 6 {
		t.Fatalf("Total = %d, want 6", j.Total())
	}
	recs, total := j.Recent(service.JournalFilter{})
	if total != 6 {
		t.Fatalf("Recent total = %d, want 6", total)
	}
	wantIDs := []int64{6, 5, 4, 3}
	if len(recs) != len(wantIDs) {
		t.Fatalf("Recent returned %d records, want %d", len(recs), len(wantIDs))
	}
	for i, want := range wantIDs {
		if recs[i].ID != want {
			t.Fatalf("Recent[%d].ID = %d, want %d (newest first)", i, recs[i].ID, want)
		}
	}
	// IDs 1 and 2 fell off the ring.
	if _, ok := j.Get(1); ok {
		t.Fatal("Get(1) found a record the ring should have dropped")
	}
	if rec, ok := j.Get(6); !ok || rec.Left != "d6" {
		t.Fatalf("Get(6) = %+v, %v", rec, ok)
	}

	// Filters: dataset, algo, latency floor, limit.
	if recs, _ := j.Recent(service.JournalFilter{Dataset: "d5"}); len(recs) != 1 || recs[0].ID != 5 {
		t.Fatalf("dataset filter: %+v", recs)
	}
	if recs, _ := j.Recent(service.JournalFilter{Algo: "grid"}); len(recs) != 2 {
		t.Fatalf("algo filter returned %d records, want 2", len(recs))
	}
	if recs, _ := j.Recent(service.JournalFilter{MinWallMS: 5}); len(recs) != 2 {
		t.Fatalf("min-latency filter returned %d records, want 2 (5ms and 6ms)", len(recs))
	}
	if recs, _ := j.Recent(service.JournalFilter{Limit: 1}); len(recs) != 1 || recs[0].ID != 6 {
		t.Fatalf("limit filter: %+v", recs)
	}
}

// TestJournalSlowestRetention: only the slowest-K computed traces stay
// resident, slowest first, and cached observations never compete.
func TestJournalSlowestRetention(t *testing.T) {
	j := service.NewJournal(16, 2, nil)
	spans := func(ms float64) []obs.Span {
		return []obs.Span{{Phase: "join", Wall: time.Duration(ms) * time.Millisecond}}
	}
	j.Add(mkRec(1, "d", "nm", 10), spans(10), 0)
	j.Add(mkRec(2, "d", "nm", 30), spans(30), 0)
	j.Add(mkRec(3, "d", "nm", 20), spans(20), 0)
	cached := mkRec(4, "d", "nm", 99)
	cached.Cached = true
	j.Add(cached, nil, 0) // cache hit: no spans, no retention
	untraced := mkRec(5, "d", "nm", 99)
	j.Add(untraced, nil, 0) // untraced: nothing to retain

	if got := j.RetainedTraces(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("RetainedTraces = %v, want [2 3] (slowest first)", got)
	}
	if _, _, ok := j.TraceFor(1); ok {
		t.Fatal("query 1 evicted from slowest-K but TraceFor still finds it")
	}
	sp, _, ok := j.TraceFor(2)
	if !ok || len(sp) != 1 || sp[0].Wall != 30*time.Millisecond {
		t.Fatalf("TraceFor(2) = %v, %v", sp, ok)
	}
}

// TestJournalStatsReconcile is the accounting acceptance test: one
// computed join's journal record must carry byte-identical stats to its
// JoinResponse, and both must equal the /metrics counter deltas the join
// produced.
func TestJournalStatsReconcile(t *testing.T) {
	p, q := dataset.Clustered(500, 5, 71), dataset.Clustered(500, 5, 72)
	svc, ts := newTestServer(t, service.Config{}, p, q)

	before := scrapeMetrics(t, ts.URL)
	jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm", Storage: "paged"})
	after := scrapeMetrics(t, ts.URL)
	if jr.QueryID == 0 {
		t.Fatal("response carries no query_id")
	}
	if jr.Cached {
		t.Fatal("first join reported cached")
	}

	// Journal record vs response: the Stats blocks must marshal to the
	// same bytes.
	rec, ok := svc.Journal().Get(jr.QueryID)
	if !ok {
		t.Fatalf("query %d not journaled", jr.QueryID)
	}
	recStats, _ := json.Marshal(rec.Stats)
	respStats, _ := json.Marshal(jr.Stats)
	if !bytes.Equal(recStats, respStats) {
		t.Fatalf("journal stats %s != response stats %s", recStats, respStats)
	}
	if rec.Pairs != jr.Count {
		t.Fatalf("journal pairs %d != response count %d", rec.Pairs, jr.Count)
	}
	if rec.Reason == "" || rec.Inputs.TotalPoints != 1000 {
		t.Fatalf("journal record lacks planner context: %+v", rec)
	}

	// The same numbers must appear as /metrics deltas.
	delta := func(family string) int64 { return int64(after[family] - before[family]) }
	for family, want := range map[string]int64{
		"cij_pages_read_total":    rec.Stats.PagesRead,
		"cij_pages_written_total": rec.Stats.PagesWritten,
		"cij_logical_reads_total": rec.Stats.LogicalReads,
		"cij_decode_hits_total":   rec.Stats.DecodeHits,
		"cij_cache_misses_total":  1,
		"cij_cache_hits_total":    0,
	} {
		if got := delta(family); got != want {
			t.Fatalf("%s moved %d, journal says %d", family, got, want)
		}
	}
	if rec.Stats.LogicalReads == 0 || rec.Stats.PagesRead == 0 {
		t.Fatal("paged nm join reported no I/O; the reconciliation test is vacuous")
	}

	// The HTTP view of the same record agrees.
	var httpRec service.JournalRecord
	getJSON(t, ts.URL+fmt.Sprintf("/debug/queries/%d", jr.QueryID), &httpRec)
	httpStats, _ := json.Marshal(httpRec.Stats)
	if !bytes.Equal(httpStats, respStats) {
		t.Fatalf("GET /debug/queries/%d stats %s != response stats %s", jr.QueryID, httpStats, respStats)
	}

	// A repeat of the same join is a cache hit: journaled as cached, pure
	// wall time (no I/O), and the hit counter moves.
	jr2 := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm", Storage: "paged"})
	if !jr2.Cached || jr2.QueryID == jr.QueryID {
		t.Fatalf("repeat join: cached=%v id=%d", jr2.Cached, jr2.QueryID)
	}
	rec2, ok := svc.Journal().Get(jr2.QueryID)
	if !ok || !rec2.Cached {
		t.Fatalf("cache hit not journaled as cached: %+v", rec2)
	}
	if rec2.Stats.PageAccesses != 0 || rec2.Stats.LogicalReads != 0 {
		t.Fatalf("cached record reports I/O: %+v", rec2.Stats)
	}
	final := scrapeMetrics(t, ts.URL)
	if final["cij_cache_hits_total"]-after["cij_cache_hits_total"] != 1 {
		t.Fatal("cache hit did not tick cij_cache_hits_total")
	}
}

// getJSON fetches url and decodes the body.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestJournalConcurrent: concurrent joins (computed, cached, single-
// flighted) all land in the journal exactly once with distinct IDs. Run
// under -race this doubles as the locking test for ring + slowest-K.
func TestJournalConcurrent(t *testing.T) {
	p, q := dataset.Uniform(300, 81), dataset.Uniform(300, 82)
	svc, ts := newTestServer(t, service.Config{}, p, q)

	const goroutines, perG = 8, 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				algo := []string{"nm", "grid"}[(g+i)%2]
				body, _ := json.Marshal(service.JoinRequest{Left: "p", Right: "q", Algo: algo, TopK: 1})
				resp, err := http.Post(ts.URL+"/join", "application/json", bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()

	j := svc.Journal()
	if j.Total() != goroutines*perG {
		t.Fatalf("journaled %d observations, want %d", j.Total(), goroutines*perG)
	}
	recs, _ := j.Recent(service.JournalFilter{Limit: goroutines * perG})
	seen := make(map[int64]bool)
	for _, rec := range recs {
		if seen[rec.ID] {
			t.Fatalf("duplicate query ID %d", rec.ID)
		}
		seen[rec.ID] = true
	}
	// Every retained trace must reference a journaled computed query.
	for _, id := range j.RetainedTraces() {
		rec, ok := j.Get(id)
		if !ok {
			t.Fatalf("retained trace for %d, which is not in the ring", id)
		}
		if rec.Cached {
			t.Fatalf("retained trace for cached query %d", id)
		}
	}
}

// TestJournalSinkRoundTrip: the JSONL sink replays losslessly through
// ReadJournal, with computed lines carrying their phase traces.
func TestJournalSinkRoundTrip(t *testing.T) {
	var sink bytes.Buffer
	p, q := dataset.Uniform(300, 91), dataset.Uniform(300, 92)
	svc, ts := newTestServer(t, service.Config{JournalSink: &sink}, p, q)

	postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
	postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"}) // cache hit
	postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "grid"})

	recs, err := service.ReadJournal(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("sink replayed %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		ring, ok := svc.Journal().Get(rec.ID)
		if !ok {
			t.Fatalf("sink line %d (id %d) not in the ring", i, rec.ID)
		}
		ringStats, _ := json.Marshal(ring.Stats)
		sinkStats, _ := json.Marshal(rec.Stats)
		if !bytes.Equal(ringStats, sinkStats) {
			t.Fatalf("sink line %d stats %s != ring stats %s", i, sinkStats, ringStats)
		}
		if rec.Cached != ring.Cached {
			t.Fatalf("sink line %d cached=%v, ring says %v", i, rec.Cached, ring.Cached)
		}
		// Computed lines keep the phase breakdown (the training corpus);
		// cached lines have no run of their own.
		if !rec.Cached && (rec.Trace == nil || len(rec.Trace.Spans) == 0) {
			t.Fatalf("computed sink line %d lacks its trace", i)
		}
		if rec.Cached && rec.Trace != nil {
			t.Fatalf("cached sink line %d carries a trace", i)
		}
	}
}

// TestDebugQueriesEndpoints: listing, filtering, the single-record view
// and the Chrome trace export over HTTP.
func TestDebugQueriesEndpoints(t *testing.T) {
	p, q := dataset.Uniform(300, 101), dataset.Uniform(300, 102)
	_, ts := newTestServer(t, service.Config{}, p, q)
	jrNM := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
	postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "grid"})

	var list service.QueriesResponse
	getJSON(t, ts.URL+"/debug/queries", &list)
	if list.Total != 2 || list.Returned != 2 {
		t.Fatalf("list: total %d returned %d, want 2/2", list.Total, list.Returned)
	}
	if list.Queries[0].ID < list.Queries[1].ID {
		t.Fatal("list not newest first")
	}
	if len(list.RetainedTraces) == 0 {
		t.Fatal("no retained traces listed")
	}

	var filtered service.QueriesResponse
	getJSON(t, ts.URL+"/debug/queries?algo=nm", &filtered)
	if filtered.Returned != 1 || filtered.Queries[0].Algo != "nm" {
		t.Fatalf("algo filter: %+v", filtered)
	}
	getJSON(t, ts.URL+"/debug/queries?min_ms=0&dataset=p&limit=1", &filtered)
	if filtered.Returned != 1 {
		t.Fatalf("combined filter returned %d", filtered.Returned)
	}

	// Single record: the nm join is computed, so its trace is retained and
	// the {id} view embeds it.
	var rec service.JournalRecord
	getJSON(t, ts.URL+fmt.Sprintf("/debug/queries/%d", jrNM.QueryID), &rec)
	if rec.ID != jrNM.QueryID || rec.Trace == nil || len(rec.Trace.Spans) == 0 {
		t.Fatalf("single-record view: %+v", rec)
	}

	// Chrome export: required trace-event fields on every event.
	resp, err := http.Get(ts.URL + fmt.Sprintf("/debug/queries/%d/trace.json", jrNM.QueryID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace.json: status %d", resp.StatusCode)
	}
	var chrome struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatal(err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("trace.json has no events")
	}
	for i, ev := range chrome.TraceEvents {
		for _, key := range []string{"ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("trace.json event %d lacks %q", i, key)
			}
		}
	}

	// Unknown IDs and bad IDs.
	for path, want := range map[string]int{
		"/debug/queries/999999":            http.StatusNotFound,
		"/debug/queries/999999/trace.json": http.StatusNotFound,
		"/debug/queries/bogus":             http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestJournalDisabled: JournalEntries < 0 turns the subsystem off — the
// endpoints 404, joins still serve, and nothing is recorded.
func TestJournalDisabled(t *testing.T) {
	p, q := dataset.Uniform(200, 111), dataset.Uniform(200, 112)
	svc, ts := newTestServer(t, service.Config{JournalEntries: -1}, p, q)
	jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "grid"})
	if jr.Count == 0 {
		t.Fatal("join failed with journal disabled")
	}
	if svc.Journal() != nil {
		t.Fatal("Journal() non-nil with JournalEntries = -1")
	}
	for _, path := range []string{"/debug/queries", "/debug/queries/1", "/debug/queries/1/trace.json"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s with journal disabled: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestStatsHistoryEndpoint: the self-scraped ring serves windowed rates,
// quantiles and the per-sample series over HTTP.
func TestStatsHistoryEndpoint(t *testing.T) {
	p, q := dataset.Uniform(300, 121), dataset.Uniform(300, 122)
	svc, ts := newTestServer(t, service.Config{}, p, q)

	svc.History().Sample()
	time.Sleep(5 * time.Millisecond)
	postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
	postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"}) // hit
	svc.History().Sample()

	var hist service.HistoryResponse
	getJSON(t, ts.URL+"/stats/history", &hist)
	if hist.Samples != 2 || hist.TotalTaken != 2 {
		t.Fatalf("samples = %d/%d, want 2/2", hist.Samples, hist.TotalTaken)
	}
	if hist.SpanMS <= 0 {
		t.Fatalf("span = %gms, want > 0", hist.SpanMS)
	}
	if hist.JoinsPerSec <= 0 || hist.RequestsPerSec <= 0 {
		t.Fatalf("rates not computed: joins %g req %g", hist.JoinsPerSec, hist.RequestsPerSec)
	}
	if hist.CacheHits != 1 || hist.CacheMisses != 1 || hist.CacheHitRatio != 0.5 {
		t.Fatalf("cache window: hits %g misses %g ratio %g", hist.CacheHits, hist.CacheMisses, hist.CacheHitRatio)
	}
	if hist.JoinLatency.P99 <= 0 {
		t.Fatalf("join p99 = %g, want > 0", hist.JoinLatency.P99)
	}
	if len(hist.Series) != 2 {
		t.Fatalf("series holds %d points, want 2", len(hist.Series))
	}
	if hist.Series[1].Joins-hist.Series[0].Joins != 2 {
		t.Fatalf("series joins delta = %g, want 2", hist.Series[1].Joins-hist.Series[0].Joins)
	}
	if hist.Series[1].Goroutines <= 0 {
		t.Fatal("series lacks runtime gauges")
	}

	// Explicit window and validation.
	getJSON(t, ts.URL+"/stats/history?window=1h", &hist)
	if hist.Samples != 2 {
		t.Fatalf("1h window dropped samples: %d", hist.Samples)
	}
	resp, err := http.Get(ts.URL + "/stats/history?window=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad window: status %d, want 400", resp.StatusCode)
	}
}

// TestExplainObserved: explain reports the journal's matching history
// next to the model — the modeled-vs-observed loop.
func TestExplainObserved(t *testing.T) {
	p, q := dataset.Uniform(300, 131), dataset.Uniform(300, 132)
	_, ts := newTestServer(t, service.Config{}, p, q)

	getExplanation := func() service.Explanation {
		t.Helper()
		body, _ := json.Marshal(service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
		resp, err := http.Post(ts.URL+"/join?explain=1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ex service.Explanation
		if err := json.NewDecoder(resp.Body).Decode(&ex); err != nil {
			t.Fatal(err)
		}
		return ex
	}

	ex := getExplanation()
	if ex.Observed == nil {
		t.Fatal("explain omitted the observed block with the journal enabled")
	}
	if ex.Observed.Matches != 0 {
		t.Fatalf("observed %d matches before any join", ex.Observed.Matches)
	}

	jr := postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"})
	ex = getExplanation()
	if ex.Observed.Matches != 1 {
		t.Fatalf("observed %d matches after one computed join, want 1", ex.Observed.Matches)
	}
	if ex.Observed.LastID != jr.QueryID {
		t.Fatalf("observed last_id = %d, want %d", ex.Observed.LastID, jr.QueryID)
	}
	if ex.Observed.MeanWallMS != jr.Stats.WallMS {
		t.Fatalf("observed mean %g != measured %g", ex.Observed.MeanWallMS, jr.Stats.WallMS)
	}

	postJoin(t, ts, service.JoinRequest{Left: "p", Right: "q", Algo: "nm"}) // cache hit
	ex = getExplanation()
	if ex.Observed.Matches != 1 || ex.Observed.CachedMatches != 1 {
		t.Fatalf("after a hit: matches %d cached %d, want 1/1", ex.Observed.Matches, ex.Observed.CachedMatches)
	}
}
