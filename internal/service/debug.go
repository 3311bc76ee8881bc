package service

import (
	"net/http"
	"os"
	"strconv"
	"time"

	"cij/internal/obs"
)

// Introspection endpoints: the query journal (GET /debug/queries,
// /debug/queries/{id}, /debug/queries/{id}/trace.json) and the metrics
// history (GET /stats/history). Everything here reads recorded
// observations — nothing executes a join.

// QueriesResponse is the body of GET /debug/queries: matching journal
// records newest first, plus the ring's bookkeeping.
type QueriesResponse struct {
	// Total counts observations ever journaled; Returned the records in
	// this response (after filtering and the limit).
	Total    int64 `json:"total"`
	Returned int   `json:"returned"`
	// RetainedTraces lists the query IDs whose phase traces are held in
	// memory (slowest first); each is servable at /debug/queries/{id} and
	// /debug/queries/{id}/trace.json.
	RetainedTraces []int64         `json:"retained_traces,omitempty"`
	Queries        []JournalRecord `json:"queries"`
}

// handleDebugQueries lists recent observations. Query parameters:
// dataset (left or right name), algo, min_ms (wall-clock floor), limit.
func (s *Service) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	if !s.journal.Enabled() {
		writeError(w, http.StatusNotFound, "query journal disabled (-journal-entries < 0)")
		return
	}
	params := r.URL.Query()
	f := JournalFilter{
		Dataset: params.Get("dataset"),
		Algo:    params.Get("algo"),
	}
	var err error
	if f.Limit, err = intParam(params.Get("limit"), 0); err != nil {
		writeError(w, http.StatusBadRequest, "bad limit: %v", err)
		return
	}
	if v := params.Get("min_ms"); v != "" {
		if f.MinWallMS, err = strconv.ParseFloat(v, 64); err != nil {
			writeError(w, http.StatusBadRequest, "bad min_ms: %v", err)
			return
		}
	}
	recs, total := s.journal.Recent(f)
	if recs == nil {
		recs = []JournalRecord{} // an empty journal is [], not null
	}
	writeJSON(w, http.StatusOK, QueriesResponse{
		Total:          total,
		Returned:       len(recs),
		RetainedTraces: s.journal.RetainedTraces(),
		Queries:        recs,
	})
}

// queryID parses the {id} path segment of a /debug/queries route.
func queryID(r *http.Request) (int64, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	return id, err == nil && id > 0
}

// handleDebugQuery returns one observation record; when the query's
// phase trace is among the retained slowest-K it is attached inline.
func (s *Service) handleDebugQuery(w http.ResponseWriter, r *http.Request) {
	if !s.journal.Enabled() {
		writeError(w, http.StatusNotFound, "query journal disabled (-journal-entries < 0)")
		return
	}
	id, ok := queryID(r)
	if !ok {
		writeError(w, http.StatusBadRequest, "bad query id %q", r.PathValue("id"))
		return
	}
	rec, ok := s.journal.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "query %d not journaled (expired from the ring, or never served)", id)
		return
	}
	if spans, dropped, ok := s.journal.TraceFor(id); ok {
		rec.Trace = NewTraceJSON(spans, dropped)
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleDebugQueryTrace serves a retained trace in Chrome trace-event
// JSON — loadable as-is in chrome://tracing or Perfetto. Only the
// slowest-K computed joins keep their spans, so most IDs 404 here even
// while their ring record is still listable.
func (s *Service) handleDebugQueryTrace(w http.ResponseWriter, r *http.Request) {
	if !s.journal.Enabled() {
		writeError(w, http.StatusNotFound, "query journal disabled (-journal-entries < 0)")
		return
	}
	id, ok := queryID(r)
	if !ok {
		writeError(w, http.StatusBadRequest, "bad query id %q", r.PathValue("id"))
		return
	}
	spans, _, ok := s.journal.TraceFor(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no retained trace for query %d (only the slowest %d computed joins keep spans)", id, DefaultJournalSlowest)
		return
	}
	writeJSON(w, http.StatusOK, obs.ChromeTraceFromSpans(spans, os.Getpid()))
}

// HistoryQuantilesJSON is one latency family's windowed distribution, in
// milliseconds, estimated from the window's histogram bucket deltas.
type HistoryQuantilesJSON struct {
	P50 float64 `json:"p50_ms"`
	P95 float64 `json:"p95_ms"`
	P99 float64 `json:"p99_ms"`
}

// HistoryPointJSON is one raw sample of the per-sample series: the
// cumulative counters at that instant (clients diff neighbors for
// per-interval deltas) plus the live gauges.
type HistoryPointJSON struct {
	Time         time.Time `json:"time"`
	Requests     float64   `json:"requests_total"`
	Joins        float64   `json:"joins_total"`
	PagesRead    float64   `json:"pages_read_total"`
	LogicalReads float64   `json:"logical_reads_total"`
	CacheHits    float64   `json:"cache_hits_total"`
	CacheMisses  float64   `json:"cache_misses_total"`
	Goroutines   float64   `json:"goroutines"`
	HeapInuse    float64   `json:"heap_inuse_bytes"`
}

// HistoryResponse is the body of GET /stats/history: windowed rates and
// quantiles over the self-scraped metrics ring.
type HistoryResponse struct {
	// WindowMS echoes the requested window; SpanMS is the wall-clock
	// distance the returned samples actually cover (shorter when the ring
	// has not been up that long).
	WindowMS   float64 `json:"window_ms"`
	SpanMS     float64 `json:"span_ms"`
	Samples    int     `json:"samples"`
	TotalTaken int64   `json:"samples_total"`
	IntervalMS float64 `json:"interval_ms,omitempty"`

	// Per-second rates of the windowed counter deltas.
	RequestsPerSec     float64 `json:"requests_per_sec"`
	JoinsPerSec        float64 `json:"joins_per_sec"`
	PagesReadPerSec    float64 `json:"pages_read_per_sec"`
	LogicalReadsPerSec float64 `json:"logical_reads_per_sec"`

	// Latency distributions of the window's observations.
	HTTPLatency HistoryQuantilesJSON `json:"http_latency"`
	JoinLatency HistoryQuantilesJSON `json:"join_latency"`

	// Result-cache traffic within the window.
	CacheHits     float64 `json:"cache_hits"`
	CacheMisses   float64 `json:"cache_misses"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`

	Series []HistoryPointJSON `json:"series"`
}

// handleStatsHistory reports windowed rate/quantile series from the
// metrics history ring. ?window= takes a Go duration (default: the whole
// ring). The ring samples itself on the server's -history-interval; a
// request arriving before two samples exist gets zeros for every rate.
func (s *Service) handleStatsHistory(w http.ResponseWriter, r *http.Request) {
	var window time.Duration
	if v := r.URL.Query().Get("window"); v != "" {
		var err error
		if window, err = time.ParseDuration(v); err != nil {
			writeError(w, http.StatusBadRequest, "bad window: %v", err)
			return
		}
	}
	win := s.history.Window(window)
	quantiles := func(family string) HistoryQuantilesJSON {
		return HistoryQuantilesJSON{
			P50: win.Quantile(family, 0.50) * 1000,
			P95: win.Quantile(family, 0.95) * 1000,
			P99: win.Quantile(family, 0.99) * 1000,
		}
	}
	resp := HistoryResponse{
		WindowMS:   float64(window) / float64(time.Millisecond),
		SpanMS:     float64(win.Span()) / float64(time.Millisecond),
		Samples:    len(win.Samples),
		TotalTaken: s.history.Total(),
		IntervalMS: float64(s.history.Interval()) / float64(time.Millisecond),

		RequestsPerSec:     win.Rate("cij_http_requests_total"),
		JoinsPerSec:        win.Rate("cij_joins_total"),
		PagesReadPerSec:    win.Rate("cij_pages_read_total"),
		LogicalReadsPerSec: win.Rate("cij_logical_reads_total"),

		HTTPLatency: quantiles("cij_http_request_seconds"),
		JoinLatency: quantiles("cij_join_seconds"),

		CacheHits:     win.Delta("cij_cache_hits_total"),
		CacheMisses:   win.Delta("cij_cache_misses_total"),
		CacheHitRatio: win.Ratio("cij_cache_hits_total", "cij_cache_misses_total"),

		Series: make([]HistoryPointJSON, 0, len(win.Samples)),
	}
	for _, sm := range win.Samples {
		resp.Series = append(resp.Series, HistoryPointJSON{
			Time:         sm.T,
			Requests:     sm.Snap.Sum("cij_http_requests_total"),
			Joins:        sm.Snap.Sum("cij_joins_total"),
			PagesRead:    sm.Snap.Sum("cij_pages_read_total"),
			LogicalReads: sm.Snap.Sum("cij_logical_reads_total"),
			CacheHits:    sm.Snap.Sum("cij_cache_hits_total"),
			CacheMisses:  sm.Snap.Sum("cij_cache_misses_total"),
			Goroutines:   sm.Snap.Sum("go_goroutines"),
			HeapInuse:    sm.Snap.Sum("go_heap_inuse_bytes"),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
