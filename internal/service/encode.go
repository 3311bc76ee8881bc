package service

import (
	"time"

	"cij/internal/core"
	"cij/internal/obs"
	"cij/internal/storage"
)

// This file is the single JSON vocabulary of the service. cmd/cijtool's
// `join -json` emits the same JoinResponse, so the CLI and the server
// cannot drift apart in their machine-readable output.

// PairJSON is one result pair: indexes into the left and right datasets.
type PairJSON struct {
	P int64 `json:"p"`
	Q int64 `json:"q"`
}

// JoinStatsJSON is the cost profile of one join computation.
type JoinStatsJSON struct {
	// PageAccesses is the physical I/O of the run (0 when served from
	// cache).
	PageAccesses int64 `json:"page_accesses"`
	// The I/O breakdown behind PageAccesses: physical reads and writes,
	// node accesses (buffer hits included), and the decode-free arena
	// reads of flat storage. Omitted when zero (grid runs, cache hits).
	PagesRead    int64 `json:"pages_read,omitempty"`
	PagesWritten int64 `json:"pages_written,omitempty"`
	LogicalReads int64 `json:"logical_reads,omitempty"`
	DecodeHits   int64 `json:"decode_hits,omitempty"`
	// WallMS is the wall-clock time of the computation in milliseconds
	// (the original run's when served from cache).
	WallMS float64 `json:"wall_ms"`
}

// statsFromIO projects one run's I/O aggregate onto the wire form.
func statsFromIO(io storage.Stats, wall time.Duration) JoinStatsJSON {
	return JoinStatsJSON{
		PageAccesses: io.PageAccesses(),
		PagesRead:    io.PageReads,
		PagesWritten: io.PageWrites,
		LogicalReads: io.LogicalReads,
		DecodeHits:   io.DecodeHits,
		WallMS:       float64(wall) / float64(time.Millisecond),
	}
}

// TraceSpanJSON is one phase span of a traced join: phase name, optional
// tag (worker id, tile coordinate), wall-clock share and the counters the
// phase moved.
type TraceSpanJSON struct {
	Phase string `json:"phase"`
	Tag   string `json:"tag,omitempty"`
	// WallMS is the span's wall-clock time in milliseconds.
	WallMS float64 `json:"wall_ms"`
	obs.Counters
}

// TraceJSON is the per-phase trace block of a traced join response. Span
// I/O counters partition the run's aggregate Stats exactly (the obs
// accounting invariance), so summing the spans reproduces the totals.
type TraceJSON struct {
	Spans []TraceSpanJSON `json:"spans"`
	// Dropped counts spans folded into the per-phase "other" overflow rows
	// when a run exceeded the span cap; 0 in ordinary runs.
	Dropped int64 `json:"dropped,omitempty"`
}

// NewTraceJSON converts recorded spans to the wire form; nil when the run
// was not traced. Exported for cmd/cijtool's `join -json -trace`.
func NewTraceJSON(spans []obs.Span, dropped int64) *TraceJSON {
	if spans == nil {
		return nil
	}
	out := make([]TraceSpanJSON, len(spans))
	for i, sp := range spans {
		out[i] = TraceSpanJSON{
			Phase:    sp.Phase,
			Tag:      sp.Tag,
			WallMS:   float64(sp.Wall) / float64(time.Millisecond),
			Counters: sp.Counters,
		}
	}
	return &TraceJSON{Spans: out, Dropped: dropped}
}

// JoinRequest is the body of POST /join.
type JoinRequest struct {
	Left  string `json:"left"`
	Right string `json:"right"`
	Algo  string `json:"algo,omitempty"`
	// Storage selects the node representation for tree algorithms:
	// "flat", "paged", or "auto"/empty (planner's choice).
	Storage string `json:"storage,omitempty"`
	Workers int    `json:"workers,omitempty"`
	TopK    int    `json:"topk,omitempty"`
	// Trace requests the per-phase trace block in the response.
	Trace bool `json:"trace,omitempty"`
}

// JoinResponse is the buffered join result — the shared response encoding
// of POST /join and `cijtool join -json`.
type JoinResponse struct {
	// QueryID is the service-assigned observation identity: the same ID
	// keys this join's journal record (GET /debug/queries/{id}), its slog
	// lines and the slow-query dump. 0 from contexts that assign no IDs
	// (cijtool).
	QueryID      int64  `json:"query_id,omitempty"`
	Left         string `json:"left"`
	LeftVersion  int    `json:"left_version,omitempty"`
	Right        string `json:"right"`
	RightVersion int    `json:"right_version,omitempty"`
	Algo         string `json:"algo"`
	// Storage is the node representation the join executed on ("flat",
	// "paged"; empty for the storage-less grid backend).
	Storage string        `json:"storage,omitempty"`
	Workers int           `json:"workers,omitempty"`
	Cached  bool          `json:"cached"`
	Count   int64         `json:"count"`
	Pairs   []PairJSON    `json:"pairs,omitempty"`
	Stats   JoinStatsJSON `json:"stats"`
	// Trace is the per-phase trace block, present only when the request
	// asked for one (JoinRequest.Trace / &trace=1). A cache hit replays the
	// original run's spans.
	Trace *TraceJSON `json:"trace,omitempty"`
}

// NewJoinResponse assembles the shared encoding from raw join output;
// topK == 0 keeps all pairs, topK > 0 caps them, topK < 0 omits the pair
// list entirely (Count still reports the full cardinality). It is
// exported for cmd/cijtool.
func NewJoinResponse(left, right, algo string, workers int, pairs []core.Pair, io storage.Stats, wall time.Duration, topK int) JoinResponse {
	return JoinResponse{
		Left:    left,
		Right:   right,
		Algo:    algo,
		Workers: workers,
		Count:   int64(len(pairs)),
		Pairs:   encodePairs(pairs, topK),
		Stats:   statsFromIO(io, wall),
	}
}

// statsJSON projects the outcome's cost onto the wire form — the single
// source of the response's and the journal record's Stats, which is what
// makes the two byte-equal by construction.
func (o *Outcome) statsJSON() JoinStatsJSON {
	st := statsFromIO(o.Result.IO, o.Result.CPU)
	if o.Cached {
		st = JoinStatsJSON{WallMS: st.WallMS} // a hit performs no I/O
	}
	return st
}

// response builds the JoinResponse for one dispatcher outcome. withTrace
// attaches the recorded phase spans (when the run was traced; requests
// that did not opt in leave the block off even if the slow-query log
// forced a trace).
func (o *Outcome) response(topK int, withTrace bool) JoinResponse {
	resp := NewJoinResponse(o.Left.Name, o.Right.Name, o.Plan.Algo, o.Plan.Workers,
		o.Result.Pairs, o.Result.IO, o.Result.CPU, topK)
	resp.QueryID = o.QueryID
	resp.Storage = o.Plan.Storage
	resp.LeftVersion = o.Left.Version
	resp.RightVersion = o.Right.Version
	resp.Cached = o.Cached
	resp.Stats = o.statsJSON()
	if withTrace {
		resp.Trace = NewTraceJSON(o.Result.Trace, o.Result.TraceDropped)
	}
	return resp
}

// encodePairs converts pairs (capped at topK when topK > 0, omitted when
// topK < 0) to the wire form.
func encodePairs(pairs []core.Pair, topK int) []PairJSON {
	if topK < 0 {
		return nil
	}
	if topK > 0 && topK < len(pairs) {
		pairs = pairs[:topK]
	}
	out := make([]PairJSON, len(pairs))
	for i, p := range pairs {
		out[i] = PairJSON{P: p.P, Q: p.Q}
	}
	return out
}

// Stream line types of GET /join/stream (NDJSON): pair lines as produced,
// progress lines from the parallel engine's OnProgress hook, one summary
// line last.

// StreamPair is one streamed pair line ({"type":"pair",...}).
type StreamPair struct {
	Type string `json:"type"`
	P    int64  `json:"p"`
	Q    int64  `json:"q"`
}

// StreamProgress is one streamed progress sample: the live Fig. 9b curve.
type StreamProgress struct {
	Type         string `json:"type"`
	PageAccesses int64  `json:"page_accesses"`
	Pairs        int64  `json:"pairs"`
}

// StreamTrace is the streamed trace line ({"type":"trace",...}), emitted
// just before the summary when the request asked for &trace=1.
type StreamTrace struct {
	Type string `json:"type"`
	TraceJSON
}

// StreamSummary is the terminal stream line: the JoinResponse without the
// pair list (the pairs already went over the wire).
type StreamSummary struct {
	Type string `json:"type"`
	JoinResponse
}

// Stream line types of GET /join/subscribe (NDJSON): one subscribed
// handshake line, then per mutation of either operand a burst of churn
// lines (+pair/-pair) closed by one delta summary line. A lagged line
// replaces further events when the client fell too far behind.

// StreamSubscribed is the handshake line: the subscription's operands
// and the versions the client should base-line with a full join. Every
// later churn event names the versions it transitions TO, so the client
// reconciles by ignoring events at or below the base versions.
type StreamSubscribed struct {
	Type         string `json:"type"` // "subscribed"
	Left         string `json:"left"`
	Right        string `json:"right"`
	LeftVersion  int    `json:"left_version"`
	RightVersion int    `json:"right_version"`
}

// StreamChurn is one pair appearing (+pair) or disappearing (-pair)
// from the subscribed join as of the named versions.
type StreamChurn struct {
	Type         string `json:"type"` // "+pair" | "-pair"
	P            int64  `json:"p"`
	Q            int64  `json:"q"`
	QueryID      int64  `json:"query_id"`
	LeftVersion  int    `json:"left_version"`
	RightVersion int    `json:"right_version"`
}

// DeltaSummaryJSON describes one incremental maintenance run: which
// subscription pair, which side mutated, the churn cardinalities, the
// engine's work metric, and the run's cost in the same Stats vocabulary
// as a full join (so /metrics and the journal reconcile with it).
type DeltaSummaryJSON struct {
	QueryID      int64  `json:"query_id"`
	Left         string `json:"left"`
	LeftVersion  int    `json:"left_version"`
	Right        string `json:"right"`
	RightVersion int    `json:"right_version"`
	// Mutated names which operand changed: "left" or "right".
	Mutated string `json:"mutated"`
	Added   int    `json:"added"`
	Removed int    `json:"removed"`
	// AffectedSites counts mutated-side Voronoi cells recomputed; Probes
	// counts exact join-predicate evaluations — the work that replaced a
	// full |P|·|Q| recompute.
	AffectedSites int           `json:"affected_sites"`
	Probes        int           `json:"probes"`
	Stats         JoinStatsJSON `json:"stats"`
}

// StreamDelta is the terminal line of one mutation's event burst.
type StreamDelta struct {
	Type string `json:"type"` // "delta"
	DeltaSummaryJSON
}

// StreamLagged is the terminal line of an overrun subscription: the
// server dropped events rather than block the mutation path, so the
// client must resubscribe and re-baseline.
type StreamLagged struct {
	Type  string `json:"type"` // "lagged"
	Error string `json:"error"`
}

// StreamClosed is the terminal line of a subscription ended by server
// shutdown: the stream is complete (nothing was dropped) and the client
// should resubscribe once the server is back.
type StreamClosed struct {
	Type   string `json:"type"` // "closed"
	Reason string `json:"reason"`
}

// MutationRequest is the body of POST /datasets/{name}/points: point
// inserts ("points" is shorthand for "insert"), moves and deletes,
// applied as one atomic batch producing one new dataset version.
type MutationRequest struct {
	Points []PointJSON     `json:"points,omitempty"`
	Insert []PointJSON     `json:"insert,omitempty"`
	Update []MovePointJSON `json:"update,omitempty"`
	Delete []int64         `json:"delete,omitempty"`
}

// PointJSON is one point position on the wire.
type PointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// MovePointJSON relocates one live point.
type MovePointJSON struct {
	ID int64   `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

// MutationResponse reports one applied mutation batch: the new version,
// the IDs assigned to inserts, and one delta summary per subscription
// pair the batch maintained (empty when nobody subscribes to the
// dataset).
type MutationResponse struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	// Points is the live cardinality after the batch.
	Points      int     `json:"points"`
	InsertedIDs []int64 `json:"inserted_ids,omitempty"`
	Updated     int     `json:"updated,omitempty"`
	Deleted     int     `json:"deleted,omitempty"`
	Pages       int     `json:"pages"`
	Skew        float64 `json:"skew"`
	// Deltas summarizes the incremental join maintenance this mutation
	// triggered, in subscription order.
	Deltas []DeltaSummaryJSON `json:"deltas,omitempty"`
}

// DatasetInfo describes one registry entry in /datasets and /stats. Skew
// is the ingest-time density statistic the auto planner routes on, so a
// client can predict (and debug) algorithm selection.
type DatasetInfo struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	// Points is the LIVE cardinality — what joins operate on.
	Points int `json:"points"`
	// Tombstones counts deleted-point slots still occupying ID space
	// (mutable datasets never renumber); 0 for never-deleted datasets.
	Tombstones int     `json:"tombstones,omitempty"`
	Pages      int     `json:"pages"`
	Skew       float64 `json:"skew"`
	// Storage lists the node representations this dataset can serve
	// (every ingest builds both the paged tree and its flat copy).
	Storage []string `json:"storage"`
}

// datasetInfo converts a registry entry to its wire form.
func datasetInfo(d *Dataset) DatasetInfo {
	storage := []string{"paged"}
	if d.FlatTree != nil {
		storage = append(storage, "flat")
	}
	return DatasetInfo{
		Name:       d.Name,
		Version:    d.Version,
		Points:     d.Live,
		Tombstones: len(d.Points) - d.Live,
		Pages:      d.Pages,
		Skew:       d.Skew,
		Storage:    storage,
	}
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	UptimeMS      float64       `json:"uptime_ms"`
	Build         BuildInfoJSON `json:"build"`
	Datasets      []DatasetInfo `json:"datasets"`
	Ingests       int64         `json:"ingests"`
	JoinsServed   int64         `json:"joins_served"`
	JoinsComputed int64         `json:"joins_computed"`
	// JoinsFlat counts computed joins that read flat (arena) storage —
	// decode-free runs whose page I/O is structurally zero.
	JoinsFlat    int64 `json:"joins_flat"`
	PageAccesses int64 `json:"page_accesses"`
	// DecodeHits sums the decode-free node accesses of computed joins:
	// the arena reads of flat-storage runs (paged runs parse every node).
	DecodeHits   int64 `json:"decode_hits"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`
	CacheEvicted int64 `json:"cache_evicted"`
	// Mutations counts accepted point-mutation batches; DeltaRuns the
	// incremental maintenance computations they triggered (one per live
	// subscription pair); PairsChurned the +pair/-pair events those runs
	// emitted. They read cij_mutation_batches_total, cij_delta_runs_total
	// and cij_pair_churn_total.
	Mutations    int64 `json:"mutations"`
	DeltaRuns    int64 `json:"delta_runs"`
	PairsChurned int64 `json:"pairs_churned"`
	// Subscribers is the current number of open /join/subscribe streams.
	Subscribers   int `json:"subscribers"`
	InFlight      int `json:"in_flight"`
	MaxConcurrent int `json:"max_concurrent"`
}

// StatsSnapshot assembles the current counters. Every count is read from
// one snapshot of the metric registry — the families /metrics renders —
// so /stats and /metrics cannot disagree.
func (s *Service) StatsSnapshot() StatsResponse {
	snap := s.metrics.reg.Snapshot()
	sum := func(family string, match ...string) int64 { return int64(snap.Sum(family, match...)) }
	datasets := s.reg.List()
	infos := make([]DatasetInfo, len(datasets))
	for i, d := range datasets {
		infos[i] = datasetInfo(d)
	}
	return StatsResponse{
		UptimeMS:      float64(time.Since(s.start)) / float64(time.Millisecond),
		Build:         buildInfo(),
		Datasets:      infos,
		Ingests:       sum("cij_ingests_total"),
		JoinsServed:   sum("cij_joins_total"),
		JoinsComputed: sum("cij_joins_total", "source", "computed"),
		JoinsFlat:     sum("cij_flat_joins_total"),
		PageAccesses:  sum("cij_pages_read_total") + sum("cij_pages_written_total"),
		DecodeHits:    sum("cij_decode_hits_total"),
		CacheHits:     sum("cij_cache_hits_total"),
		CacheMisses:   sum("cij_cache_misses_total"),
		CacheEntries:  int(sum("cij_result_cache_entries")),
		CacheEvicted:  sum("cij_result_cache_evictions_total"),
		Mutations:     sum("cij_mutation_batches_total"),
		DeltaRuns:     sum("cij_delta_runs_total"),
		PairsChurned:  sum("cij_pair_churn_total"),
		Subscribers:   int(sum("cij_subscribers")),
		InFlight:      int(sum("cij_joins_in_flight")),
		MaxConcurrent: s.cfg.MaxConcurrent,
	}
}
