package service

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cij/internal/obs"
	"cij/internal/obs/history"
	"cij/internal/storage"
)

// Config tunes a Service.
type Config struct {
	// BufferPct sizes each dataset's LRU query buffer as a percentage of
	// its data pages; <= 0 selects the paper's 2%.
	BufferPct float64
	// CacheEntries caps the result cache; < 0 disables caching, 0 selects
	// the default (64).
	CacheEntries int
	// MaxConcurrent bounds the number of joins executing at once (the
	// admission semaphore); <= 0 selects GOMAXPROCS.
	MaxConcurrent int
	// Logger receives the service's structured logs (request lines, join
	// completions, slow-query dumps); nil discards them.
	Logger *slog.Logger
	// SlowQuery, when > 0, arms the slow-query log: every computed join is
	// traced, and one slower than the threshold logs its full phase trace
	// at Warn level (and counts in cij_slow_queries_total).
	SlowQuery time.Duration
	// JournalEntries caps the query-journal ring; < 0 disables journaling
	// entirely, 0 selects the default (DefaultJournalEntries). With the
	// journal on, every computed join is traced so the slowest-K
	// (DefaultJournalSlowest) can retain their phase breakdowns.
	JournalEntries int
	// JournalSink, when non-nil, receives one JSON line per observation —
	// the append-only JSONL persistence of the journal (cijserver's
	// -journal flag opens a file here).
	JournalSink io.Writer
	// DataDir, when set, makes the service durable (use Open, not New):
	// the dataset registry persists under this directory (manifest +
	// snapshot page files + WAL) and a cold start restores it, replaying
	// the WAL tail.
	DataDir string
	// FS is the filesystem the durable store runs on; nil selects the
	// real one (storage.OSFS). The crash tests inject storage.FaultFS.
	FS storage.FS
	// CheckpointWALBytes is the WAL size that triggers folding it into
	// fresh snapshots after a mutation; <= 0 selects the default
	// (DefaultCheckpointWALBytes).
	CheckpointWALBytes int64
}

// Service is the CIJ query service: registry + planner + result cache
// behind one dispatcher. See the package comment for the architecture.
type Service struct {
	cfg     Config
	reg     *Registry
	cache   *resultCache
	admit   chan struct{}
	start   time.Time
	logger  *slog.Logger
	metrics *serviceMetrics
	journal *Journal // nil when Config.JournalEntries < 0
	history *history.Ring
	runtime *obs.RuntimeCollector
	queryID atomic.Int64 // last assigned query ID; threads all four surfaces

	// Single-flight table: one entry per join computation in progress,
	// keyed like the cache, so a burst of identical first-time queries
	// executes once instead of once per request.
	flightMu sync.Mutex
	flights  map[string]*flight

	// store is the durable tier (nil without a DataDir); set once by Open
	// before the service serves, read atomically so metric scrapes never
	// race the attachment.
	store    atomic.Pointer[Store]
	recovery *RecoveryInfo

	// hub fans pair-churn events out to /join/subscribe connections.
	hub *subHub
	// mutMu serializes the whole mutate pipeline — registry version bump,
	// cache sweep, delta maintenance, event fan-out — so subscribers
	// observe every version transition exactly once and in order. Joins
	// do NOT take it; they read whatever version is installed when they
	// resolve names, and COW snapshots keep that read stable.
	mutMu sync.Mutex
}

// flight is one in-progress join computation; done closes when the leader
// finishes, with res set unless the leader failed before executing.
type flight struct {
	done chan struct{}
	res  *cachedResult
}

// New creates a service with the given configuration.
func New(cfg Config) *Service {
	if cfg.BufferPct <= 0 {
		cfg.BufferPct = 2
	}
	switch {
	case cfg.CacheEntries < 0:
		cfg.CacheEntries = 0
	case cfg.CacheEntries == 0:
		cfg.CacheEntries = 64
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Service{
		cfg:     cfg,
		reg:     NewRegistry(cfg.BufferPct),
		admit:   make(chan struct{}, cfg.MaxConcurrent),
		flights: make(map[string]*flight),
		hub:     newSubHub(),
		start:   time.Now(),
		logger:  logger,
	}
	if cfg.JournalEntries >= 0 {
		s.journal = NewJournal(cfg.JournalEntries, DefaultJournalSlowest, cfg.JournalSink)
	}
	s.metrics = newServiceMetrics(s)
	s.cache = newResultCache(cfg.CacheEntries, s.metrics.cacheHits, s.metrics.cacheMisses, s.metrics.cacheEvictions)
	s.runtime = obs.NewRuntimeCollector(s.metrics.reg, s.start)
	s.history = history.New(s.metrics.reg, history.DefaultCapacity, s.runtime.Collect)
	return s
}

// Open creates a Service and, when cfg.DataDir is set, attaches the
// durable store: prior state is restored (manifest -> snapshots -> WAL
// tail) before the service accepts work, and every subsequent ingest and
// mutation is made durable before it is acknowledged. With no DataDir it
// is exactly New.
func Open(cfg Config) (*Service, error) {
	s := New(cfg)
	if cfg.DataDir == "" {
		return s, nil
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = storage.OSFS{}
	}
	st, info, err := openStore(fsys, cfg.DataDir, s.reg, s.metrics, s.logger)
	if err != nil {
		return nil, err
	}
	if cfg.CheckpointWALBytes > 0 {
		st.checkpointBytes = cfg.CheckpointWALBytes
	}
	s.store.Store(st)
	s.recovery = info
	if info.CleanShutdown {
		s.metrics.recoveryClean.Set(1)
	} else {
		s.metrics.recoveryClean.Set(0)
	}
	s.metrics.recoveryReplayed.Add(int64(info.Replayed))
	s.metrics.recoveryStale.Add(int64(info.Stale))
	s.metrics.walCorrupt.Add(int64(info.CorruptRecords))
	s.logger.Info("durable store opened",
		"data_dir", cfg.DataDir,
		"fresh", info.Fresh,
		"clean_shutdown", info.CleanShutdown,
		"datasets", info.Datasets,
		"wal_replayed", info.Replayed,
		"wal_stale", info.Stale,
		"wal_corrupt", info.CorruptRecords,
		"wal_torn_tail", info.TornTail,
	)
	return s, nil
}

// Recovery reports what the durable store found at boot (nil without a
// DataDir).
func (s *Service) Recovery() *RecoveryInfo { return s.recovery }

// Close flushes the durable tier: a final checkpoint folds the WAL into
// snapshots and the manifest gets its clean-shutdown marker. Call it
// after the HTTP server has drained; a store-less service closes as a
// no-op.
func (s *Service) Close() error {
	st := s.store.Load()
	if st == nil {
		return nil
	}
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	return st.close(s.reg)
}

// DrainSubscribers ends every /join/subscribe stream with a terminal
// "closed" line, unblocking their handlers so http.Server.Shutdown can
// finish. Call it before Shutdown: the streams are long-lived by design
// and would otherwise hold the drain open until its deadline. Returns
// how many subscribers were drained.
func (s *Service) DrainSubscribers() int { return s.hub.drain() }

// Journal exposes the query journal (nil when disabled) — the backing of
// GET /debug/queries and the tests' observation source.
func (s *Service) Journal() *Journal { return s.journal }

// History exposes the metrics-history ring. Sampling is caller-driven:
// cijserver starts the interval loop, tests call Sample directly.
func (s *Service) History() *history.Ring { return s.history }

// Registry exposes the dataset registry (preloading, tests).
func (s *Service) Registry() *Registry { return s.reg }

// Metrics exposes the service's metric registry — the backing store of
// GET /metrics, and the bench harness's source for server-side latency
// histogram snapshots.
func (s *Service) Metrics() *obs.Registry { return s.metrics.reg }

// Ingest indexes pts under name (replacing any previous version), sweeps
// the named dataset's cached results and returns the new registry entry.
// It serializes with mutations under mutMu — which is also what makes
// the durable protocol sound: the snapshot written before install is
// guaranteed to describe the version that installs.
func (s *Service) Ingest(name string, pts []Point) (*Dataset, error) {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	var d *Dataset
	if st := s.store.Load(); st != nil {
		var err error
		if d, err = s.reg.PrepareIngest(name, pts); err != nil {
			return nil, err
		}
		version := s.reg.NextVersion(name)
		if err := st.logIngest(d, version); err != nil {
			return nil, fmt.Errorf("persisting dataset %q: %w", name, err)
		}
		if err := s.reg.InstallIngest(d, version); err != nil {
			return nil, err
		}
	} else {
		var err error
		if d, err = s.reg.Put(name, pts); err != nil {
			return nil, err
		}
	}
	s.cache.invalidateDataset(name)
	s.metrics.ingests.Inc()
	return d, nil
}

// Query is one join request against named datasets.
type Query struct {
	Left  string
	Right string
	// Algo selects the algorithm: nm, pm, fm, parallel, or auto/empty.
	Algo string
	// Storage selects the node representation for tree algorithms: flat,
	// paged, or auto/empty (the planner picks).
	Storage string
	// Workers fixes the parallel pool size; <= 0 lets the planner size it
	// from the dataset cardinalities.
	Workers int
	// TopK caps the pairs returned in responses; <= 0 returns all. The
	// full result is still computed (and cached), so stats describe the
	// complete join.
	TopK int
}

// storageLabel maps a plan's storage onto a bounded metric label ("none"
// for the storage-less grid backend).
func storageLabel(storage string) string {
	if storage == "" {
		return "none"
	}
	return storage
}

// Outcome is the dispatcher's answer to one query: the (possibly cached)
// full result, the plan that produced it, and the dataset versions it was
// computed against.
type Outcome struct {
	Result      *cachedResult
	Plan        Plan
	Cached      bool
	Left, Right *Dataset
	// QueryID is this request's journal identity, threaded into the
	// response, the stream summary and the slog records.
	QueryID int64
}

// Join resolves, plans and executes one query. On a cache hit — or when
// an identical computation is already in flight — the memoized result is
// returned without executing anything (hooks are NOT invoked; callers
// that stream replay the cached pairs themselves). Otherwise the join
// runs under the admission semaphore with the hooks live, then the full
// result is cached. ctx cancellation is honored while queued for
// admission or waiting on another request's flight.
func (s *Service) Join(ctx context.Context, q Query, hooks execHooks) (*Outcome, error) {
	left, right, ex, err := s.resolve(q)
	if err != nil {
		return nil, err
	}
	pl := ex.Plan

	s.metrics.planner.With(pl.Algo).Inc()
	s.metrics.plannerStorage.With(storageLabel(pl.Storage)).Inc()

	// Every served join — cache hits included — is one observation, so
	// every request gets a query ID up front (the slow-query log inside
	// compute needs it before the outcome exists).
	qid := s.queryID.Add(1)

	key := cacheKey(left, right, pl.Algo, pl.Workers, pl.Storage)
	if res, ok := s.cache.get(key); ok {
		s.metrics.joins.With(pl.Algo, "cached").Inc()
		return s.record(ex, &Outcome{Result: res, Plan: pl, Cached: true, Left: left, Right: right, QueryID: qid}), nil
	}

	s.flightMu.Lock()
	if f, ok := s.flights[key]; ok {
		// Follower: an identical join is computing right now. Wait for it
		// rather than burning an admission slot on duplicate work.
		s.flightMu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if f.res != nil {
			s.metrics.joins.With(pl.Algo, "cached").Inc()
			return s.record(ex, &Outcome{Result: f.res, Plan: pl, Cached: true, Left: left, Right: right, QueryID: qid}), nil
		}
		// The leader bailed before executing (admission cancelled);
		// compute directly — the admission semaphore still bounds a
		// stampede of orphaned followers.
		out, err := s.compute(ctx, qid, key, pl, left, right, hooks)
		if err != nil {
			return nil, err
		}
		return s.record(ex, out), nil
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.flightMu.Unlock()
	defer func() {
		s.flightMu.Lock()
		delete(s.flights, key)
		s.flightMu.Unlock()
		close(f.done)
	}()

	out, err := s.compute(ctx, qid, key, pl, left, right, hooks)
	if err != nil {
		return nil, err
	}
	f.res = out.Result
	return s.record(ex, out), nil
}

// record journals one served join: the planner's decision (inputs and
// reason, as planned for this very request) next to the measured outcome,
// with the computed run's phase spans competing for slowest-K retention.
// The journal line must stand alone as a training observation, so it
// carries the full decision context, not a pointer to it. The record's
// Stats is built by the same projection the JoinResponse uses, so the two
// are byte-equal.
func (s *Service) record(ex Explanation, out *Outcome) *Outcome {
	if !s.journal.Enabled() {
		return out
	}
	rec := JournalRecord{
		ID:           out.QueryID,
		Time:         time.Now(),
		Left:         out.Left.Name,
		LeftVersion:  out.Left.Version,
		Right:        out.Right.Name,
		RightVersion: out.Right.Version,
		Algo:         out.Plan.Algo,
		Storage:      out.Plan.Storage,
		Workers:      out.Plan.Workers,
		Cached:       out.Cached,
		Pairs:        out.Result.Count,
		Stats:        out.statsJSON(),
		Reason:       ex.Reason,
		Inputs:       ex.Inputs,
		Slow:         !out.Cached && s.cfg.SlowQuery > 0 && out.Result.CPU >= s.cfg.SlowQuery,
	}
	var spans []obs.Span
	var dropped int64
	if !out.Cached {
		spans, dropped = out.Result.Trace, out.Result.TraceDropped
	}
	s.journal.Add(rec, spans, dropped)
	return out
}

// compute runs one planned join under the admission semaphore and records
// it in the cache and the metric families.
func (s *Service) compute(ctx context.Context, qid int64, key string, pl Plan, left, right *Dataset, hooks execHooks) (*Outcome, error) {
	waitStart := time.Now()
	s.metrics.admissionWaiting.Add(1)
	select {
	case s.admit <- struct{}{}:
		s.metrics.admissionWaiting.Add(-1)
	case <-ctx.Done():
		s.metrics.admissionWaiting.Add(-1)
		return nil, ctx.Err()
	}
	defer func() { <-s.admit }()
	wait := time.Since(waitStart)
	s.metrics.admissionWait.Observe(wait.Seconds())

	// Trace when the request opted in, the slow-query log is armed (a
	// slow join must be able to dump its phases after the fact), or the
	// journal is on (the slowest-K retention needs spans to retain).
	var tr *obs.Trace
	if hooks.trace || s.cfg.SlowQuery > 0 || s.journal.Enabled() {
		tr = obs.NewTrace()
		tr.Add("admission", "", wait, obs.Counters{})
	}

	res := s.execute(left, right, pl, hooks, tr)
	s.cache.put(key, left.Name, right.Name, res)
	s.metrics.joins.With(pl.Algo, "computed").Inc()
	if pl.Storage == "flat" {
		s.metrics.flatJoins.Inc()
	}
	s.metrics.joinLatency.With(pl.Algo).Observe(res.CPU.Seconds())
	s.metrics.recordJoinIO(res.IO)

	logArgs := []any{
		"query_id", qid,
		"left", left.Name, "right", right.Name,
		"algo", pl.Algo, "workers", pl.Workers,
		"storage", pl.Storage,
		"pairs", res.Count,
		"pages", res.IO.PageAccesses(),
		"decode_hits", res.IO.DecodeHits,
		"wall_ms", float64(res.CPU) / float64(time.Millisecond),
	}
	if s.cfg.SlowQuery > 0 && res.CPU >= s.cfg.SlowQuery {
		s.metrics.slowQueries.Inc()
		s.logger.Warn("slow query",
			append(logArgs, "threshold_ms", float64(s.cfg.SlowQuery)/float64(time.Millisecond),
				"trace", res.Trace)...)
	} else {
		s.logger.Info("join computed", logArgs...)
	}
	return &Outcome{Result: res, Plan: pl, Left: left, Right: right, QueryID: qid}, nil
}

// InFlight reports how many joins currently hold an admission slot.
func (s *Service) InFlight() int { return len(s.admit) }
