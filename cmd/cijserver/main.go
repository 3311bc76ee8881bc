// Command cijserver serves common-influence joins over HTTP: named
// versioned datasets, planned execution (serial NM/PM/FM or the
// partitioned parallel engine), a versioned LRU result cache, progressive
// NDJSON streaming and an observability surface (Prometheus-style
// /metrics, structured JSON logs, per-query phase traces, optional pprof).
// See internal/service for the architecture and the README "Serving CIJ"
// and "Observability" sections for curl examples.
//
// Usage:
//
//	cijserver -addr :8080
//	cijserver -addr :8080 -preload "a=uniform:20000,b=clustered:20000"
//	cijserver -addr :8080 -slow 250ms -log-level debug -debug
//	cijserver -addr :8080 -journal queries.jsonl -history-interval 5s
//	cijserver -addr :8080 -data-dir /var/lib/cij
//
// Preload specs are name=kind:n pairs (kind uniform or clustered, or a
// Table I code with no :n), loaded before the listener starts; names
// already restored from -data-dir are skipped.
//
// With -data-dir the server is durable: every ingest and mutation is
// snapshotted or write-ahead logged (and fsync'd) before it is
// acknowledged, and a restart — graceful or kill -9 — recovers the exact
// last-acknowledged state. See the README's "Durability" section.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cij/internal/dataset"
	"cij/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		admit    = flag.Int("admit", 0, "max concurrent join executions (0 = GOMAXPROCS)")
		cache    = flag.Int("cache", 0, "result cache entries (0 = default 64, -1 = disabled)")
		buffer   = flag.Float64("buffer", 0, "per-dataset LRU buffer, % of data pages (0 = paper's 2%)")
		preload  = flag.String("preload", "", "datasets to load at startup: name=kind:n[,name=kind:n...]")
		slow     = flag.Duration("slow", 0, "slow-query threshold; joins slower than this log their full phase trace (0 = off)")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn or error")
		debug    = flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/")

		journal        = flag.String("journal", "", "append every query observation as a JSON line to this file (the planner-training corpus)")
		journalEntries = flag.Int("journal-entries", 0, "query-journal ring capacity (0 = default 512, -1 = journal disabled)")
		historyEvery   = flag.Duration("history-interval", 5*time.Second, "metrics-history sampling interval for /stats/history (0 = off)")

		dataDir       = flag.String("data-dir", "", "durable data directory: datasets and mutations survive restarts (empty = in-memory only)")
		checkpointWAL = flag.Int64("checkpoint-wal-bytes", 0, "fold the WAL into snapshots once it exceeds this many bytes (0 = default 4 MiB)")
	)
	flag.Parse()

	level, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cijserver: %v\n", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	cfg := service.Config{
		BufferPct:          *buffer,
		CacheEntries:       *cache,
		MaxConcurrent:      *admit,
		Logger:             logger,
		SlowQuery:          *slow,
		JournalEntries:     *journalEntries,
		DataDir:            *dataDir,
		CheckpointWALBytes: *checkpointWAL,
	}
	if *journal != "" {
		if *journalEntries < 0 {
			fmt.Fprintf(os.Stderr, "cijserver: -journal needs the journal enabled (-journal-entries >= 0)\n")
			os.Exit(2)
		}
		sink, err := os.OpenFile(*journal, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cijserver: -journal: %v\n", err)
			os.Exit(2)
		}
		defer sink.Close()
		cfg.JournalSink = sink
		logger.Info("query journal sink enabled", "path", *journal)
	}

	svc, err := service.Open(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cijserver: %v\n", err)
		os.Exit(1)
	}
	if err := preloadDatasets(svc, logger, *preload); err != nil {
		fmt.Fprintf(os.Stderr, "cijserver: %v\n", err)
		os.Exit(2)
	}
	if *historyEvery > 0 {
		stop := svc.History().Start(*historyEvery)
		defer stop()
		logger.Info("metrics history sampling", "interval", historyEvery.String())
	}

	handler := svc.Handler()
	if *debug {
		handler = withPprof(handler)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cijserver: %v\n", err)
		os.Exit(1)
	}
	logger.Info("cijserver listening", "addr", ln.Addr().String())

	srv := &http.Server{Handler: handler}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "cijserver: %v\n", err)
			os.Exit(1)
		}
	case s := <-sig:
		// Graceful shutdown: stop subscriber streams first (they are
		// long-lived and would hold Shutdown open), then drain in-flight
		// joins, then flush the durable tier — final checkpoint and
		// clean-shutdown marker — so the next boot recovers clean.
		logger.Info("cijserver shutting down", "signal", s.String())
		if n := svc.DrainSubscribers(); n > 0 {
			logger.Info("subscriber streams closed", "count", n)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("http drain incomplete", "err", err)
		}
	}
	if err := svc.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "cijserver: closing durable store: %v\n", err)
		os.Exit(1)
	}
	logger.Info("cijserver stopped")
}

// parseLevel maps the -log-level flag onto a slog level.
func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", s)
	}
}

// withPprof mounts the net/http/pprof handlers next to the service mux.
// Registration is explicit (not the package's init side effect on
// http.DefaultServeMux) so profiling stays opt-in via -debug.
func withPprof(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", next)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// preloadDatasets parses and loads -preload specs ("name=uniform:20000").
func preloadDatasets(svc *service.Service, logger *slog.Logger, specs string) error {
	if specs == "" {
		return nil
	}
	for i, part := range strings.Split(specs, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, genSpec, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("-preload entry %d: want name=kind:n, got %q", i, part)
		}
		if d, ok := svc.Registry().Get(name); ok {
			// Restored from the data directory; re-ingesting would burn a
			// version (and a snapshot write) on every restart.
			logger.Info("preload skipped, dataset restored", "name", name, "version", d.Version, "points", d.Live)
			continue
		}
		kind, nStr, hasN := strings.Cut(genSpec, ":")
		spec := dataset.Spec{Kind: kind, Seed: int64(9000 + i)}
		if hasN {
			n, err := strconv.Atoi(nStr)
			if err != nil {
				return fmt.Errorf("-preload %s: bad cardinality %q: %v", name, nStr, err)
			}
			spec.N = n
		}
		pts, err := spec.Generate()
		if err != nil {
			return fmt.Errorf("-preload %s: %v", name, err)
		}
		d, err := svc.Ingest(name, pts)
		if err != nil {
			return fmt.Errorf("-preload %s: %v", name, err)
		}
		logger.Info("preloaded dataset", "name", d.Name, "points", len(d.Points), "pages", d.Pages)
	}
	return nil
}
