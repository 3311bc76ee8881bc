// Package obs is the repo's dependency-free observability substrate: a
// metrics core with Prometheus text exposition and a per-query phase
// tracer. It exists because the paper's whole argument is cost accounting
// — NM-CIJ wins on page accesses — and a production serving tier needs
// that accounting per query and per phase, not as one aggregate dump.
//
// # Metrics
//
// A Registry holds named metric families — counters, gauges and
// fixed-bucket histograms, optionally labeled — and renders them in the
// Prometheus text exposition format (version 0.0.4) via WriteTo or the
// http.Handler returned by Handler. All mutation paths are atomic and
// safe for concurrent use; scrapes never block writers.
//
//	reg := obs.NewRegistry()
//	joins := reg.CounterVec("cij_joins_total", "Completed joins.", "algo")
//	lat := reg.Histogram("cij_join_seconds", "Join latency.", obs.DefLatencyBuckets)
//	joins.With("nm").Inc()
//	lat.Observe(0.042)
//
// Histograms expose Snapshot (a consistent-enough copy of bucket counts)
// with Quantile estimation by linear interpolation inside the bucket, the
// mechanism behind the p50/p95/p99 figures of /stats/history.
//
// # Tracing
//
// A Trace accumulates phase-aggregated spans for one query: each
// Add(phase, tag, wall, counters) call folds into the span keyed
// (phase, tag), so a thousand-batch NM-CIJ run yields a handful of spans
// (traverse, voronoi, filter, refine, join), and a parallel run yields
// the same set once per worker tag. Counters carry the storage.Stats
// vocabulary (logical reads, pages read/written, decode hits)
// plus the filter-quality counters, so the per-phase deltas of a traced
// join sum exactly to the run's aggregate Stats — the accounting
// invariance the service tests pin.
//
// A nil *Trace is the disabled tracer: every method is a nil-safe no-op,
// and callers guard their time.Now/snapshot work behind Enabled, so the
// hot join loops pay zero allocations and zero clock reads when tracing
// is off (see the alloc-guard tests in internal/core).
//
// ChromeTraceFromSpans (trace_export.go) renders a trace's spans in the
// Chrome Trace Event Format — one thread row per span tag, sequential
// complete events whose widths are the measured wall clock, counter
// deltas in the event args — loadable as-is in chrome://tracing or
// Perfetto. The service serves it at GET /debug/queries/{id}/trace.json
// and cijtool writes it with join -trace-out.
//
// # Snapshots, history and runtime metrics
//
// Registry.Snapshot captures every family as plain values keyed by
// flattened series identity (name{labels}), histograms as HistSnapshot;
// ScrapeSnapshot.Sum and HistSum fold a family's series, optionally
// filtered by label value. The obs/history subpackage rings those snapshots up on a fixed
// interval and computes windowed deltas, rates, hit-ratios and quantiles
// between any two of them — self-scraped Prometheus-style trend queries
// (GET /stats/history) with no external scraper.
//
// RuntimeCollector (runtime.go) is the one stdlib bridge from the Go
// runtime into a registry: goroutine count, heap gauges, cumulative
// allocation, a GC pause histogram and process uptime, refreshed only
// when Collect is called (per /metrics scrape and per history sample).
package obs
