package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/exp"
	"cij/internal/geom"
)

// config is one benchmark run's settings. The command line fills it at
// benchmark scale; the self-test fills it at a tiny scale.
type config struct {
	seed  int64
	run   time.Duration // length of the timed phase
	trace bool          // traced run: per-layer metrics instead of end-to-end
	// scale multiplies every dataset cardinality (1 = benchmark sizes).
	scale float64
	// setups is how many times set-up is repeated for the setup_s median.
	setups int
	// dir is where live_churn keeps its data directories.
	dir string
	// wrongOracle deliberately corrupts the oracle, so that every checked
	// operation must fail: the harness's own correctness test.
	wrongOracle bool
}

// n scales a benchmark cardinality, keeping at least 50 points.
func (c config) n(base int) int {
	return max(50, int(float64(base)*c.scale))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd names every end-to-end metric with its unit; an untraced run
// reports all of them on every workload. Each applies to every workload
// and is never zero, so it can carry a regression bound.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"join_p50_ms", "ms"},
	{"join_p90_ms", "ms"},
	{"joins_per_s", "1/s"},
	{"heap_bytes_per_point", "B/point"},
}

// perLayer names every per-layer metric with its unit; a traced run
// reports all of them on every workload, zero where the layer is not on
// the workload's path. README.md maps each one to the end-to-end metric
// it should move.
var perLayer = []struct{ name, unit string }{
	// Workload-specific user-visible numbers. They read zero on the
	// workloads without the operation, so they cannot carry a bound.
	{"stream_first_pair_p50_ms", "ms"},
	{"pages_per_join", "count"},
	{"mutate_p50_ms", "ms"},
	{"mutate_p90_ms", "ms"},
	{"mutations_per_s", "1/s"},
	{"recovery_s", "s"},
	{"stored_bytes_per_point", "B/point"},
	{"ops_failed_frac", "frac"},
	{"join_samples", "count"},

	{"dataset.generate_ms", "ms"},
	{"rtree.bulkload_ms", "ms"},
	{"storage.logical_reads_per_join", "count"},
	{"storage.buffer_hit_frac", "frac"},
	{"storage.decode_hits_per_join", "count"},
	{"storage.wal_fsync_mean_ms", "ms"},
	{"storage.wal_bytes_per_mutation", "B"},
	{"storage.checkpoints", "count"},
	{"storage.recovery_records_replayed", "count"},
	{"voronoi.self_ms", "ms"},
	{"voronoi.cells_per_join", "count"},
	{"core.traverse_ms", "ms"},
	{"core.filter_ms", "ms"},
	{"core.refine_ms", "ms"},
	{"core.join_ms", "ms"},
	{"core.candidates_per_join", "count"},
	{"core.false_hit_ratio", "ratio"},
	{"parallel.partition_ms", "ms"},
	{"parallel.worker_busy_ms", "ms"},
	{"parallel.merge_ms", "ms"},
	{"parallel.worker_imbalance", "ratio"},
	{"parallel.speedup_vs_nm", "ratio"},
	{"grid.voronoi_ms", "ms"},
	{"grid.replicate_ms", "ms"},
	{"grid.tile_ms", "ms"},
	{"grid.candidates_per_join", "count"},
	{"grid.false_hit_ratio", "ratio"},
	{"delta.ms_per_mutation", "ms"},
	{"delta.affected_sites_per_mutation", "count"},
	{"delta.probes_per_mutation", "count"},
	{"delta.useful_frac", "frac"},
	{"delta.vs_recompute", "ratio"},
	{"service.overhead_ms", "ms"},
	{"service.response_bytes_per_pair", "B"},
	{"service.admit_wait_mean_ms", "ms"},
	{"service.ingest_ms", "ms"},
	{"service.subscribers_lagged", "count"},
	{"obs.trace_overhead_frac", "frac"},
	{"obs.unattributed_frac", "frac"},
	{"obs.mutate_unattributed_frac", "frac"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_frac", "frac"},
}

// report collects a workload's measurements: values by metric name and
// the operation tallies.
type report struct {
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// op tallies one attempted operation; ok false counts it failed and keeps
// the first few reasons for the diagnostic output.
func (r *report) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 10 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

// result projects the report onto the metric list the mode requires.
// Every listed metric is present; one the workload did not set reads 0.
func (r *report) result(trace bool) result {
	list := endToEnd
	if trace {
		list = perLayer
	}
	if r.attempted > 0 {
		r.set("ops_failed_frac", float64(r.failed)/float64(r.attempted))
	}
	out := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range list {
		out.Metrics[m.name] = metric{Value: r.values[m.name], Unit: m.unit}
	}
	return out
}

// --- statistics ---

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- inputs ---

// clusteredStructureSeed fixes the cluster layout of every clustered
// input. A fresh layout per seed moves join costs by up to a third from
// seed to seed (the dominant cluster's weight and spread decide NM's
// filter cost), which would swamp the run-to-run spread the bounds
// measure. So the layout is part of the workload's definition, as a
// real dataset's geography would be, and the seed draws which points of
// it are used. This layout has 20 clusters and a grid.SkewEstimate of
// about 13 to 16 at 4000 points.
const clusteredStructureSeed = 2

// clustered returns n points drawn by seed from a pool of 4n points laid
// out in clusteredStructureSeed's 20 clusters.
func clustered(n int, seed int64) []geom.Point {
	pool := dataset.Clustered(4*n, 20, clusteredStructureSeed)
	pick := rand.New(rand.NewSource(seed)).Perm(len(pool))[:n]
	out := make([]geom.Point, n)
	for i, j := range pick {
		out[i] = pool[j]
	}
	return out
}

// --- pair sets ---

// pairSet is an order-independent digest of a join result: the pair
// count and the wrapping sum of a 64-bit mix of every pair. Sums compose
// under insertion and removal, so a subscriber can track the digest of
// every version it passes through.
type pairSet struct {
	Count int64
	Sum   uint64
}

func pairHash(p, q int64) uint64 {
	x := uint64(p)*0x9E3779B97F4A7C15 ^ (uint64(q) + 0x632BE59BD9B4E019)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

func (s *pairSet) add(p, q int64)    { s.Count++; s.Sum += pairHash(p, q) }
func (s *pairSet) remove(p, q int64) { s.Count--; s.Sum -= pairHash(p, q) }

// oracle joins p and q with FM-CIJ, the full-materialization algorithm no
// workload serves, and returns the pairs with positions mapped through
// the optional ID tables. The equivalence suite of the repository is what
// makes FM-CIJ a valid oracle for NM, parallel, grid and delta.
func oracle(p, q []geom.Point, pIDs, qIDs []int64) []core.Pair {
	env := exp.BuildEnv(p, q, exp.DefaultPageSize, exp.DefaultBufferPct)
	pairs := core.FMCIJ(env.RP, env.RQ, exp.Domain, core.Options{CollectPairs: true}).Pairs
	for i := range pairs {
		if pIDs != nil {
			pairs[i].P = pIDs[pairs[i].P]
		}
		if qIDs != nil {
			pairs[i].Q = qIDs[pairs[i].Q]
		}
	}
	return pairs
}

func digest(pairs []core.Pair) pairSet {
	var s pairSet
	for _, p := range pairs {
		s.add(p.P, p.Q)
	}
	return s
}

// corrupt returns the digest a deliberately wrong oracle would give.
func (s pairSet) corrupt() pairSet { return pairSet{Count: s.Count - 1, Sum: s.Sum + 1} }

// --- runtime accounting ---

// runtimeMark snapshots the allocator and the GC's CPU share, so a timed
// phase can report allocation per operation and GC CPU fraction.
type runtimeMark struct {
	alloc, mallocs uint64
	gcCPU, allCPU  float64
}

func markRuntime() runtimeMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	return runtimeMark{alloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcCPU: samples[0].Value.Float64(), allCPU: samples[1].Value.Float64()}
}

// since books the runtime metrics of the phase that began at m.
func (m runtimeMark) since(r *report, ops int64) {
	now := markRuntime()
	if ops > 0 {
		r.set("runtime.alloc_bytes_per_op", float64(now.alloc-m.alloc)/float64(ops))
		r.set("runtime.allocs_per_op", float64(now.mallocs-m.mallocs)/float64(ops))
	}
	r.set("runtime.gc_cpu_frac", ratio(now.gcCPU-m.gcCPU, now.allCPU-m.allCPU))
}

// heapPerPoint is live heap bytes per indexed point, measured after a
// full collection.
func heapPerPoint(points int) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / float64(points)
}

// --- set-up ---

// medianSetup runs build cfg.setups times, reports the median wall time
// as setup_s and returns the last build's value; earlier values are
// released through drop before the next build starts.
func medianSetup[T any](cfg config, r *report, build func(i int) (T, error), drop func(T)) (T, error) {
	var walls []float64
	var last T
	for i := 0; i < max(1, cfg.setups); i++ {
		if i > 0 {
			drop(last)
		}
		runtime.GC() // no set-up pays for the previous one's garbage
		start := time.Now()
		v, err := build(i)
		if err != nil {
			return last, err
		}
		walls = append(walls, time.Since(start).Seconds())
		last = v
	}
	r.set("setup_s", median(walls))
	return last, nil
}

// --- HTTP client helpers ---

func newClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8},
	}
}

// postCSV ingests pts under name and returns the request latency.
func postCSV(ctx context.Context, c *http.Client, base, name string, pts []geom.Point) (time.Duration, error) {
	var body bytes.Buffer
	if err := dataset.WriteCSV(&body, pts); err != nil {
		return 0, err
	}
	start := time.Now()
	_, err := call(ctx, c, http.MethodPost, base+"/datasets/"+name, &body, nil)
	return time.Since(start), err
}

// call performs one request; a non-2xx status is an error. With out
// non-nil the body is decoded into it; the body's byte count is returned.
func call(ctx context.Context, c *http.Client, method, url string, body io.Reader, out any) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return int64(len(raw)), fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(raw)))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return int64(len(raw)), fmt.Errorf("%s %s: decoding: %w", method, url, err)
		}
	}
	return int64(len(raw)), nil
}

// promSnapshot is one scrape of GET /metrics: every sample by its full
// series name (labels included, as exposed).
type promSnapshot map[string]float64

func scrape(ctx context.Context, c *http.Client, base string) (promSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	snap := promSnapshot{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			snap[line[:i]] = v
		}
	}
	return snap, sc.Err()
}

// delta is the growth of one series between two scrapes.
func (s promSnapshot) delta(prev promSnapshot, series string) float64 {
	return s[series] - prev[series]
}

// histMeanMS is a histogram's mean observation in milliseconds over the
// interval between two scrapes, from its _sum and _count series: bucket
// quantiles interpolate inside coarse buckets and are not used.
func (s promSnapshot) histMeanMS(prev promSnapshot, family string) float64 {
	return 1000 * ratio(s.delta(prev, family+"_sum"), s.delta(prev, family+"_count"))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
