package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// The metrics core: named families of counters, gauges and fixed-bucket
// histograms, optionally labeled, rendered in the Prometheus text
// exposition format (version 0.0.4). Everything is stdlib-only and
// lock-light: metric mutation is atomic, family/series creation takes a
// short lock once per new series, and scrapes read consistent-enough
// snapshots without blocking writers.

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// DefLatencyBuckets is the default latency histogram layout, in seconds:
// exponential-ish from 0.5 ms to 10 s, matching the range between a
// cache-hit response and a paper-scale materializing join.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry is a set of metric families. The zero value is not usable;
// create with NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one named metric family: fixed type, help text and label
// schema, with one series per distinct label-value combination.
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64      // histogram families only
	fn      func() float64 // func-backed families (single, unlabeled)

	mu     sync.Mutex
	series map[string]*series
}

// series is one (family, label values) time series.
type series struct {
	labelVals []string
	c         *Counter
	g         *Gauge
	h         *Histogram
}

// register returns the named family, creating it on first use. A second
// registration with a different type or label schema panics: metric
// identity is a programming contract, not runtime input.
func (r *Registry) register(name, help, typ string, labels []string, buckets []float64, fn func() float64) *family {
	if !metricNameRe.MatchString(name) {
		panic("obs: invalid metric name " + name)
	}
	for _, l := range labels {
		if !labelNameRe.MatchString(l) {
			panic("obs: invalid label name " + l + " on metric " + name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) {
			panic("obs: conflicting re-registration of metric " + name)
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels: labels, buckets: buckets, fn: fn,
		series: make(map[string]*series),
	}
	r.byName[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seriesFor returns the family's series for the given label values,
// creating it on first use.
func (f *family) seriesFor(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelVals: append([]string(nil), values...)}
	switch f.typ {
	case typeCounter:
		s.c = &Counter{}
	case typeGauge:
		s.g = &Gauge{}
	case typeHistogram:
		s.h = newHistogram(f.buckets)
	}
	f.series[key] = s
	return s
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, typeCounter, nil, nil, nil).seriesFor(nil).c
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, typeCounter, labels, nil, nil)}
}

// Gauge registers (or returns) an unlabeled settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, typeGauge, nil, nil, nil).seriesFor(nil).g
}

// GaugeVec registers (or returns) a labeled gauge family — the shape of
// info-style metrics (cij_build_info) whose value is constant 1 and whose
// payload is the labels.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, typeGauge, labels, nil, nil)}
}

// GaugeFunc registers a gauge whose value is fn(), evaluated at scrape
// time — the idiom for "current depth" values that already live somewhere
// (queue lengths, cache entry counts).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, typeGauge, nil, nil, fn)
}

// CounterFunc registers a counter whose cumulative value is fn(),
// evaluated at scrape time — for monotone counts kept by existing
// structures (result-cache hit totals). fn must be monotone.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, typeCounter, nil, nil, fn)
}

// Histogram registers (or returns) an unlabeled fixed-bucket histogram.
// buckets are ascending upper bounds (the +Inf bucket is implicit); nil
// selects DefLatencyBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, typeHistogram, nil, normBuckets(buckets), nil).seriesFor(nil).h
}

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{fam: r.register(name, help, typeHistogram, labels, normBuckets(buckets), nil)}
}

// FindCounter returns the counter series for the given label values, or
// nil when the family or series does not exist. Test/bench accessor.
func (r *Registry) FindCounter(name string, labelValues ...string) *Counter {
	if s := r.find(name, typeCounter, labelValues); s != nil {
		return s.c
	}
	return nil
}

func (r *Registry) find(name, typ string, labelValues []string) *series {
	r.mu.RLock()
	f, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok || f.typ != typ || f.fn != nil || len(labelValues) != len(f.labels) {
		return nil
	}
	key := strings.Join(labelValues, "\xff")
	f.mu.Lock()
	s := f.series[key]
	f.mu.Unlock()
	return s
}

// Counter is a monotone cumulative count. Concurrency-safe.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d; negative deltas are ignored (counters are monotone).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value. Concurrency-safe.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// CounterVec is a labeled counter family.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values (in registration
// order), creating the series on first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.fam.seriesFor(labelValues).c
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.fam.seriesFor(labelValues).g
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.fam.seriesFor(labelValues).h
}

// Histogram is a fixed-bucket cumulative histogram. Observations count
// into the first bucket whose upper bound is >= the value (Prometheus
// `le` semantics); the sum is kept as CAS-updated float bits so Observe
// stays lock-free.
type Histogram struct {
	bounds  []float64 // ascending finite upper bounds
	counts  []atomic.Int64
	sumBits atomic.Uint64
	count   atomic.Int64
}

func normBuckets(buckets []float64) []float64 {
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	out := append([]float64(nil), buckets...)
	sort.Float64s(out)
	// Drop a trailing +Inf: the overflow bucket is implicit.
	for len(out) > 0 && math.IsInf(out[len(out)-1], 1) {
		out = out[:len(out)-1]
	}
	if len(out) == 0 {
		panic("obs: histogram needs at least one finite bucket bound")
	}
	return out
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram's state. Counts has
// one entry per finite bound plus the overflow (+Inf) bucket; entries are
// per-bucket counts, not cumulative.
type HistSnapshot struct {
	Bounds []float64
	Counts []int64
	Sum    float64
	Count  int64
}

// Snapshot copies the histogram's current state. Individual bucket reads
// are atomic; the collection is not a strict point-in-time cut, which is
// the usual (and sufficient) scrape guarantee.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Add returns the bucket-wise sum s + o. The bounds must describe the
// same layout (series of one family always do); mismatched layouts fold
// what they can, which is the usual scrape-side tolerance.
func (s HistSnapshot) Add(o HistSnapshot) HistSnapshot {
	if s.Bounds == nil {
		s.Bounds, s.Counts = o.Bounds, make([]int64, len(o.Counts))
	}
	d := HistSnapshot{Bounds: s.Bounds, Counts: make([]int64, len(s.Counts)), Sum: s.Sum + o.Sum, Count: s.Count + o.Count}
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i]
		if i < len(o.Counts) {
			d.Counts[i] += o.Counts[i]
		}
	}
	return d
}

// Sub returns the bucket-wise difference s - o of two snapshots of the
// same histogram — the per-interval view (one bench level, one scrape
// window).
func (s HistSnapshot) Sub(o HistSnapshot) HistSnapshot {
	d := HistSnapshot{Bounds: s.Bounds, Counts: make([]int64, len(s.Counts)), Sum: s.Sum - o.Sum, Count: s.Count - o.Count}
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i]
		if i < len(o.Counts) {
			d.Counts[i] -= o.Counts[i]
		}
	}
	return d
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket holding the target rank, the standard
// histogram_quantile estimator. Values in the overflow bucket clamp to
// the largest finite bound; an empty snapshot returns 0.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) { // overflow bucket
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}

// ScrapeSnapshot is a structured point-in-time capture of a registry —
// the raw material of the self-scraping metrics history (obs/history).
// Keys are flattened series identities: the bare family name for
// unlabeled series, `name{k="v",...}` for labeled ones — the same
// identity a text-exposition sample line leads with.
type ScrapeSnapshot struct {
	// Values holds every counter and gauge sample, func-backed families
	// included (their fn is evaluated at snapshot time).
	Values map[string]float64
	// Hists holds every histogram series, keyed without the `le` label.
	Hists map[string]HistSnapshot
}

// Snapshot captures every family's current samples. Individual reads are
// atomic; the collection is the usual consistent-enough scrape cut.
func (r *Registry) Snapshot() ScrapeSnapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.byName))
	for _, f := range r.byName {
		fams = append(fams, f)
	}
	r.mu.RUnlock()

	snap := ScrapeSnapshot{
		Values: make(map[string]float64),
		Hists:  make(map[string]HistSnapshot),
	}
	for _, f := range fams {
		if f.fn != nil {
			snap.Values[f.name] = f.fn()
			continue
		}
		f.mu.Lock()
		sers := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			sers = append(sers, s)
		}
		f.mu.Unlock()
		for _, s := range sers {
			key := f.name + labelString(f.labels, s.labelVals, "", "")
			switch f.typ {
			case typeCounter:
				snap.Values[key] = float64(s.c.Value())
			case typeGauge:
				snap.Values[key] = float64(s.g.Value())
			case typeHistogram:
				snap.Hists[key] = s.h.Snapshot()
			}
		}
	}
	return snap
}

// Sum returns the family's value summed over its series — the current
// value for gauges, the cumulative count for counters. Each label/value
// pair in match (label, value, label, value, ...) keeps only the series
// carrying that label value.
func (s ScrapeSnapshot) Sum(family string, match ...string) float64 {
	var sum float64
	for k, v := range s.Values {
		if inFamily(k, family, match) {
			sum += v
		}
	}
	return sum
}

// HistSum folds every series of the histogram family into one snapshot.
func (s ScrapeSnapshot) HistSum(family string) HistSnapshot {
	var sum HistSnapshot
	for k, h := range s.Hists {
		if inFamily(k, family, nil) {
			sum = sum.Add(h)
		}
	}
	return sum
}

// inFamily reports whether a flattened series key belongs to the family
// (the bare name, or name{...} for labeled series) and carries every
// label/value pair of match.
func inFamily(key, family string, match []string) bool {
	if key == family {
		return len(match) == 0
	}
	if !strings.HasPrefix(key, family) || len(key) == len(family) || key[len(family)] != '{' {
		return false
	}
	labels := key[len(family):]
	for i := 0; i+1 < len(match); i += 2 {
		pair := match[i] + `="` + escapeLabel(match[i+1]) + `"`
		if !strings.Contains(labels, "{"+pair) && !strings.Contains(labels, ","+pair) {
			return false
		}
	}
	return true
}

// WriteTo renders every family in the text exposition format, families
// sorted by name and series by label values, so scrapes are
// deterministic and diffable.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.RLock()
	names := make([]string, 0, len(r.byName))
	for name := range r.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.byName[name]
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Handler returns the GET /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
}

func (f *family) write(b *strings.Builder) {
	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	if f.fn != nil {
		fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(f.fn()))
		return
	}
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sers := make([]*series, len(keys))
	for i, k := range keys {
		sers[i] = f.series[k]
	}
	f.mu.Unlock()

	for _, s := range sers {
		switch f.typ {
		case typeCounter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, s.labelVals, "", ""), s.c.Value())
		case typeGauge:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, s.labelVals, "", ""), s.g.Value())
		case typeHistogram:
			snap := s.h.Snapshot()
			var cum int64
			for i, bound := range snap.Bounds {
				cum += snap.Counts[i]
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, s.labelVals, "le", formatFloat(bound)), cum)
			}
			cum += snap.Counts[len(snap.Bounds)]
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.labelVals, "le", "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, s.labelVals, "", ""), formatFloat(snap.Sum))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, s.labelVals, "", ""), snap.Count)
		}
	}
}

// labelString renders {k="v",...}, appending the extra pair (the
// histogram `le` label) when extraKey is non-empty; no labels at all
// renders as the empty string.
func labelString(names, values []string, extraKey, extraVal string) string {
	if len(names) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
