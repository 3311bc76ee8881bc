package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"time"

	"cij/internal/dataset"
	"cij/internal/geom"
	"cij/internal/service"
)

// serveKind is one request of the serve_mix rotation.
type serveKind struct {
	name    string
	algo    string
	storage string
	workers int
	stream  bool
}

// serveKinds is the read mix: the planner's own choice (grid at these
// sizes and skews), NM and 2-worker parallel on flat storage, and the
// progressive NDJSON stream that Fig. 9b's non-blocking property is about.
var serveKinds = []serveKind{
	{name: "auto", algo: "auto"},
	{name: "nm_flat", algo: "nm", storage: "flat"},
	{name: "parallel2_flat", algo: "parallel", storage: "flat", workers: 2},
	{name: "stream_nm", algo: "nm", stream: true},
}

// joinSample is one completed join request.
type joinSample struct {
	kind   int // index into serveKinds (serve_mix only)
	traced bool
	lat    float64 // client-observed latency, ms
	first  float64 // stream only: time to the first pair line, ms
	bytes  int64
	got    pairSet // digest of the pairs received
	resp   service.JoinResponse
	spans  spans
}

// serveMix is the read path as clients see it: service.New with the
// result cache off, uniform and clustered sets of 4000 points, and two
// closed-loop clients rotating through serveKinds. Each client joins its
// own copy of the pair (identical points under other names), so the
// service's single-flight never folds one client's request into the
// other's and every request executes.
func serveMix(cfg config) (*report, error) {
	r := newReport()
	ctx := context.Background()
	n := cfg.n(4000)
	u := dataset.Normalize(dataset.Uniform(n, 2*cfg.seed-1))
	c := dataset.Normalize(clustered(n, 2*cfg.seed))
	client := newClient()

	type built struct {
		srv *httptest.Server
	}
	var genMS, ingestMS []float64
	b, err := medianSetup(cfg, r, func(int) (built, error) {
		t0 := time.Now()
		pu := dataset.Uniform(n, 2*cfg.seed-1)
		pc := clustered(n, 2*cfg.seed)
		genMS = append(genMS, ms(time.Since(t0)))
		svc := service.New(service.Config{CacheEntries: -1, JournalEntries: -1})
		srv := httptest.NewServer(svc.Handler())
		for i := 0; i < 2; i++ {
			for _, ds := range []struct {
				name string
				pts  []geom.Point
			}{{fmt.Sprintf("u%d", i), pu}, {fmt.Sprintf("c%d", i), pc}} {
				d, err := postCSV(ctx, client, srv.URL, ds.name, ds.pts)
				if err != nil {
					srv.Close()
					return built{}, err
				}
				ingestMS = append(ingestMS, ms(d))
			}
		}
		return built{srv}, nil
	}, func(b built) { b.srv.Close() })
	if err != nil {
		return nil, err
	}
	defer b.srv.Close()
	base := b.srv.URL
	r.set("dataset.generate_ms", median(genMS))
	r.set("service.ingest_ms", median(ingestMS))
	r.set("heap_bytes_per_point", heapPerPoint(4*n))

	want := digest(oracle(u, c, nil, nil))
	if cfg.wrongOracle {
		want = want.corrupt()
	}

	before, err := scrape(ctx, client, base)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var samples []joinSample
	var wg sync.WaitGroup
	mark := markRuntime()
	start := time.Now()
	for cl := 0; cl < 2; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			left, right := fmt.Sprintf("u%d", cl), fmt.Sprintf("c%d", cl)
			for cycle := 0; time.Since(start) < cfg.run || cycle < 2; cycle++ {
				traced := cfg.trace && cycle%2 == 1
				for j := range serveKinds {
					k := (j + 2*cl) % len(serveKinds)
					s, err := serveRequest(ctx, client, base, serveKinds[k], left, right, traced)
					s.kind, s.traced = k, traced
					mu.Lock()
					if err != nil {
						r.op(false, "%s: %v", serveKinds[k].name, err)
					} else {
						r.op(s.got == want && s.resp.Count == want.Count && !s.resp.Cached,
							"%s: %d pairs (count %d, cached %v), oracle %d",
							serveKinds[k].name, s.got.Count, s.resp.Count, s.resp.Cached, want.Count)
						samples = append(samples, s)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	mark.since(r, int64(len(samples)))
	after, err := scrape(ctx, client, base)
	if err != nil {
		return nil, err
	}
	r.set("service.admit_wait_mean_ms", after.histMeanMS(before, "cij_admission_wait_seconds"))
	r.set("joins_per_s", float64(len(samples))/elapsed.Seconds())
	serveMetrics(r, samples, n, cfg.trace)
	return r, nil
}

// joinWire is a JoinResponse whose pair list is kept raw: decoding tens
// of thousands of pair objects through reflection would dominate the
// client's share of the latency, so the pairs are scanned by hand.
type joinWire struct {
	service.JoinResponse
	Pairs json.RawMessage `json:"pairs"`
}

// serveRequest sends one request of kind k and returns the response, the
// digest of the pairs received and the client-side timings; the caller
// checks the digest.
func serveRequest(ctx context.Context, c *http.Client, base string, k serveKind, left, right string, traced bool) (joinSample, error) {
	if k.stream {
		return streamRequest(ctx, c, base, k, left, right, traced)
	}
	return postJoin(ctx, c, base, service.JoinRequest{Left: left, Right: right, Algo: k.algo, Storage: k.storage, Workers: k.workers, Trace: traced})
}

// postJoin sends one POST /join and returns the response with the digest
// of its pairs and the client-observed latency, decoding included.
func postJoin(ctx context.Context, c *http.Client, base string, req service.JoinRequest) (joinSample, error) {
	body, _ := json.Marshal(req)
	var out joinWire
	t0 := time.Now()
	nbytes, err := call(ctx, c, http.MethodPost, base+"/join", bytes.NewReader(body), &out)
	if err != nil {
		return joinSample{}, err
	}
	var got pairSet
	scanPairs(out.Pairs, &got)
	lat := time.Since(t0)
	return joinSample{traced: req.Trace, lat: ms(lat), bytes: nbytes, got: got, resp: out.JoinResponse, spans: wireSpans(out.Trace)}, nil
}

// streamRequest reads one GET /join/stream response line by line.
func streamRequest(ctx context.Context, c *http.Client, base string, k serveKind, left, right string, traced bool) (joinSample, error) {
	q := url.Values{"left": {left}, "right": {right}, "algo": {k.algo}}
	if k.storage != "" {
		q.Set("storage", k.storage)
	}
	if traced {
		q.Set("trace", "1")
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/join/stream?"+q.Encode(), nil)
	if err != nil {
		return joinSample{}, err
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return joinSample{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return joinSample{}, fmt.Errorf("stream: %s", resp.Status)
	}
	var s joinSample
	var summary bool
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		s.bytes += int64(len(line)) + 1
		if bytes.HasPrefix(line, []byte(`{"type":"pair"`)) {
			if s.got.Count == 0 {
				s.first = ms(time.Since(t0))
			}
			scanPairs(line, &s.got)
			continue
		}
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			return joinSample{}, fmt.Errorf("stream line: %w", err)
		}
		switch head.Type {
		case "trace":
			var tj service.StreamTrace
			if err := json.Unmarshal(line, &tj); err != nil {
				return joinSample{}, err
			}
			s.spans = wireSpans(&tj.TraceJSON)
		case "summary":
			var sum service.StreamSummary
			if err := json.Unmarshal(line, &sum); err != nil {
				return joinSample{}, err
			}
			s.resp = sum.JoinResponse
			summary = true
		}
	}
	if err := sc.Err(); err != nil {
		return joinSample{}, err
	}
	if !summary {
		return joinSample{}, fmt.Errorf("stream ended without a summary line")
	}
	s.lat = ms(time.Since(t0))
	return s, nil
}

// scanPairs adds the pairs of a JSON pair list (or one pair line) to
// set. The integers of the encoding are exactly the p and q values, in
// that order, so the scan reads them off without a JSON decoder.
func scanPairs(raw []byte, set *pairSet) {
	var vals [2]int64
	k := 0
	for i := 0; i < len(raw); i++ {
		ch := raw[i]
		if ch < '0' || ch > '9' {
			continue
		}
		var v int64
		for ; i < len(raw) && raw[i] >= '0' && raw[i] <= '9'; i++ {
			v = v*10 + int64(raw[i]-'0')
		}
		vals[k] = v
		if k++; k == 2 {
			set.add(vals[0], vals[1])
			k = 0
		}
	}
}

// serveMetrics books serve_mix's latency and per-layer metrics.
func serveMetrics(r *report, samples []joinSample, qPoints int, trace bool) {
	perKind := make([][]float64, len(serveKinds))
	tracedKind := make([][]float64, len(serveKinds))
	var overhead, bytesPerPair, firstPair, unattributed, nmWall, parWall []float64
	var grid, nm, par []spans
	for _, s := range samples {
		if s.traced {
			tracedKind[s.kind] = append(tracedKind[s.kind], s.lat)
			unattributed = append(unattributed, ratio(s.resp.Stats.WallMS-s.spans.critical(s.resp.Algo), s.lat))
			switch s.resp.Algo {
			case "grid":
				grid = append(grid, s.spans)
			case "nm":
				if !serveKinds[s.kind].stream {
					nm = append(nm, s.spans)
				}
			case "parallel":
				par = append(par, s.spans)
			}
			continue
		}
		perKind[s.kind] = append(perKind[s.kind], s.lat)
		switch serveKinds[s.kind].name {
		case "nm_flat":
			nmWall = append(nmWall, s.resp.Stats.WallMS)
		case "parallel2_flat":
			parWall = append(parWall, s.resp.Stats.WallMS)
		}
		if serveKinds[s.kind].stream {
			firstPair = append(firstPair, s.first)
			continue
		}
		overhead = append(overhead, s.lat-s.resp.Stats.WallMS)
		bytesPerPair = append(bytesPerPair, ratio(float64(s.bytes), float64(s.resp.Count)))
	}
	// A median over the whole mix would sit in the gap between two
	// request kinds' latency modes and jump between them from run to run,
	// so the mix latency is the mean over kinds of each kind's percentile.
	var p50, p90, over []float64
	for k := range serveKinds {
		p50 = append(p50, median(perKind[k]))
		p90 = append(p90, quantile(perKind[k], 0.9))
		if trace {
			over = append(over, ratio(median(tracedKind[k]), median(perKind[k]))-1)
		}
	}
	r.set("join_p50_ms", mean(p50))
	r.set("join_p90_ms", mean(p90))
	r.set("join_samples", float64(len(samples)))
	r.set("stream_first_pair_p50_ms", median(firstPair))
	r.set("service.overhead_ms", median(overhead))
	r.set("service.response_bytes_per_pair", median(bytesPerPair))
	r.set("parallel.speedup_vs_nm", ratio(median(nmWall), median(parWall)))
	if !trace {
		return
	}
	r.set("obs.trace_overhead_frac", mean(over))
	r.set("obs.unattributed_frac", median(unattributed))
	bookGrid(r, grid)
	bookNM(r, nm, qPoints)
	var part, busy, merge, imb []float64
	for _, sp := range par {
		part = append(part, sp.sum("partition"))
		var ws []float64
		for _, b := range sp.workerBusy() {
			ws = append(ws, b)
		}
		maxBusy := quantile(ws, 1)
		busy = append(busy, mean(ws))
		imb = append(imb, ratio(maxBusy, mean(ws)))
		merge = append(merge, max(0, sp.sum("merge")-maxBusy))
	}
	r.set("parallel.partition_ms", median(part))
	r.set("parallel.worker_busy_ms", median(busy))
	r.set("parallel.merge_ms", median(merge))
	r.set("parallel.worker_imbalance", median(imb))
}

// bookNM books the core and voronoi metrics from traced NM joins whose
// right operand has qPoints points.
func bookNM(r *report, traces []spans, qPoints int) {
	phases := map[string][]float64{}
	var cand, fhr, cells []float64
	for _, sp := range traces {
		for _, ph := range nmPhases {
			phases[ph] = append(phases[ph], sp.sum(ph))
		}
		c := sp.counters("")
		cand = append(cand, float64(c.Candidates))
		fhr = append(fhr, ratio(float64(c.Candidates-c.TrueHits), float64(c.TrueHits)))
		// Every Q cell is computed once; the refine counter carries the P
		// cells computed on demand.
		cells = append(cells, float64(sp.counters("refine").PCells)+float64(qPoints))
	}
	r.set("voronoi.self_ms", median(phases["voronoi"]))
	r.set("voronoi.cells_per_join", median(cells))
	for _, ph := range []string{"traverse", "filter", "refine", "join"} {
		r.set("core."+ph+"_ms", median(phases[ph]))
	}
	r.set("core.candidates_per_join", median(cand))
	r.set("core.false_hit_ratio", median(fhr))
}

// bookGrid books the grid metrics from traced grid joins. The tile time
// is the aggregate join span, under whichever tag the span cap left it:
// per-tile spans overflow into "other" and miss part of the time.
func bookGrid(r *report, traces []spans) {
	var vor, rep, tile, cand, fhr []float64
	for _, sp := range traces {
		vor = append(vor, sp.sum("voronoi"))
		rep = append(rep, sp.sum("replicate"))
		tile = append(tile, sp.sum("join"))
		c := sp.counters("tile")
		cand = append(cand, float64(c.Candidates))
		fhr = append(fhr, ratio(float64(c.Candidates-c.TrueHits), float64(c.TrueHits)))
	}
	r.set("grid.voronoi_ms", median(vor))
	r.set("grid.replicate_ms", median(rep))
	r.set("grid.tile_ms", median(tile))
	r.set("grid.candidates_per_join", median(cand))
	r.set("grid.false_hit_ratio", median(fhr))
}
