package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/geom"
	"cij/internal/service"
)

// churnCheckpointBytes is the WAL size that triggers a checkpoint in
// live_churn: small enough that one run folds the log into fresh
// snapshots several times.
const churnCheckpointBytes = 16 << 10

// liveState is the benchmark's own copy of dataset u: every point ever
// inserted (IDs are positions and are never reused) and which are live.
type liveState struct {
	pts   []geom.Point
	alive []bool
	live  []int64       // live IDs, for uniform random picks
	pos   map[int64]int // ID -> index in live
}

func newLiveState(pts []geom.Point) *liveState {
	s := &liveState{pts: append([]geom.Point(nil), pts...), alive: make([]bool, len(pts)), pos: map[int64]int{}}
	for i := range pts {
		s.alive[i] = true
		s.pos[int64(i)] = len(s.live)
		s.live = append(s.live, int64(i))
	}
	return s
}

func (s *liveState) insert(p geom.Point) {
	id := int64(len(s.pts))
	s.pts = append(s.pts, p)
	s.alive = append(s.alive, true)
	s.pos[id] = len(s.live)
	s.live = append(s.live, id)
}

func (s *liveState) remove(id int64) {
	i := s.pos[id]
	last := s.live[len(s.live)-1]
	s.live[i] = last
	s.pos[last] = i
	s.live = s.live[:len(s.live)-1]
	delete(s.pos, id)
	s.alive[id] = false
}

// compact returns the live points in ID order with their IDs.
func (s *liveState) compact() ([]geom.Point, []int64) {
	var pts []geom.Point
	var ids []int64
	for i, p := range s.pts {
		if s.alive[i] {
			pts = append(pts, p)
			ids = append(ids, int64(i))
		}
	}
	return pts, ids
}

// batch draws one mixed mutation batch — two inserts, one move and one
// delete of distinct live points — and returns it with the local update
// to apply once the service acknowledges it.
func (s *liveState) batch(rng *rand.Rand) (service.MutationRequest, func()) {
	pt := func() geom.Point {
		return geom.Pt(rng.Float64()*dataset.Domain.MaxX, rng.Float64()*dataset.Domain.MaxY)
	}
	ins := []geom.Point{pt(), pt()}
	mv := s.live[rng.Intn(len(s.live))]
	del := mv
	for del == mv {
		del = s.live[rng.Intn(len(s.live))]
	}
	to := pt()
	req := service.MutationRequest{
		Insert: []service.PointJSON{{X: ins[0].X, Y: ins[0].Y}, {X: ins[1].X, Y: ins[1].Y}},
		Update: []service.MovePointJSON{{ID: mv, X: to.X, Y: to.Y}},
		Delete: []int64{del},
	}
	return req, func() {
		for _, p := range ins {
			s.insert(p)
		}
		s.pts[mv] = to
		s.remove(del)
	}
}

// subscriber replays the /join/subscribe stream of (u, c) onto the
// oracle's baseline pair set, and records the digest of every version of
// u it passes through.
type subscriber struct {
	mu       sync.Mutex
	set      map[core.Pair]bool
	cur      pairSet
	versions map[int]pairSet // version of u -> digest of the join there
	last     int             // newest version of u applied
	lagged   bool
	bad      int // churn events inconsistent with the set they apply to
	err      error
	// ready receives one value: nil once the handshake line arrived, or
	// the error that ended the stream before it.
	ready      chan error
	subscribed bool
}

func (s *subscriber) status() (last int, done bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last, s.lagged || s.err != nil
}

// run consumes the stream until it ends or ctx is cancelled.
func (s *subscriber) run(ctx context.Context, c *http.Client, base string) {
	err := s.stream(ctx, c, base)
	s.mu.Lock()
	defer s.mu.Unlock()
	if ctx.Err() == nil {
		s.err = err
	}
	if !s.subscribed {
		if err == nil {
			err = fmt.Errorf("subscribe stream ended before its handshake")
		}
		s.ready <- err
	}
}

func (s *subscriber) stream(ctx context.Context, c *http.Client, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/join/subscribe?left=u&right=c", nil)
	if err != nil {
		return err
	}
	// The stream lives as long as the run: no whole-request timeout.
	long := *c
	long.Timeout = 0
	resp, err := long.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("subscribe: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev struct {
			Type        string `json:"type"`
			P           int64  `json:"p"`
			Q           int64  `json:"q"`
			LeftVersion int    `json:"left_version"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("subscribe line: %w", err)
		}
		s.mu.Lock()
		pr := core.Pair{P: ev.P, Q: ev.Q}
		switch ev.Type {
		case "subscribed":
			if ev.LeftVersion != s.last {
				s.bad++
			}
			s.subscribed = true
			s.ready <- nil
		case "+pair":
			if s.set[pr] {
				s.bad++
			}
			s.set[pr] = true
			s.cur.add(pr.P, pr.Q)
		case "-pair":
			if !s.set[pr] {
				s.bad++
			}
			delete(s.set, pr)
			s.cur.remove(pr.P, pr.Q)
		case "delta":
			s.versions[ev.LeftVersion] = s.cur
			s.last = ev.LeftVersion
		case "lagged", "closed":
			s.lagged = true
		}
		s.mu.Unlock()
	}
	return sc.Err()
}

// liveChurn is writes beside reads on one durable service: uniform u and
// clustered c of 8000 points each, one /join/subscribe reader of (u, c),
// one closed-loop mutator posting mixed batches to u, and one closed-loop
// client joining (u, c) with the planner's choice. Afterwards the service
// is abandoned without Close, as a crash would leave it, and the data
// directory is opened cold to time recovery.
func liveChurn(cfg config) (*report, error) {
	r := newReport()
	ctx := context.Background()
	n := cfg.n(8000)
	u := dataset.Normalize(dataset.Uniform(n, 2*cfg.seed-1))
	c := dataset.Normalize(clustered(n, 2*cfg.seed))
	client := newClient()
	root := filepath.Join(cfg.dir, fmt.Sprintf("live-%d", os.Getpid()))
	defer os.RemoveAll(root)
	svcConfig := func(dir string) service.Config {
		return service.Config{DataDir: dir, CacheEntries: -1, JournalEntries: -1, CheckpointWALBytes: churnCheckpointBytes}
	}

	type built struct {
		svc *service.Service
		srv *httptest.Server
		dir string
	}
	var genMS, ingestMS []float64
	b, err := medianSetup(cfg, r, func(i int) (built, error) {
		t0 := time.Now()
		pu := dataset.Uniform(n, 2*cfg.seed-1)
		pc := clustered(n, 2*cfg.seed)
		genMS = append(genMS, ms(time.Since(t0)))
		dir := filepath.Join(root, fmt.Sprintf("setup%d", i))
		svc, err := service.Open(svcConfig(dir))
		if err != nil {
			return built{}, err
		}
		srv := httptest.NewServer(svc.Handler())
		for _, ds := range []struct {
			name string
			pts  []geom.Point
		}{{"u", pu}, {"c", pc}} {
			d, err := postCSV(ctx, client, srv.URL, ds.name, ds.pts)
			if err != nil {
				srv.Close()
				return built{}, err
			}
			ingestMS = append(ingestMS, ms(d))
		}
		return built{svc, srv, dir}, nil
	}, func(b built) {
		b.srv.Close()
		b.svc.Close()
		os.RemoveAll(b.dir)
	})
	if err != nil {
		return nil, err
	}
	base := b.srv.URL
	r.set("dataset.generate_ms", median(genMS))
	r.set("service.ingest_ms", median(ingestMS))
	r.set("heap_bytes_per_point", heapPerPoint(2*n))

	var info []service.DatasetInfo
	if _, err := call(ctx, client, http.MethodGet, base+"/datasets", nil, &info); err != nil {
		return nil, err
	}
	baseVersion := 0
	for _, d := range info {
		if d.Name == "u" {
			baseVersion = d.Version
		}
	}
	baseline := oracle(u, c, nil, nil)
	sub := &subscriber{set: map[core.Pair]bool{}, versions: map[int]pairSet{}, last: baseVersion, ready: make(chan error, 1)}
	for _, p := range baseline {
		sub.set[p] = true
	}
	sub.cur = digest(baseline)
	if cfg.wrongOracle {
		sub.cur = sub.cur.corrupt()
	}
	sub.versions[baseVersion] = sub.cur
	subCtx, cancelSub := context.WithCancel(ctx)
	defer cancelSub()
	var subWG sync.WaitGroup
	subWG.Add(1)
	go func() {
		defer subWG.Done()
		sub.run(subCtx, client, base)
	}()
	if err := <-sub.ready; err != nil {
		return nil, err
	}

	before, err := scrape(ctx, client, base)
	if err != nil {
		return nil, err
	}
	state := newLiveState(u)
	walPath := filepath.Join(b.dir, "wal.log")
	var mu sync.Mutex
	var joins []joinSample
	var mutLat, deltaMS, affected, probes, useful, walBytes []float64
	lastAck := baseVersion
	var wg sync.WaitGroup
	mark := markRuntime()
	start := time.Now()
	wg.Add(2)
	go func() { // mutator
		defer wg.Done()
		rng := rand.New(rand.NewSource(cfg.seed))
		prevWAL := fileSize(walPath)
		for i := 0; time.Since(start) < cfg.run || i < 2; i++ {
			req, apply := state.batch(rng)
			body, _ := json.Marshal(req)
			var resp service.MutationResponse
			t0 := time.Now()
			_, err := call(ctx, client, http.MethodPost, base+"/datasets/u/points", bytes.NewReader(body), &resp)
			lat := time.Since(t0)
			mu.Lock()
			if err != nil {
				r.op(false, "mutation %d: %v", i, err)
				mu.Unlock()
				return // the local copy of u no longer matches the service's
			}
			next := int64(len(state.pts)) // IDs are positions, never reused
			ok := len(resp.InsertedIDs) == 2 && resp.InsertedIDs[0] == next && resp.InsertedIDs[1] == next+1 &&
				resp.Points == len(state.live)+1 && resp.Version == lastAck+1 && len(resp.Deltas) == 1
			r.op(ok, "mutation %d: response %+v", i, resp)
			apply()
			lastAck = resp.Version
			mutLat = append(mutLat, ms(lat))
			if len(resp.Deltas) == 1 {
				d := resp.Deltas[0]
				deltaMS = append(deltaMS, d.Stats.WallMS)
				affected = append(affected, float64(d.AffectedSites))
				probes = append(probes, float64(d.Probes))
				useful = append(useful, ratio(float64(d.Added+d.Removed), float64(d.Probes)))
			}
			mu.Unlock()
			if cfg.trace {
				// The record just appended is the WAL's growth, unless
				// this mutation triggered a checkpoint and trimmed it.
				sz := fileSize(walPath)
				if sz > prevWAL {
					walBytes = append(walBytes, float64(sz-prevWAL))
				}
				prevWAL = sz
			}
		}
	}()
	go func() { // reader
		defer wg.Done()
		for i := 0; time.Since(start) < cfg.run || i < 2; i++ {
			s, err := postJoin(ctx, client, base, service.JoinRequest{Left: "u", Right: "c", Trace: cfg.trace && i%2 == 1})
			mu.Lock()
			if err != nil {
				r.op(false, "join %d: %v", i, err)
			} else {
				joins = append(joins, s)
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	mark.since(r, int64(len(joins)+len(mutLat)))
	after, err := scrape(ctx, client, base)
	if err != nil {
		return nil, err
	}

	// Let the subscriber catch up with the last acknowledged version.
	deadline := time.Now().Add(time.Minute)
	for {
		last, done := sub.status()
		if last >= lastAck || done || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	livePts, liveIDs := state.compact()
	final := oracle(livePts, c, liveIDs, nil)
	finalDigest := digest(final)
	sub.mu.Lock()
	for _, j := range joins {
		v := j.resp.LeftVersion
		want, ok := sub.versions[v]
		r.op(ok && j.got == want && j.resp.Count == want.Count,
			"join at u v%d: %d pairs, subscriber %d (known %v)", v, j.got.Count, want.Count, ok)
	}
	sameSet := len(sub.set) == len(final)
	for _, p := range final {
		sameSet = sameSet && sub.set[p]
	}
	r.op(sub.err == nil && !sub.lagged && sub.bad == 0 && sub.last == lastAck && sameSet && sub.cur == finalDigest,
		"subscription: err %v, lagged %v, %d bad events, at v%d of v%d, %d pairs vs recompute %d",
		sub.err, sub.lagged, sub.bad, sub.last, lastAck, len(sub.set), len(final))
	sub.mu.Unlock()

	stored, err := dirBytes(b.dir)
	if err != nil {
		return nil, err
	}

	// Crash: drop the subscriber and the listener, never Close the
	// service, and recover the directory cold.
	cancelSub()
	subWG.Wait()
	b.srv.Close()
	recWalls, replayed, recJoin, err := recoverCold(ctx, client, svcConfig(b.dir))
	if err != nil {
		return nil, err
	}
	want := finalDigest
	if cfg.wrongOracle {
		want = want.corrupt()
	}
	r.op(recJoin.resp.LeftVersion == lastAck && recJoin.got == want,
		"recovered join: u v%d (acknowledged v%d), %d pairs vs %d", recJoin.resp.LeftVersion, lastAck, recJoin.got.Count, want.Count)

	r.set("recovery_s", median(recWalls))
	r.set("storage.recovery_records_replayed", float64(replayed))
	r.set("stored_bytes_per_point", float64(stored)/float64(len(state.live)+len(c)))
	r.set("storage.wal_fsync_mean_ms", after.histMeanMS(before, "cij_wal_fsync_seconds"))
	r.set("storage.wal_bytes_per_mutation", median(walBytes))
	r.set("storage.checkpoints", after.delta(before, "cij_checkpoints_total"))
	r.set("service.subscribers_lagged", after.delta(before, "cij_subscribers_lagged_total"))
	joinWall := churnMetrics(r, joins, elapsed, cfg.trace)
	r.set("mutate_p50_ms", median(mutLat))
	r.set("mutate_p90_ms", quantile(mutLat, 0.9))
	r.set("mutations_per_s", float64(len(mutLat))/elapsed.Seconds())
	r.set("delta.ms_per_mutation", median(deltaMS))
	r.set("delta.affected_sites_per_mutation", median(affected))
	r.set("delta.probes_per_mutation", median(probes))
	r.set("delta.useful_frac", median(useful))
	r.set("delta.vs_recompute", ratio(median(deltaMS), joinWall))
	r.set("obs.mutate_unattributed_frac",
		ratio(median(mutLat)-median(deltaMS)-r.values["storage.wal_fsync_mean_ms"], median(mutLat)))
	return r, nil
}

// recoverCold opens the abandoned data directory of cfg three times, for
// the median recovery time, and joins (u, c) on the last service opened.
// The services are left open: closing one would checkpoint and mark the
// directory clean, and the next open would have nothing to recover.
func recoverCold(ctx context.Context, client *http.Client, cfg service.Config) (walls []float64, replayed int, j joinSample, err error) {
	var rec *service.Service
	for i := 0; i < 3; i++ {
		runtime.GC()
		t0 := time.Now()
		rec, err = service.Open(cfg)
		if err != nil {
			return nil, 0, j, fmt.Errorf("recovering %s: %w", cfg.DataDir, err)
		}
		walls = append(walls, time.Since(t0).Seconds())
		replayed = rec.Recovery().Replayed
	}
	srv := httptest.NewServer(rec.Handler())
	defer srv.Close()
	j, err = postJoin(ctx, client, srv.URL, service.JoinRequest{Left: "u", Right: "c"})
	if err != nil {
		return nil, 0, j, fmt.Errorf("joining on the recovered service: %w", err)
	}
	return walls, replayed, j, nil
}

// churnMetrics books the reader's latency and per-layer metrics and
// returns the median execution wall of its untraced joins.
func churnMetrics(r *report, joins []joinSample, elapsed time.Duration, trace bool) float64 {
	var lat, latTraced, wall, overhead, unattributed []float64
	var grid []spans
	for _, j := range joins {
		if j.traced {
			latTraced = append(latTraced, j.lat)
			unattributed = append(unattributed, ratio(j.resp.Stats.WallMS-j.spans.critical(j.resp.Algo), j.lat))
			if j.resp.Algo == "grid" {
				grid = append(grid, j.spans)
			}
			continue
		}
		lat = append(lat, j.lat)
		wall = append(wall, j.resp.Stats.WallMS)
		overhead = append(overhead, j.lat-j.resp.Stats.WallMS)
	}
	r.set("join_p50_ms", median(lat))
	r.set("join_p90_ms", quantile(lat, 0.9))
	r.set("join_samples", float64(len(lat)))
	r.set("joins_per_s", float64(len(joins))/elapsed.Seconds())
	r.set("service.overhead_ms", median(overhead))
	if trace {
		r.set("obs.trace_overhead_frac", ratio(median(latTraced), median(lat))-1)
		r.set("obs.unattributed_frac", median(unattributed))
		bookGrid(r, grid)
	}
	return median(wall)
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}
