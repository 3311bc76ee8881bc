package main

import (
	"time"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/exp"
	"cij/internal/geom"
	"cij/internal/obs"
)

// fig7Paged is the paper's Fig. 7 setting through the library: NM-CIJ
// with the reuse buffer joins two uniform sets of 8000 points on paged
// R-trees (exp.DefaultPageSize pages, an LRU buffer of 2% of the data
// pages dropped before every join), one caller in a closed loop. Seed s
// draws the sets from generator seeds 2s-1 and 2s, so seed 1 is exactly
// the committed Fig. 7 benchmark and its page count.
func fig7Paged(cfg config) (*report, error) {
	r := newReport()
	n := cfg.n(8000)
	type built struct {
		env  *exp.Env
		p, q []geom.Point
	}
	var genMS, buildMS []float64
	b, err := medianSetup(cfg, r, func(int) (built, error) {
		t0 := time.Now()
		p := dataset.Uniform(n, 2*cfg.seed-1)
		q := dataset.Uniform(n, 2*cfg.seed)
		t1 := time.Now()
		env := exp.BuildEnv(p, q, exp.DefaultPageSize, exp.DefaultBufferPct)
		genMS = append(genMS, ms(t1.Sub(t0)))
		buildMS = append(buildMS, ms(time.Since(t1)))
		return built{env, p, q}, nil
	}, func(built) {})
	if err != nil {
		return nil, err
	}
	r.set("dataset.generate_ms", median(genMS))
	r.set("rtree.bulkload_ms", median(buildMS))
	r.set("heap_bytes_per_point", heapPerPoint(2*n))

	want := digest(oracle(b.p, b.q, nil, nil))
	if cfg.wrongOracle {
		want = want.corrupt()
	}

	var lat, latTraced, firstPair, unattributed []float64
	var pages, logical, physical, decodeHits []float64
	var traces []spans
	var joins int64
	mark := markRuntime()
	start := time.Now()
	for i := 0; time.Since(start) < cfg.run || i < 2; i++ {
		traced := cfg.trace && i%2 == 1
		var tr *obs.Trace
		if traced {
			tr = obs.NewTrace()
		}
		var got pairSet
		var first time.Duration
		b.env.Reset() // cold buffer for every join, as in the paper
		t0 := time.Now()
		res := core.NMCIJ(b.env.RP, b.env.RQ, exp.Domain, core.Options{
			Reuse: true,
			Trace: tr,
			OnPair: func(p core.Pair) {
				if got.Count == 0 {
					first = time.Since(t0)
				}
				got.add(p.P, p.Q)
			},
		})
		wall := time.Since(t0)
		joins++
		r.op(got == want, "fig7 join %d: got %d pairs, oracle %d", i, got.Count, want.Count)
		if !traced {
			lat = append(lat, ms(wall))
			firstPair = append(firstPair, ms(first))
			st := res.Stats
			pages = append(pages, float64(st.PageAccesses()))
			logical = append(logical, float64(st.Join.LogicalReads))
			physical = append(physical, float64(st.Join.PageReads))
			decodeHits = append(decodeHits, float64(st.Join.DecodeHits))
			continue
		}
		latTraced = append(latTraced, ms(wall))
		sp := libSpans(tr.Spans())
		traces = append(traces, sp)
		unattributed = append(unattributed, ratio(ms(wall)-sp.sum(""), ms(wall)))
	}
	elapsed := time.Since(start)
	mark.since(r, joins)

	r.set("join_p50_ms", median(lat))
	r.set("join_p90_ms", quantile(lat, 0.9))
	r.set("join_samples", float64(len(lat)))
	r.set("joins_per_s", float64(joins)/elapsed.Seconds())
	r.set("stream_first_pair_p50_ms", median(firstPair))
	r.set("pages_per_join", median(pages))
	r.set("storage.logical_reads_per_join", median(logical))
	r.set("storage.buffer_hit_frac", 1-ratio(mean(physical), mean(logical)))
	r.set("storage.decode_hits_per_join", median(decodeHits))
	if cfg.trace {
		bookNM(r, traces, n)
		r.set("obs.unattributed_frac", median(unattributed))
		r.set("obs.trace_overhead_frac", ratio(median(latTraced), median(lat))-1)
	}
	return r, nil
}
