package exp

import (
	"runtime"
	"time"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/geom"
	"cij/internal/parallel"
)

// ScalRow is one point of the parallel scalability experiment: one
// dataset × worker-count cell, with wall-clock time, speedup over the
// serial NM-CIJ baseline on the same data, summed physical I/O and the
// result cardinality (a cheap equivalence check across rows).
type ScalRow struct {
	Dataset string
	Workers int // 0 = serial NM-CIJ baseline
	Wall    time.Duration
	Speedup float64
	IO      int64
	Pairs   int64
}

// RunScalability measures the partitioned engine against serial NM-CIJ on
// the uniform paper-style workload and a clustered one (|P| = |Q| = n),
// across the given worker counts. Wall-clock scaling tops out at the
// machine's core count (runtime.NumCPU, reported by cmd/cijbench
// alongside the table).
func RunScalability(n int, workerCounts []int, seed int64) []ScalRow {
	type ds struct {
		name string
		p, q []geom.Point
	}
	datasets := []ds{
		{"uniform", dataset.Uniform(n, seed), dataset.Uniform(n, seed+1)},
		{"clustered", dataset.Clustered(n, 64, seed+2), dataset.Clustered(n, 48, seed+3)},
	}

	var rows []ScalRow
	for _, d := range datasets {
		env := BuildEnv(d.p, d.q, DefaultPageSize, DefaultBufferPct)

		var serialPairs int64
		sOpts := countOnly()
		sOpts.OnPair = func(core.Pair) { serialPairs++ }
		start := time.Now()
		sRes := core.NMCIJ(env.RP, env.RQ, Domain, sOpts)
		serialWall := time.Since(start)
		rows = append(rows, ScalRow{
			Dataset: d.name,
			Workers: 0,
			Wall:    serialWall,
			Speedup: 1,
			IO:      sRes.Stats.PageAccesses(),
			Pairs:   serialPairs,
		})

		for _, w := range workerCounts {
			env.Reset()
			var pairs int64
			opts := parallel.DefaultOptions()
			opts.Workers = w
			opts.CollectPairs = false
			opts.OnPair = func(core.Pair) { pairs++ }
			start := time.Now()
			res := parallel.Join(env.RP, env.RQ, Domain, opts)
			wall := time.Since(start)
			rows = append(rows, ScalRow{
				Dataset: d.name,
				Workers: w,
				Wall:    wall,
				Speedup: float64(serialWall) / float64(wall),
				IO:      res.Stats.PageAccesses(),
				Pairs:   pairs,
			})
		}
	}
	return rows
}

// NumCPUForScal reports the core budget wall-clock scaling is bounded by,
// for the table caption.
func NumCPUForScal() int { return runtime.NumCPU() }
