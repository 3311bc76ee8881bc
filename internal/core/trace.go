package core

import (
	"time"

	"cij/internal/obs"
	"cij/internal/rtree"
	"cij/internal/storage"
)

// IOCounters converts a storage.Stats delta into the span-counter
// vocabulary of internal/obs. It lives here (not in obs) so obs stays
// dependency-free and importable from storage itself.
func IOCounters(d storage.Stats) obs.Counters {
	return obs.Counters{
		LogicalReads: d.LogicalReads,
		PagesRead:    d.PageReads,
		PagesWritten: d.PageWrites,
		DecodeHits:   d.DecodeHits,
	}
}

// combinedIO snapshots the total I/O counters visible through two trees,
// counting a shared buffer once (the paper's single-disk setting shares
// one buffer between rp and rq; the service's per-dataset views do not).
func combinedIO(rp, rq *rtree.Tree) storage.Stats {
	s := rp.Buffer().Stats()
	if rq.Buffer() != rp.Buffer() {
		s = s.Add(rq.Buffer().Stats())
	}
	return s
}

// phasePoint marks a phase boundary: the I/O counters and the clock at
// that instant. Phase spans are deltas between consecutive points, so the
// points chain and every interval of a traced run is attributed to
// exactly one span — the per-phase deltas sum to the run's aggregate.
type phasePoint struct {
	io storage.Stats
	t  time.Time
}

// markPhase snapshots a phase boundary. Only called when tracing is
// enabled; the nil-trace hot path never reads the clock.
func markPhase(rp, rq *rtree.Tree) phasePoint {
	return phasePoint{io: combinedIO(rp, rq), t: time.Now()}
}

// endPhase closes the phase started at pc: it records one span holding
// the wall-clock and I/O deltas since pc plus the caller's extra
// counters, and returns the new boundary for the next phase.
func endPhase(tr *obs.Trace, tag string, pc phasePoint, rp, rq *rtree.Tree, phase string, extra obs.Counters) phasePoint {
	now := markPhase(rp, rq)
	tr.Add(phase, tag, now.t.Sub(pc.t), IOCounters(now.io.Sub(pc.io)).Add(extra))
	return now
}
