package main

import (
	"strings"

	"cij/internal/obs"
	"cij/internal/service"
)

// span is one phase span of a traced join, from either the library's
// obs.Trace or a service response's trace block.
type span struct {
	phase, tag string
	ms         float64
	c          obs.Counters
}

type spans []span

// nmPhases are NM-CIJ's phase spans. They chain boundary to boundary, so
// their sum is the join's wall time up to NMCIJ's set-up before the
// first span.
var nmPhases = []string{"traverse", "voronoi", "filter", "refine", "join"}

func libSpans(in []obs.Span) spans {
	out := make(spans, len(in))
	for i, s := range in {
		out[i] = span{phase: s.Phase, tag: s.Tag, ms: ms(s.Wall), c: s.Counters}
	}
	return out
}

func wireSpans(tj *service.TraceJSON) spans {
	if tj == nil {
		return nil
	}
	out := make(spans, len(tj.Spans))
	for i, s := range tj.Spans {
		out[i] = span{phase: s.Phase, tag: s.Tag, ms: s.WallMS, c: s.Counters}
	}
	return out
}

// sum is the summed wall of the spans of phase, whatever their tag
// (every phase when phase is empty).
func (s spans) sum(phase string) float64 {
	total := 0.0
	for _, sp := range s {
		if phase == "" || sp.phase == phase {
			total += sp.ms
		}
	}
	return total
}

// counters is the summed counters of the spans sum would add up.
func (s spans) counters(phase string) obs.Counters {
	var c obs.Counters
	for _, sp := range s {
		if phase == "" || sp.phase == phase {
			c = c.Add(sp.c)
		}
	}
	return c
}

// workerBusy is each parallel worker's busy time: the sum of its
// pipeline spans, keyed by worker tag.
func (s spans) workerBusy() map[string]float64 {
	busy := map[string]float64{}
	for _, sp := range s {
		if strings.HasPrefix(sp.tag, "w") {
			busy[sp.tag] += sp.ms
		}
	}
	return busy
}

// critical is the part of a service join's execution wall the trace
// explains, algorithm by algorithm, counting each instant once:
//   - nm: the chained phase spans;
//   - grid: both diagram builds, replication and the aggregate join span
//     (per-tile spans lie inside it; past the trace's span cap the join
//     span itself folds into the "other" tag, so any tag counts);
//   - parallel: the partition span, then the merge span, which runs from
//     the workers' start to the last worker's end and so covers them.
//
// The admission span precedes the execution wall and is left out.
func (s spans) critical(algo string) float64 {
	switch algo {
	case "grid":
		return s.sum("voronoi") + s.sum("replicate") + s.sum("join")
	case "parallel":
		return s.sum("partition") + s.sum("merge")
	default:
		total := 0.0
		for _, ph := range nmPhases {
			total += s.sum(ph)
		}
		return total
	}
}
