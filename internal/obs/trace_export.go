package obs

import "time"

// Chrome trace-event export: convert a Trace's aggregated spans into the
// Trace Event Format consumed by chrome://tracing and Perfetto. Spans are
// phase aggregates, not timestamped events, so the export reconstructs a
// plausible timeline: spans sharing a tag (one worker, one tile, the
// serial path) lay out sequentially on one thread row, distinct tags get
// their own rows — which renders a parallel run as the familiar
// one-lane-per-worker flame chart, with each lane's span widths equal to
// the phases' measured wall-clock.

// ChromeTraceEvent is one event in the Trace Event Format. Complete
// events (Ph "X") carry Ts and Dur in microseconds; metadata events
// (Ph "M") name processes and threads.
type ChromeTraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the JSON-object form of the Trace Event Format (the
// array form is also legal, but the object form admits metadata).
type ChromeTrace struct {
	TraceEvents     []ChromeTraceEvent `json:"traceEvents"`
	DisplayTimeUnit string             `json:"displayTimeUnit"`
}

// ChromeTraceFromSpans lays the spans out as complete events, one thread
// row per distinct tag (first-appearance order; the untagged serial row
// is named "main"), plus process/thread-name metadata. pid labels the
// process row (a query ID renders each journal export distinctly in a
// merged view). Counter deltas ride along in each event's args.
func ChromeTraceFromSpans(spans []Span, pid int) ChromeTrace {
	tids := make(map[string]int)
	cursor := make(map[int]float64) // per-thread timeline position, µs
	events := []ChromeTraceEvent{{
		Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
		Args: map[string]any{"name": "cij query"},
	}}
	for _, sp := range spans {
		tid, ok := tids[sp.Tag]
		if !ok {
			tid = len(tids)
			tids[sp.Tag] = tid
			threadName := sp.Tag
			if threadName == "" {
				threadName = "main"
			}
			events = append(events, ChromeTraceEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": threadName},
			})
		}
		durUS := float64(sp.Wall) / float64(time.Microsecond)
		events = append(events, ChromeTraceEvent{
			Name: sp.Phase,
			Cat:  "cij",
			Ph:   "X",
			Ts:   cursor[tid],
			Dur:  durUS,
			Pid:  pid,
			Tid:  tid,
			Args: spanArgs(sp),
		})
		cursor[tid] += durUS
	}
	return ChromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}
}

// spanArgs projects a span's non-zero counters into event args, so the
// Perfetto side panel shows the phase's I/O profile.
func spanArgs(sp Span) map[string]any {
	args := make(map[string]any)
	add := func(k string, v int64) {
		if v != 0 {
			args[k] = v
		}
	}
	add("logical_reads", sp.LogicalReads)
	add("pages_read", sp.PagesRead)
	add("pages_written", sp.PagesWritten)
	add("decode_hits", sp.DecodeHits)
	add("candidates", sp.Candidates)
	add("true_hits", sp.TrueHits)
	add("p_cells", sp.PCells)
	add("items", sp.Items)
	if len(args) == 0 {
		return nil
	}
	return args
}
