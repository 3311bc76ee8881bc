package obs

import (
	"sync"
	"time"
)

// Counters is the flat counter delta a span carries: the storage.Stats
// vocabulary (kept field-for-field so per-phase deltas sum to a run's
// aggregate I/O stats), the NM-CIJ filter-quality counters, and a generic
// Items count (batches, tiles, units — whatever the phase iterates over).
// The zero value is an empty delta.
type Counters struct {
	LogicalReads int64 `json:"logical_reads,omitempty"`
	PagesRead    int64 `json:"pages_read,omitempty"`
	PagesWritten int64 `json:"pages_written,omitempty"`
	DecodeHits   int64 `json:"decode_hits,omitempty"`
	Candidates   int64 `json:"candidates,omitempty"`
	TrueHits     int64 `json:"true_hits,omitempty"`
	PCells       int64 `json:"p_cells,omitempty"`
	Items        int64 `json:"items,omitempty"`
}

// Add returns the field-wise sum c + o.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		LogicalReads: c.LogicalReads + o.LogicalReads,
		PagesRead:    c.PagesRead + o.PagesRead,
		PagesWritten: c.PagesWritten + o.PagesWritten,
		DecodeHits:   c.DecodeHits + o.DecodeHits,
		Candidates:   c.Candidates + o.Candidates,
		TrueHits:     c.TrueHits + o.TrueHits,
		PCells:       c.PCells + o.PCells,
		Items:        c.Items + o.Items,
	}
}

// Span is one aggregated phase of a traced query: everything recorded
// under the same (Phase, Tag) pair folded together. Wall is the summed
// wall-clock of the phase's recordings; the counters are their summed
// deltas. JSON tags make spans loggable as-is through slog's JSONHandler.
type Span struct {
	Phase string        `json:"phase"`
	Tag   string        `json:"tag,omitempty"`
	Wall  time.Duration `json:"wall_ns"`
	Counters
}

// DefaultMaxSpans bounds the distinct (phase, tag) pairs a Trace keeps
// before folding new pairs into a per-phase overflow span — generous for
// phase-per-worker traces, a guard against per-tile explosion.
const DefaultMaxSpans = 128

// OverflowTag is the tag of the per-phase span that absorbs recordings
// arriving after the distinct-span cap is reached.
const OverflowTag = "other"

// Trace accumulates the phase spans of one query. Add is safe for
// concurrent use (parallel workers record into one trace); a nil *Trace
// is the disabled tracer — every method no-ops — so call sites guard
// their measurement work with Enabled and pass the trace down untouched.
type Trace struct {
	mu      sync.Mutex
	start   time.Time
	keys    map[spanKey]int // (phase, tag) -> index into spans
	spans   []Span
	max     int
	dropped int64
}

type spanKey struct{ phase, tag string }

// NewTrace starts a trace clocked from now.
func NewTrace() *Trace {
	return &Trace{
		start: time.Now(),
		keys:  make(map[spanKey]int),
		max:   DefaultMaxSpans,
	}
}

// SetMaxSpans bounds the number of distinct (phase, tag) spans kept;
// n <= 0 restores the default. Call before recording.
func (t *Trace) SetMaxSpans(n int) {
	if t == nil {
		return
	}
	if n <= 0 {
		n = DefaultMaxSpans
	}
	t.mu.Lock()
	t.max = n
	t.mu.Unlock()
}

// Enabled reports whether the trace records anything: the idiom is
// tr.Enabled() guarding the caller's clock reads and stat snapshots.
func (t *Trace) Enabled() bool { return t != nil }

// Add folds one recording into the span keyed (phase, tag). Past the
// distinct-span cap, new pairs collapse into (phase, OverflowTag) and the
// dropped count grows. Nil-safe no-op.
func (t *Trace) Add(phase, tag string, wall time.Duration, c Counters) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := spanKey{phase, tag}
	i, ok := t.keys[key]
	if !ok {
		if len(t.spans) >= t.max {
			t.dropped++
			key = spanKey{phase, OverflowTag}
			if i, ok = t.keys[key]; !ok {
				// One overflow span per phase may exceed the cap; the
				// phase set itself is small and bounded by the callers.
				i = t.addLocked(key)
			}
		} else {
			i = t.addLocked(key)
		}
	}
	sp := &t.spans[i]
	sp.Wall += wall
	sp.Counters = sp.Counters.Add(c)
}

func (t *Trace) addLocked(key spanKey) int {
	t.keys[key] = len(t.spans)
	t.spans = append(t.spans, Span{Phase: key.phase, Tag: key.tag})
	return len(t.spans) - 1
}

// Spans returns a copy of the aggregated spans in first-recorded order.
// Nil-safe (returns nil).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Total returns the field-wise sum of every span's counters — the
// aggregate the per-phase deltas must reconcile with. Nil-safe.
func (t *Trace) Total() Counters {
	if t == nil {
		return Counters{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var total Counters
	for i := range t.spans {
		total = total.Add(t.spans[i].Counters)
	}
	return total
}

// Wall returns the elapsed time since the trace started. Nil-safe (zero).
func (t *Trace) Wall() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// Dropped returns how many recordings were folded into overflow spans
// because the distinct-span cap was hit. Nil-safe (zero).
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
