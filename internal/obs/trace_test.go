package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// A nil *Trace is the disabled tracer: every method no-ops safely.
func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	tr.Add("filter", "", time.Second, Counters{PagesRead: 1})
	tr.SetMaxSpans(4)
	if tr.Spans() != nil || tr.Total() != (Counters{}) || tr.Wall() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil trace leaked state")
	}
}

func TestTraceAggregatesByPhaseTag(t *testing.T) {
	tr := NewTrace()
	tr.Add("filter", "", 2*time.Millisecond, Counters{PagesRead: 3, Candidates: 10})
	tr.Add("filter", "", 3*time.Millisecond, Counters{PagesRead: 1, Candidates: 5})
	tr.Add("refine", "", time.Millisecond, Counters{PCells: 7})
	tr.Add("join", "w1", time.Millisecond, Counters{TrueHits: 2})

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3: %+v", len(spans), spans)
	}
	if spans[0].Phase != "filter" || spans[0].Wall != 5*time.Millisecond ||
		spans[0].PagesRead != 4 || spans[0].Candidates != 15 {
		t.Fatalf("filter span = %+v", spans[0])
	}
	total := tr.Total()
	if total.PagesRead != 4 || total.Candidates != 15 || total.PCells != 7 || total.TrueHits != 2 {
		t.Fatalf("total = %+v", total)
	}
	if tr.Wall() <= 0 {
		t.Fatal("wall clock did not advance")
	}
}

func TestTraceOverflowFoldsIntoOther(t *testing.T) {
	tr := NewTrace()
	tr.SetMaxSpans(2)
	tr.Add("tile", "0,0", time.Millisecond, Counters{TrueHits: 1})
	tr.Add("tile", "0,1", time.Millisecond, Counters{TrueHits: 1})
	tr.Add("tile", "0,2", time.Millisecond, Counters{TrueHits: 1}) // overflows
	tr.Add("tile", "0,3", time.Millisecond, Counters{TrueHits: 1}) // folds into same overflow span
	tr.Add("tile", "0,0", time.Millisecond, Counters{TrueHits: 1}) // existing key, not dropped

	if got := tr.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	spans := tr.Spans()
	var other *Span
	for i := range spans {
		if spans[i].Tag == OverflowTag {
			other = &spans[i]
		}
	}
	if other == nil || other.TrueHits != 2 {
		t.Fatalf("overflow span = %+v (spans %+v)", other, spans)
	}
	// Counters are conserved across the fold.
	if total := tr.Total(); total.TrueHits != 5 {
		t.Fatalf("total hits = %d, want 5", total.TrueHits)
	}
}

// Parallel workers record into one trace; run under -race in CI.
func TestTraceConcurrentAdd(t *testing.T) {
	tr := NewTrace()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tag := fmt.Sprintf("w%d", id)
			for i := 0; i < per; i++ {
				tr.Add("filter", tag, time.Microsecond, Counters{Candidates: 1})
				tr.Add("join", tag, time.Microsecond, Counters{TrueHits: 1})
			}
		}(w)
	}
	wg.Wait()
	total := tr.Total()
	if total.Candidates != workers*per || total.TrueHits != workers*per {
		t.Fatalf("total = %+v", total)
	}
	if got := len(tr.Spans()); got != 2*workers {
		t.Fatalf("spans = %d, want %d", got, 2*workers)
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{LogicalReads: 1, PagesRead: 2, PagesWritten: 3, DecodeHits: 4, Candidates: 6, TrueHits: 7, PCells: 8, Items: 9}
	b := a.Add(a)
	if b.LogicalReads != 2 || b.PagesRead != 4 || b.PagesWritten != 6 || b.DecodeHits != 8 ||
		b.Candidates != 12 || b.TrueHits != 14 || b.PCells != 16 || b.Items != 18 {
		t.Fatalf("sum = %+v", b)
	}
}
