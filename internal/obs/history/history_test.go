package history

import (
	"testing"
	"time"

	"cij/internal/obs"
)

// TestRingWraparound: the ring keeps the newest capacity samples in
// chronological order and counts everything it ever took.
func TestRingWraparound(t *testing.T) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("test_total", "t")
	r := New(reg, 4, nil)
	for i := 0; i < 6; i++ {
		ctr.Inc()
		r.Sample()
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (capacity)", r.Len())
	}
	if r.Total() != 6 {
		t.Fatalf("Total = %d, want 6", r.Total())
	}
	w := r.Window(0)
	if len(w.Samples) != 4 {
		t.Fatalf("window holds %d samples, want 4", len(w.Samples))
	}
	// Oldest surviving sample is the 3rd taken (counter at 3), newest the
	// 6th (counter at 6) — and they must come out oldest first.
	if got := w.Samples[0].Snap.Sum("test_total"); got != 3 {
		t.Fatalf("oldest sample counter = %g, want 3", got)
	}
	if got := w.Samples[3].Snap.Sum("test_total"); got != 6 {
		t.Fatalf("newest sample counter = %g, want 6", got)
	}
	for i := 1; i < len(w.Samples); i++ {
		if w.Samples[i].T.Before(w.Samples[i-1].T) {
			t.Fatalf("samples out of order at %d", i)
		}
	}
}

// TestWindowCut: ?window-style cuts keep only samples within the duration
// of the newest one.
func TestWindowCut(t *testing.T) {
	reg := obs.NewRegistry()
	r := New(reg, 16, nil)
	r.Sample()
	time.Sleep(30 * time.Millisecond)
	r.Sample()
	time.Sleep(5 * time.Millisecond)
	r.Sample()
	if got := len(r.Window(0).Samples); got != 3 {
		t.Fatalf("full window = %d samples, want 3", got)
	}
	// 15ms window: the first sample is ~35ms before the newest, out.
	if got := len(r.Window(15 * time.Millisecond).Samples); got != 2 {
		t.Fatalf("15ms window = %d samples, want 2", got)
	}
}

// TestWindowMath: deltas, rates, ratios and quantiles computed from the
// window's endpoint snapshots.
func TestWindowMath(t *testing.T) {
	reg := obs.NewRegistry()
	hits := reg.Counter("hits_total", "t")
	misses := reg.Counter("misses_total", "t")
	labeled := reg.CounterVec("labeled_total", "t", "k")
	hist := reg.Histogram("lat_seconds", "t", []float64{0.1, 1, 10})
	r := New(reg, 8, nil)

	hist.Observe(0.05) // before the window: must not count
	r.Sample()
	time.Sleep(2 * time.Millisecond)
	for i := 0; i < 3; i++ {
		hits.Inc()
	}
	misses.Inc()
	labeled.With("a").Inc()
	labeled.With("b").Inc()
	for i := 0; i < 10; i++ {
		hist.Observe(0.5)
	}
	r.Sample()

	w := r.Window(0)
	if got := w.Delta("hits_total"); got != 3 {
		t.Fatalf("Delta(hits) = %g, want 3", got)
	}
	// Labeled families sum across their series.
	if got := w.Delta("labeled_total"); got != 2 {
		t.Fatalf("Delta(labeled) = %g, want 2", got)
	}
	// Prefix matching must not leak into distinct families ("hits_total"
	// vs a hypothetical "hits_total_other").
	if got := w.Delta("hits"); got != 0 {
		t.Fatalf("Delta(prefix) = %g, want 0", got)
	}
	if got := w.Rate("hits_total"); got <= 0 {
		t.Fatalf("Rate(hits) = %g, want > 0", got)
	}
	if got := w.Ratio("hits_total", "misses_total"); got != 0.75 {
		t.Fatalf("Ratio = %g, want 0.75", got)
	}
	// All 10 windowed observations sit in the (0.1, 1] bucket; the
	// pre-window 0.05 must be subtracted out, so every quantile
	// interpolates within that bucket.
	for _, q := range []float64{0.5, 0.99} {
		got := w.Quantile("lat_seconds", q)
		if got <= 0.1 || got > 1 {
			t.Fatalf("Quantile(%g) = %g, want in (0.1, 1]", q, got)
		}
	}
}

// TestWindowDegenerate: zero or one sample yields zeros, not panics.
func TestWindowDegenerate(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c_total", "t").Inc()
	r := New(reg, 8, nil)
	w := r.Window(0)
	if w.Delta("c_total") != 0 || w.Rate("c_total") != 0 || w.Span() != 0 {
		t.Fatal("empty window must report zeros")
	}
	r.Sample()
	w = r.Window(0)
	if w.Delta("c_total") != 0 || w.Rate("c_total") != 0 {
		t.Fatal("single-sample window has no interval; wants zeros")
	}
	if got := w.Last("c_total"); got != 1 {
		t.Fatalf("Last = %g, want 1", got)
	}
	if got := w.Quantile("lat_seconds", 0.5); got != 0 {
		t.Fatalf("Quantile of absent family = %g, want 0", got)
	}
}

// TestStartStop: Start samples immediately, keeps sampling on the
// interval, and stop halts the loop (double-stop is safe).
func TestStartStop(t *testing.T) {
	reg := obs.NewRegistry()
	collected := 0
	r := New(reg, 64, func() { collected++ })
	stop := r.Start(5 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for r.Total() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	n := r.Total()
	if n < 3 {
		t.Fatalf("Total = %d after Start, want >= 3", n)
	}
	if collected == 0 {
		t.Fatal("collect hook never ran")
	}
	if r.Interval() != 5*time.Millisecond {
		t.Fatalf("Interval = %v, want 5ms", r.Interval())
	}
	time.Sleep(25 * time.Millisecond)
	if r.Total() > n+1 { // one tick may already have been in flight
		t.Fatalf("sampling continued after stop: %d -> %d", n, r.Total())
	}
}
