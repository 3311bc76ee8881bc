package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cij/internal/core"
	"cij/internal/obs"
	"cij/internal/storage"
)

// TestCacheInvalidationExactNames is the regression for the old textual
// invalidation sweep: matching must be field-exact, so a dataset whose
// name is a prefix/substring of another's never sweeps its neighbor's
// entries, and every entry involving the named dataset goes regardless
// of which side it sits on.
func TestCacheInvalidationExactNames(t *testing.T) {
	c := newResultCache(16, new(obs.Counter), new(obs.Counter), new(obs.Counter))
	res := &cachedResult{Pairs: []core.Pair{{P: 1, Q: 2}}, Count: 1, IO: storage.Stats{}}
	put := func(left, right string) string {
		key := left + "|" + right // distinct handle per entry; content is irrelevant here
		c.put(key, left, right, res)
		return key
	}
	kPQ := put("p", "q")
	kPPQ := put("pp", "q")  // "p" is a prefix of "pp"
	kAP := put("a", "p")    // "p" on the right side
	kAPP := put("a", "p.q") // "p" a prefix of "p.q"
	kXY := put("x", "y")    // untouched bystander

	c.invalidateDataset("p")

	for _, tc := range []struct {
		key  string
		want bool
	}{
		{kPQ, false}, // left == p: swept
		{kAP, false}, // right == p: swept
		{kPPQ, true}, // pp != p: must survive
		{kAPP, true}, // p.q != p: must survive
		{kXY, true},
	} {
		if _, ok := c.get(tc.key); ok != tc.want {
			t.Errorf("after invalidate(p): entry %q present=%v, want %v", tc.key, ok, tc.want)
		}
	}
}

// TestInstrumentPanicRecovery exercises the recovery middleware: a
// panicking handler must produce a JSON 500 (when no status was
// committed), tick cij_panics_total, and still book its request metrics —
// and http.ErrAbortHandler must pass through untouched.
func TestInstrumentPanicRecovery(t *testing.T) {
	s := New(Config{})
	h := s.instrument("boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	rr := httptest.NewRecorder()
	h(rr, httptest.NewRequest(http.MethodGet, "/boom", nil))

	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("panic response is not JSON: %q", rr.Body.String())
	}
	if !strings.Contains(body["error"], "kaboom") {
		t.Fatalf("panic response %q does not name the panic", body["error"])
	}

	// A second panic after the handler already committed a status must not
	// write a second body on top of the stream.
	h2 := s.instrument("boom2", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("partial"))
		panic("late")
	})
	rr2 := httptest.NewRecorder()
	h2(rr2, httptest.NewRequest(http.MethodGet, "/boom2", nil))
	if rr2.Code != http.StatusOK || rr2.Body.String() != "partial" {
		t.Fatalf("mid-stream panic rewrote the response: code=%d body=%q", rr2.Code, rr2.Body.String())
	}

	// Both recoveries are on the books.
	mrr := httptest.NewRecorder()
	s.Handler().ServeHTTP(mrr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(mrr.Body.String(), "cij_panics_total 2") {
		t.Fatalf("metrics do not report cij_panics_total 2:\n%s", grepMetric(mrr.Body.String(), "cij_panics_total"))
	}

	// net/http's sanctioned abort is not a recovered panic.
	h3 := s.instrument("abort", func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	})
	func() {
		defer func() {
			if recover() != http.ErrAbortHandler {
				t.Error("http.ErrAbortHandler was swallowed by the middleware")
			}
		}()
		h3(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/abort", nil))
	}()
}

// grepMetric extracts the lines of one metric family for error messages.
func grepMetric(body, name string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, name) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
