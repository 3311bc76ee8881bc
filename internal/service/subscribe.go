package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cij/internal/dataset"
	"cij/internal/delta"
)

// subChanCap bounds the per-subscriber event queue (in chunks, one chunk
// per mutation). A subscriber that falls further behind than this is
// dropped with a lagged line rather than allowed to block or bloat the
// mutation path.
const subChanCap = 64

// subscriber is one open /join/subscribe connection: the join it
// watches and the queue its pre-encoded NDJSON chunks arrive on. The
// channel is closed by the hub — either on remove (the handler's own
// exit) or on overflow (lag) — never by the handler directly.
type subscriber struct {
	id          int64
	left, right string
	ch          chan []byte
	// draining marks a channel the hub closed for shutdown rather than
	// lag. Written under the hub lock strictly before close(ch) and read
	// only after the receive of the close, so the channel itself orders
	// the access.
	draining bool
}

// subHub fans mutation-churn chunks out to subscribers. Publishing
// happens under the service's mutMu (one publisher at a time); the hub's
// own lock only guards membership against concurrent subscribe and
// unsubscribe. Channels are only ever closed under the lock by whoever
// also removes the entry, so publish can never send on a closed channel.
type subHub struct {
	mu     sync.Mutex
	nextID int64
	subs   map[int64]*subscriber
}

func newSubHub() *subHub {
	return &subHub{subs: make(map[int64]*subscriber)}
}

// add registers a subscription on the (left, right) join.
func (h *subHub) add(left, right string) *subscriber {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextID++
	sub := &subscriber{id: h.nextID, left: left, right: right, ch: make(chan []byte, subChanCap)}
	h.subs[sub.id] = sub
	return sub
}

// remove deregisters sub. Safe to call after an overflow drop (the hub
// already removed and closed it; removing twice is a no-op).
func (h *subHub) remove(sub *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[sub.id]; ok {
		delete(h.subs, sub.id)
		close(sub.ch)
	}
}

// drain closes every subscription for shutdown: each handler wakes with
// a terminal "closed" line (not "lagged" — the client should reconnect
// to the next process, not assume it fell behind). Returns how many
// subscribers were drained.
func (h *subHub) drain() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.subs)
	for id, sub := range h.subs {
		sub.draining = true
		delete(h.subs, id)
		close(sub.ch)
	}
	return n
}

// count reports the open subscriptions (the cij_subscribers gauge).
func (h *subHub) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// pairsInvolving returns the distinct (left, right) joins subscribed to
// that have name as either operand — the joins a mutation of name must
// maintain. One delta run serves every subscriber of the same pair.
func (h *subHub) pairsInvolving(name string) [][2]string {
	h.mu.Lock()
	defer h.mu.Unlock()
	seen := make(map[[2]string]bool)
	var out [][2]string
	for _, sub := range h.subs {
		if sub.left != name && sub.right != name {
			continue
		}
		pr := [2]string{sub.left, sub.right}
		if !seen[pr] {
			seen[pr] = true
			out = append(out, pr)
		}
	}
	return out
}

// publish enqueues one chunk to every subscriber of (left, right). A
// subscriber whose queue is full is dropped on the spot — removed and
// closed, which its handler observes as the lagged terminal — so a stuck
// client can not apply backpressure to the mutation path. Returns how
// many subscribers were dropped.
func (h *subHub) publish(left, right string, chunk []byte) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	dropped := 0
	for id, sub := range h.subs {
		if sub.left != left || sub.right != right {
			continue
		}
		select {
		case sub.ch <- chunk:
		default:
			delete(h.subs, id)
			close(sub.ch)
			dropped++
		}
	}
	return dropped
}

// handleJoinSubscribe is GET /join/subscribe?left=A&right=B: a
// long-lived NDJSON stream of the named join's pair churn. One
// "subscribed" line reports the base versions (the client baselines with
// a full join against them); afterwards every mutation of either operand
// produces its "+pair"/"-pair" lines followed by one "delta" summary. A
// client that falls behind gets a terminal "lagged" line and must
// resubscribe.
func (s *Service) handleJoinSubscribe(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	leftName, rightName := params.Get("left"), params.Get("right")
	if leftName == rightName {
		writeError(w, http.StatusBadRequest,
			"subscribe requires two distinct datasets (self-join churn is not maintained incrementally)")
		return
	}
	if _, ok := s.reg.Get(leftName); !ok {
		writeError(w, http.StatusBadRequest, "unknown dataset %q", leftName)
		return
	}
	if _, ok := s.reg.Get(rightName); !ok {
		writeError(w, http.StatusBadRequest, "unknown dataset %q", rightName)
		return
	}

	// Register BEFORE reading the base versions: a mutation landing in
	// between is then delivered as events (harmlessly at-or-below the
	// reported base, which the client ignores), never silently lost.
	sub := s.hub.add(leftName, rightName)
	defer s.hub.remove(sub)
	left, ok := s.reg.Get(leftName)
	right, ok2 := s.reg.Get(rightName)
	if !ok || !ok2 {
		writeError(w, http.StatusBadRequest, "dataset disappeared during subscribe")
		return
	}

	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.Encode(StreamSubscribed{
		Type: "subscribed", Left: leftName, Right: rightName,
		LeftVersion: left.Version, RightVersion: right.Version,
	})
	flush()

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case chunk, ok := <-sub.ch:
			if !ok {
				if sub.draining {
					// Server shutdown: a clean goodbye, not a lag drop.
					enc.Encode(StreamClosed{Type: "closed", Reason: "server shutting down"})
					flush()
					return
				}
				// The hub dropped us for lagging. Tell the client before
				// closing so it knows to resubscribe and re-baseline.
				enc.Encode(StreamLagged{Type: "lagged", Error: "event queue overflowed; resubscribe and re-baseline"})
				flush()
				return
			}
			if _, err := w.Write(chunk); err != nil {
				return
			}
			flush()
		}
	}
}

// propagateMutation runs incremental join maintenance for every
// subscribed join involving the mutated dataset. Called under mutMu, so
// the published event order is the version order.
func (s *Service) propagateMutation(old, cur *Dataset, changes []delta.Change) []DeltaSummaryJSON {
	pairs := s.hub.pairsInvolving(cur.Name)
	if len(pairs) == 0 {
		return nil
	}
	var out []DeltaSummaryJSON
	for _, pr := range pairs {
		if sum := s.computeDelta(pr[0], pr[1], old, cur, changes); sum != nil {
			out = append(out, *sum)
		}
	}
	return out
}

// computeDelta maintains one subscribed join across a mutation: it runs
// the delta engine (a localized computation bounded by the paper's
// Lemma 1/2 influence argument, not a recompute), publishes the churn to
// the pair's subscribers, and books the run on every observability
// surface a full join would hit — query ID, journal record (algo
// "delta"), latency histogram, I/O counters, structured log.
func (s *Service) computeDelta(leftName, rightName string, old, cur *Dataset, changes []delta.Change) *DeltaSummaryJSON {
	mutatedLeft := leftName == cur.Name
	otherName := rightName
	if !mutatedLeft {
		otherName = leftName
	}
	other, ok := s.reg.Get(otherName)
	if !ok {
		return nil // the opposite dataset vanished; nothing to maintain
	}

	qid := s.queryID.Add(1)
	start := time.Now()
	oldT, newT, otherT := old.View(), cur.View(), other.View()
	res := delta.PairChurn(oldT, newT, otherT, changes, mutatedLeft, dataset.Domain)
	wall := time.Since(start)
	io := oldT.Buffer().Stats().Add(newT.Buffer().Stats()).Add(otherT.Buffer().Stats())
	churn := len(res.Added) + len(res.Removed)

	s.metrics.deltaRuns.Inc()
	s.metrics.deltaLatency.Observe(wall.Seconds())
	if n := len(res.Added); n > 0 {
		s.metrics.churnEvents.With("add").Add(int64(n))
	}
	if n := len(res.Removed); n > 0 {
		s.metrics.churnEvents.With("remove").Add(int64(n))
	}
	s.metrics.recordJoinIO(io)

	lv, rv := cur.Version, other.Version
	ld, rd := cur, other
	if !mutatedLeft {
		lv, rv = other.Version, cur.Version
		ld, rd = other, cur
	}
	sum := DeltaSummaryJSON{
		QueryID:       qid,
		Left:          leftName,
		LeftVersion:   lv,
		Right:         rightName,
		RightVersion:  rv,
		Mutated:       map[bool]string{true: "left", false: "right"}[mutatedLeft],
		Added:         len(res.Added),
		Removed:       len(res.Removed),
		AffectedSites: res.Affected,
		Probes:        res.Probes,
		Stats:         statsFromIO(io, wall),
	}

	if s.journal.Enabled() {
		s.journal.Add(JournalRecord{
			ID:           qid,
			Time:         time.Now(),
			Left:         leftName,
			LeftVersion:  lv,
			Right:        rightName,
			RightVersion: rv,
			Algo:         "delta",
			Storage:      "paged",
			Pairs:        int64(churn),
			Stats:        sum.Stats,
			Reason: fmt.Sprintf("incremental maintenance after mutation of %q: %d changes touched %d sites, churning +%d/-%d pairs",
				cur.Name, len(changes), res.Affected, len(res.Added), len(res.Removed)),
			Inputs: planInputs(ld, rd),
		}, nil, 0)
	}
	s.logger.Info("delta computed",
		"query_id", qid,
		"left", leftName, "right", rightName,
		"mutated", sum.Mutated,
		"added", len(res.Added), "removed", len(res.Removed),
		"affected_sites", res.Affected, "probes", res.Probes,
		"pages", io.PageAccesses(),
		"wall_ms", float64(wall)/float64(time.Millisecond),
	)

	// One pre-encoded chunk per mutation: churn lines, then the summary.
	var bb bytes.Buffer
	cenc := json.NewEncoder(&bb)
	for _, p := range res.Removed {
		cenc.Encode(StreamChurn{Type: "-pair", P: p.P, Q: p.Q, QueryID: qid, LeftVersion: lv, RightVersion: rv})
	}
	for _, p := range res.Added {
		cenc.Encode(StreamChurn{Type: "+pair", P: p.P, Q: p.Q, QueryID: qid, LeftVersion: lv, RightVersion: rv})
	}
	cenc.Encode(StreamDelta{Type: "delta", DeltaSummaryJSON: sum})
	if dropped := s.hub.publish(leftName, rightName, bb.Bytes()); dropped > 0 {
		s.metrics.subLagged.Add(int64(dropped))
		s.logger.Warn("subscribers dropped for lag", "left", leftName, "right", rightName, "dropped", dropped)
	}
	return &sum
}
