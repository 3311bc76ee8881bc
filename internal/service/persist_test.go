package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/geom"
	"cij/internal/storage"
)

// durableConfig is the test configuration for a durable service over an
// injected filesystem.
func durableConfig(fsys storage.FS) Config {
	return Config{DataDir: "data", FS: fsys, JournalEntries: -1}
}

func mustOpen(t *testing.T, fsys storage.FS) *Service {
	t.Helper()
	s, err := Open(durableConfig(fsys))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func mustIngest(t *testing.T, s *Service, name string, pts []geom.Point) *Dataset {
	t.Helper()
	d, err := s.Ingest(name, pts)
	if err != nil {
		t.Fatalf("Ingest(%s): %v", name, err)
	}
	return d
}

func mustMutate(t *testing.T, s *Service, name string, req MutationRequest) *MutationResponse {
	t.Helper()
	resp, err := s.MutatePoints(name, req)
	if err != nil {
		t.Fatalf("MutatePoints(%s): %v", name, err)
	}
	return resp
}

// sortedPairs is a canonical projection of a join result for equality.
func sortedPairs(pairs []core.Pair) []core.Pair {
	out := append([]core.Pair(nil), pairs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P < out[j].P
		}
		return out[i].Q < out[j].Q
	})
	return out
}

// joinNM runs one uncached nm/paged join and returns its pairs and pages.
func joinNM(t *testing.T, s *Service, left, right string) ([]core.Pair, int64) {
	t.Helper()
	out, err := s.Join(context.Background(), Query{Left: left, Right: right, Algo: "nm", Storage: "paged"}, execHooks{})
	if err != nil {
		t.Fatalf("Join(%s,%s): %v", left, right, err)
	}
	if out.Cached {
		t.Fatalf("join unexpectedly served from cache")
	}
	return sortedPairs(out.Result.Pairs), out.Result.IO.PageAccesses()
}

// assertDatasetsEqual compares the observable surface of two datasets:
// identity, point table, tombstones, and the raw page bytes of their
// disks (the durable tier's byte-for-byte contract).
func assertDatasetsEqual(t *testing.T, want, got *Dataset) {
	t.Helper()
	if got.Name != want.Name || got.Version != want.Version {
		t.Fatalf("dataset %s: version %d, want %d", want.Name, got.Version, want.Version)
	}
	if got.Live != want.Live || len(got.Points) != len(want.Points) {
		t.Fatalf("dataset %s: %d/%d points, want %d/%d", want.Name, got.Live, len(got.Points), want.Live, len(want.Points))
	}
	for i := range want.Points {
		wa := want.Alive == nil || want.Alive[i]
		ga := got.Alive == nil || got.Alive[i]
		if wa != ga {
			t.Fatalf("dataset %s: point %d alive=%v, want %v", want.Name, i, ga, wa)
		}
		if wa && !got.Points[i].Eq(want.Points[i]) {
			t.Fatalf("dataset %s: point %d = %v, want %v", want.Name, i, got.Points[i], want.Points[i])
		}
	}
	wd, gd := want.Tree.Buffer().Disk(), got.Tree.Buffer().Disk()
	if gd.NumPages() != wd.NumPages() || gd.PageSize() != wd.PageSize() {
		t.Fatalf("dataset %s: disk %d pages of %d, want %d of %d",
			want.Name, gd.NumPages(), gd.PageSize(), wd.NumPages(), wd.PageSize())
	}
	for i := 0; i < wd.NumPages(); i++ {
		if !bytes.Equal(gd.PageBytes(storage.PageID(i)), wd.PageBytes(storage.PageID(i))) {
			t.Fatalf("dataset %s: page %d not byte-identical after restore", want.Name, i)
		}
	}
}

// TestDurableLifecycle: ingest + mutations + clean shutdown, then a cold
// start — the reopened service serves the identical registry, and its
// joins are byte-equivalent (same pair sets, same pages/op) to the
// pre-shutdown ones.
func TestDurableLifecycle(t *testing.T) {
	fs := storage.NewFaultFS()
	s := mustOpen(t, fs)
	if rec := s.Recovery(); !rec.Fresh || !rec.CleanShutdown {
		t.Fatalf("fresh open recovery = %+v", rec)
	}
	mustIngest(t, s, "p", dataset.Uniform(400, 1))
	mustIngest(t, s, "q", dataset.Uniform(300, 2))
	mustMutate(t, s, "p", MutationRequest{Insert: []PointJSON{{X: 11, Y: 22}, {X: 33, Y: 44}}})
	mustMutate(t, s, "p", MutationRequest{Delete: []int64{0, 7}})
	mustMutate(t, s, "q", MutationRequest{Update: []MovePointJSON{{ID: 3, X: 500, Y: 500}}})

	wantPairs, wantPages := joinNM(t, s, "p", "q")
	wantP, _ := s.reg.Get("p")
	wantQ, _ := s.reg.Get("q")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, fs)
	rec := s2.Recovery()
	if rec.Fresh || !rec.CleanShutdown {
		t.Fatalf("reopen recovery = %+v, want clean", rec)
	}
	if rec.Replayed != 0 {
		t.Fatalf("clean reopen replayed %d WAL records, want 0 (Close checkpoints)", rec.Replayed)
	}
	gotP, ok := s2.reg.Get("p")
	if !ok {
		t.Fatal("dataset p lost across restart")
	}
	gotQ, ok := s2.reg.Get("q")
	if !ok {
		t.Fatal("dataset q lost across restart")
	}
	assertDatasetsEqual(t, wantP, gotP)
	assertDatasetsEqual(t, wantQ, gotQ)

	gotPairs, gotPages := joinNM(t, s2, "p", "q")
	if gotPages != wantPages {
		t.Fatalf("restored join performed %d page accesses, original %d", gotPages, wantPages)
	}
	if len(gotPairs) != len(wantPairs) {
		t.Fatalf("restored join found %d pairs, original %d", len(gotPairs), len(wantPairs))
	}
	for i := range wantPairs {
		if gotPairs[i] != wantPairs[i] {
			t.Fatalf("pair %d = %+v, want %+v", i, gotPairs[i], wantPairs[i])
		}
	}
}

// TestDurableCrashRecoversAcknowledged: kill the filesystem without Close
// (the kill -9 shape) — every acknowledged mutation must be recovered
// from the WAL, the recovery must report the unclean shutdown, and the
// recovered join must equal the brute-force oracle.
func TestDurableCrashRecoversAcknowledged(t *testing.T) {
	fs := storage.NewFaultFS()
	s := mustOpen(t, fs)
	mustIngest(t, s, "p", dataset.Uniform(300, 3))
	mustIngest(t, s, "q", dataset.Uniform(200, 4))
	for i := 0; i < 5; i++ {
		mustMutate(t, s, "p", MutationRequest{
			Insert: []PointJSON{{X: float64(100 + i), Y: float64(200 + i)}},
			Delete: []int64{int64(2 * i)},
		})
	}
	wantP, _ := s.reg.Get("p")
	wantVersion := wantP.Version

	fs.Crash(storage.CrashLoseUnsynced)
	fs.Restart()

	s2 := mustOpen(t, fs)
	rec := s2.Recovery()
	if rec.CleanShutdown {
		t.Fatal("crash recovery reported a clean shutdown")
	}
	if rec.Replayed != 5 {
		t.Fatalf("replayed %d WAL records, want 5", rec.Replayed)
	}
	gotP, ok := s2.reg.Get("p")
	if !ok {
		t.Fatal("dataset p lost in crash")
	}
	if gotP.Version != wantVersion {
		t.Fatalf("recovered p at version %d, acknowledged %d", gotP.Version, wantVersion)
	}
	for i := range wantP.Points {
		wa := wantP.Alive == nil || wantP.Alive[i]
		ga := gotP.Alive == nil || gotP.Alive[i]
		if wa != ga || (wa && !gotP.Points[i].Eq(wantP.Points[i])) {
			t.Fatalf("recovered point %d diverges from acknowledged state", i)
		}
	}

	// The recovered dataset must join exactly like the oracle says.
	pairs, _ := joinNM(t, s2, "p", "q")
	pp, pids := gotP.JoinPoints()
	qq, qids := s2.mustGet(t, "q").JoinPoints()
	oracle := core.BruteCIJ(pp, qq, dataset.Domain)
	remapPairs(oracle, pids, qids)
	oracle = sortedPairs(oracle)
	if len(pairs) != len(oracle) {
		t.Fatalf("recovered join found %d pairs, oracle %d", len(pairs), len(oracle))
	}
	for i := range pairs {
		if pairs[i] != oracle[i] {
			t.Fatalf("recovered pair %d = %+v, oracle %+v", i, pairs[i], oracle[i])
		}
	}
}

// mustGet is a test helper fetching a dataset that must exist.
func (s *Service) mustGet(t *testing.T, name string) *Dataset {
	t.Helper()
	d, ok := s.reg.Get(name)
	if !ok {
		t.Fatalf("dataset %s missing", name)
	}
	return d
}

// TestCheckpointThenCrashBeforeTrim: replay is idempotent. A checkpoint
// whose WAL trim never lands leaves every record stale; recovery must
// skip all of them and change nothing.
func TestCheckpointThenCrashBeforeTrim(t *testing.T) {
	fs := storage.NewFaultFS()
	s := mustOpen(t, fs)
	mustIngest(t, s, "p", dataset.Uniform(200, 5))
	mustMutate(t, s, "p", MutationRequest{Insert: []PointJSON{{X: 1, Y: 2}}})
	mustMutate(t, s, "p", MutationRequest{Delete: []int64{5}})

	// Capture the WAL as it stands with both records committed.
	walBytes, err := storage.ReadFileAll(fs, "data/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(walBytes) == 0 {
		t.Fatal("WAL empty before checkpoint; the mutation path is not logging")
	}
	wantP, _ := s.reg.Get("p")
	if err := s.Close(); err != nil { // checkpoints, trims, marks clean
		t.Fatal(err)
	}

	// Simulate the crash landing between the checkpoint's manifest write
	// and its WAL trim: put the pre-checkpoint records back.
	f, err := fs.Create("data/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(walBytes, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := mustOpen(t, fs)
	rec := s2.Recovery()
	if rec.Replayed != 0 {
		t.Fatalf("replayed %d stale records; checkpointed batches must not re-apply", rec.Replayed)
	}
	if rec.Stale != 2 {
		t.Fatalf("stale = %d, want 2", rec.Stale)
	}
	gotP := s2.mustGet(t, "p")
	assertDatasetsEqual(t, wantP, gotP)
}

// TestDurableMatchesSimulated: the durable tier must not perturb the
// simulation it persists — a service with a store and one without,
// driven identically, produce byte-identical disks and identical join
// I/O.
func TestDurableMatchesSimulated(t *testing.T) {
	drive := func(s *Service) {
		mustIngest(t, s, "p", dataset.Uniform(350, 6))
		mustIngest(t, s, "q", dataset.Uniform(250, 7))
		mustMutate(t, s, "p", MutationRequest{Insert: []PointJSON{{X: 9, Y: 9}}})
		mustMutate(t, s, "q", MutationRequest{Delete: []int64{1, 2, 3}})
	}
	plain := New(Config{JournalEntries: -1})
	drive(plain)
	fs := storage.NewFaultFS()
	durable := mustOpen(t, fs)
	drive(durable)

	for _, name := range []string{"p", "q"} {
		assertDatasetsEqual(t, plain.mustGet(t, name), durable.mustGet(t, name))
	}
	pPairs, pPages := joinNM(t, plain, "p", "q")
	dPairs, dPages := joinNM(t, durable, "p", "q")
	if pPages != dPages {
		t.Fatalf("durable join: %d page accesses, simulated %d", dPages, pPages)
	}
	if fmt.Sprint(pPairs) != fmt.Sprint(dPairs) {
		t.Fatalf("durable and simulated joins disagree")
	}

	// And the restart of the durable one still matches the simulation.
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := mustOpen(t, fs)
	for _, name := range []string{"p", "q"} {
		assertDatasetsEqual(t, plain.mustGet(t, name), reopened.mustGet(t, name))
	}
	rPairs, rPages := joinNM(t, reopened, "p", "q")
	if rPages != pPages || fmt.Sprint(rPairs) != fmt.Sprint(pPairs) {
		t.Fatalf("reopened join diverged: %d pages vs %d", rPages, pPages)
	}
}

// TestCheckpointTriggersAndTrims: once the WAL outgrows the configured
// threshold, a mutation triggers the fold and the log shrinks to zero,
// with the state surviving a crash on snapshots alone.
func TestCheckpointTriggersAndTrims(t *testing.T) {
	fs := storage.NewFaultFS()
	cfg := durableConfig(fs)
	cfg.CheckpointWALBytes = 1 // every mutation checkpoints
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, s, "p", dataset.Uniform(150, 8))
	mustMutate(t, s, "p", MutationRequest{Insert: []PointJSON{{X: 1, Y: 1}}})
	st := s.store.Load()
	if st.wal.Size() != 0 {
		t.Fatalf("WAL holds %d bytes after checkpoint, want 0", st.wal.Size())
	}
	wantP, _ := s.reg.Get("p")

	// No Close: the snapshots alone must carry the state.
	fs.Crash(storage.CrashLoseUnsynced)
	fs.Restart()
	s2 := mustOpen(t, fs)
	rec := s2.Recovery()
	if rec.Replayed != 0 {
		t.Fatalf("replayed %d records, want 0 (checkpoint already folded them)", rec.Replayed)
	}
	assertDatasetsEqual(t, wantP, s2.mustGet(t, "p"))
}

// TestFsck: a healthy directory reports no problems; corruption in a
// snapshot page is caught and named.
func TestFsck(t *testing.T) {
	fs := storage.NewFaultFS()
	s := mustOpen(t, fs)
	mustIngest(t, s, "p", dataset.Uniform(120, 9))
	mustMutate(t, s, "p", MutationRequest{Insert: []PointJSON{{X: 2, Y: 3}}})

	// Live (unclean) directory: WAL has one replayable record.
	rep, err := Fsck(fs, "data")
	if err != nil {
		t.Fatalf("Fsck: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("healthy dir reported problems: %v", rep.Problems)
	}
	if rep.WALReplayable != 1 || rep.CleanShutdown {
		t.Fatalf("live dir fsck = %+v, want 1 replayable record, unclean", rep)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err = Fsck(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || !rep.CleanShutdown || rep.WALRecords != 0 {
		t.Fatalf("closed dir fsck = %+v (problems %v)", rep, rep.Problems)
	}
	if len(rep.Datasets) != 1 || rep.Datasets[0].Points != 121 {
		t.Fatalf("fsck datasets = %+v", rep.Datasets)
	}

	// Flip a byte inside the snapshot's page area: fsck must object.
	name := rep.Datasets[0].File
	f, err := fs.OpenRW("data/" + name)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], 100); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], 100); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rep, err = Fsck(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("fsck accepted a corrupted snapshot")
	}
}

// appendWAL appends payloads to the closed data directory's WAL as
// correctly framed (checksum-valid) records.
func appendWAL(t *testing.T, fs storage.FS, payloads ...[]byte) {
	t.Helper()
	w, _, err := storage.OpenWAL(fs, "data/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// walPayload encodes one mutation record the way logMutation does.
func walPayload(t *testing.T, name string, base int, insert geom.Point) []byte {
	t.Helper()
	data, err := json.Marshal(walRecord{Name: name, Base: base, Result: base + 1,
		Spec: MutationSpec{Insert: []geom.Point{insert}}})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDurableAckedAfterReplayStop: a checksum-valid WAL record that replay
// refuses (a version gap, or a payload that does not decode) stops
// recovery. Mutations acknowledged after that recovery must survive the
// next crash — they must not land in the log behind the refused record,
// where the next replay would never reach them.
func TestDurableAckedAfterReplayStop(t *testing.T) {
	for _, bad := range []struct {
		name    string
		payload []byte
	}{
		{"version gap", walPayload(t, "p", 5, geom.Pt(1, 1))},
		{"undecodable", []byte("not json")},
	} {
		t.Run(bad.name, func(t *testing.T) {
			fs := storage.NewFaultFS()
			s := mustOpen(t, fs)
			mustIngest(t, s, "p", dataset.Uniform(200, 10))
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			appendWAL(t, fs, bad.payload)

			s2 := mustOpen(t, fs)
			if rec := s2.Recovery(); rec.Replayed != 0 || rec.CorruptRecords != 1 {
				t.Fatalf("recovery = %+v, want 0 replayed and 1 corrupt record", rec)
			}
			resp := mustMutate(t, s2, "p", MutationRequest{Insert: []PointJSON{{X: 7, Y: 8}}})
			wantP := s2.mustGet(t, "p")
			if wantP.Version != 2 || resp.Version != 2 {
				t.Fatalf("mutation acknowledged v%d (dataset at v%d), want v2", resp.Version, wantP.Version)
			}

			fs.Crash(storage.CrashLoseUnsynced)
			fs.Restart()
			s3 := mustOpen(t, fs)
			assertDatasetsEqual(t, wantP, s3.mustGet(t, "p"))
		})
	}
}

// TestFsckMatchesRecovery: fsck predicts recovery record for record. A
// version gap in the middle of the log stops replay, so the records
// behind it — even one that would continue its own dataset's chain — are
// not replayable, and fsck must say so rather than count them.
func TestFsckMatchesRecovery(t *testing.T) {
	fs := storage.NewFaultFS()
	s := mustOpen(t, fs)
	mustIngest(t, s, "p", dataset.Uniform(150, 11))
	mustIngest(t, s, "q", dataset.Uniform(150, 12))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	appendWAL(t, fs,
		walPayload(t, "p", 1, geom.Pt(3, 4)),
		walPayload(t, "p", 5, geom.Pt(5, 6)), // gap: p is at v2 here
		walPayload(t, "q", 1, geom.Pt(7, 8)),
	)

	rep, err := Fsck(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	if rep.WALRecords != 3 || rep.OK() {
		t.Fatalf("fsck = %+v, want 3 records and a problem", rep)
	}
	s2 := mustOpen(t, fs)
	rec := s2.Recovery()
	if rep.WALReplayable != rec.Replayed || rep.WALStale != rec.Stale || rep.WALCorrupt != rec.CorruptRecords {
		t.Fatalf("fsck predicted %d replayable / %d stale / %d corrupt, recovery did %d / %d / %d",
			rep.WALReplayable, rep.WALStale, rep.WALCorrupt, rec.Replayed, rec.Stale, rec.CorruptRecords)
	}
	if rec.Replayed != 1 {
		t.Fatalf("recovery replayed %d records, want 1", rec.Replayed)
	}
	if len(rep.Problems) != 1 || !strings.Contains(rep.Problems[0], "replay reaches version 2") {
		t.Fatalf("fsck problems = %q, want one naming the version replay reaches", rep.Problems)
	}
	if p, q := s2.mustGet(t, "p"), s2.mustGet(t, "q"); p.Version != 2 || q.Version != 1 {
		t.Fatalf("recovered p@v%d q@v%d, want p@v2 q@v1", p.Version, q.Version)
	}

	// Recovery folded the replayed prefix into snapshots and dropped the
	// refused tail, so the directory it serves from checks clean.
	rep, err = Fsck(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.WALRecords != 0 {
		t.Fatalf("fsck after recovery = %+v (problems %v)", rep, rep.Problems)
	}
}
