package service

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"path/filepath"
	"time"

	"cij/internal/geom"
	"cij/internal/rtree"
	"cij/internal/storage"
)

// The durable store. One directory holds the whole registry:
//
//	MANIFEST.json        the root: per-dataset version + snapshot file +
//	                     tree header, plus the clean-shutdown marker.
//	                     Replaced atomically (write tmp, fsync, rename,
//	                     fsync dir); after any crash it is either the old
//	                     or the new manifest, complete.
//	<name>.v<N>.pages    version N of one dataset's disk, in the
//	                     checksummed page-file format (storage.SaveDiskFile)
//	                     — the same 1 KB pages the in-memory simulation
//	                     serves, byte for byte.
//	wal.log              the write-ahead log: one CRC-framed record per
//	                     atomic mutation batch, fsync'd BEFORE the batch
//	                     installs, so an acknowledged mutation is always
//	                     recoverable.
//
// Recovery replays manifest -> snapshots -> WAL tail: each snapshot
// restores its dataset at the manifest's version, then WAL records apply
// in order wherever they continue the chain (Base == version, Result ==
// version+1) and are skipped as stale wherever Result <= version (the
// checkpoint-then-crash-before-trim case — replay is idempotent by
// version arithmetic, no record ever applies twice). Any other record
// stops replay (classifyWALRecord), and recovery then checkpoints, so the
// log restarts empty instead of keeping an unreplayable record that later
// appends would sit behind. Checkpoints fold the log into fresh snapshots
// and trim it; the manifest moves first, so a crash between the two only
// creates stale records.
const (
	manifestName   = "MANIFEST.json"
	walName        = "wal.log"
	manifestFormat = 1
	// DefaultCheckpointWALBytes is the WAL size that triggers a
	// checkpoint after a mutation installs.
	DefaultCheckpointWALBytes = 4 << 20
)

// manifestDataset is one dataset's durable root: which snapshot file
// holds its pages and the tree header to reattach with.
type manifestDataset struct {
	Name    string     `json:"name"`
	Version int        `json:"version"`
	File    string     `json:"file"`
	Meta    rtree.Meta `json:"meta"`
}

type manifest struct {
	Format        int               `json:"format"`
	CleanShutdown bool              `json:"clean_shutdown"`
	Datasets      []manifestDataset `json:"datasets"`
}

func (m *manifest) find(name string) *manifestDataset {
	for i := range m.Datasets {
		if m.Datasets[i].Name == name {
			return &m.Datasets[i]
		}
	}
	return nil
}

func (m *manifest) set(md manifestDataset) {
	if cur := m.find(md.Name); cur != nil {
		*cur = md
		return
	}
	m.Datasets = append(m.Datasets, md)
}

// walRecord is one logged mutation batch. Base and Result pin it to a
// version transition, which is what makes replay idempotent: a record
// applies only onto exactly Base, and is stale everywhere at or past
// Result.
type walRecord struct {
	Name   string       `json:"name"`
	Base   int          `json:"base"`
	Result int          `json:"result"`
	Spec   MutationSpec `json:"spec"`
}

// RecoveryInfo is what a cold start found — logged at boot and exported
// through the cij_recovery_* metric families.
type RecoveryInfo struct {
	// Fresh means no manifest existed: a brand-new data directory.
	Fresh bool
	// CleanShutdown is the marker the previous process left; false means
	// it crashed (or was killed) and the WAL tail did the recovering.
	CleanShutdown bool
	// Datasets restored from snapshots.
	Datasets int
	// Replayed counts WAL records applied on top of the snapshots.
	Replayed int
	// Stale counts WAL records skipped because their version was already
	// in a snapshot (checkpoint ran, crash hit before the trim).
	Stale int
	// CorruptRecords and TornTail report what the WAL scan dropped.
	CorruptRecords int
	TornTail       bool
}

// Store is a Service's durable tier: the manifest, the snapshot page
// files and the WAL under one directory, reached through a storage.FS so
// the crash tests can run it on storage.FaultFS. All mutating methods are
// called with the service's mutMu held — the store itself is
// single-writer.
type Store struct {
	fs  storage.FS
	dir string
	wal *storage.WAL
	man manifest
	// checkpointBytes is the WAL size that triggers a checkpoint after an
	// install folds in.
	checkpointBytes int64
	metrics         *serviceMetrics // nil in store-only tests
	logger          *slog.Logger
}

func (st *Store) path(name string) string { return filepath.Join(st.dir, name) }

func snapshotFile(name string, version int) string {
	return fmt.Sprintf("%s.v%d.pages", name, version)
}

// openStore opens (or initializes) the durable directory, restores every
// manifest dataset into reg, replays the WAL tail, and marks the manifest
// dirty so the next boot can tell whether this process shut down cleanly.
func openStore(fsys storage.FS, dir string, reg *Registry, metrics *serviceMetrics, logger *slog.Logger) (*Store, *RecoveryInfo, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("service: creating data dir: %w", err)
	}
	st := &Store{
		fs:              fsys,
		dir:             dir,
		checkpointBytes: DefaultCheckpointWALBytes,
		metrics:         metrics,
		logger:          logger,
	}
	info := &RecoveryInfo{}

	data, err := storage.ReadFileAll(fsys, st.path(manifestName))
	switch {
	case storage.IsNotExist(err):
		info.Fresh = true
		info.CleanShutdown = true
		st.man = manifest{Format: manifestFormat, CleanShutdown: true}
	case err != nil:
		return nil, nil, fmt.Errorf("service: reading manifest: %w", err)
	default:
		if err := json.Unmarshal(data, &st.man); err != nil {
			return nil, nil, fmt.Errorf("service: decoding manifest: %w", err)
		}
		if st.man.Format != manifestFormat {
			return nil, nil, fmt.Errorf("service: manifest format %d, this build reads %d", st.man.Format, manifestFormat)
		}
		info.CleanShutdown = st.man.CleanShutdown
	}

	for _, md := range st.man.Datasets {
		d, err := restoreDataset(fsys, st.path(md.File), md, reg.bufferPct)
		if err != nil {
			return nil, nil, fmt.Errorf("service: restoring %q v%d: %w", md.Name, md.Version, err)
		}
		if err := reg.InstallRestored(d); err != nil {
			return nil, nil, err
		}
		info.Datasets++
	}

	wal, scan, err := storage.OpenWAL(fsys, st.path(walName))
	if err != nil {
		return nil, nil, fmt.Errorf("service: opening WAL: %w", err)
	}
	st.wal = wal
	info.CorruptRecords = scan.CorruptRecords
	info.TornTail = scan.TornTail
	if scan.DroppedBytes > 0 {
		logger.Warn("WAL tail dropped",
			"bytes", scan.DroppedBytes,
			"torn_tail", scan.TornTail,
			"corrupt_records", scan.CorruptRecords)
	}

	discarded := 0
replay:
	for i, raw := range scan.Records {
		rec, verdict, err := classifyWALRecord(raw, func(name string) (int, bool) {
			d, ok := reg.Get(name)
			if !ok {
				return 0, false
			}
			return d.Version, true
		})
		switch verdict {
		case walStale:
			info.Stale++
		case walApply:
			if _, _, _, err := reg.Mutate(rec.Name, rec.Spec); err != nil {
				// The batch validated before it was logged; failing now
				// means the recovered base state does not match what the
				// record was built against — corruption, not a tolerable
				// skip.
				return nil, nil, fmt.Errorf("service: replaying WAL record %d for %q: %w", i, rec.Name, err)
			}
			info.Replayed++
		case walStop:
			info.CorruptRecords++
			discarded = len(scan.Records) - i
			logger.Warn("stopping WAL replay", "index", i, "err", err, "discarded_records", discarded)
			for j, raw := range scan.Records[i:] {
				var lost walRecord
				// Best effort: the fields name what was lost; an undecodable
				// record logs with them empty.
				_ = json.Unmarshal(raw, &lost)
				logger.Warn("discarding WAL record", "index", i+j, "bytes", len(raw),
					"dataset", lost.Name, "base", lost.Base, "result", lost.Result)
			}
			break replay
		}
	}

	// From here the process is live: mark the manifest dirty so the next
	// boot knows whether Close ran.
	st.man.CleanShutdown = false
	st.man.Format = manifestFormat
	if err := st.writeManifest(); err != nil {
		return nil, nil, fmt.Errorf("service: marking manifest dirty: %w", err)
	}
	// Replay stopped short of the log's end: every later append would land
	// behind the unreplayable record and be lost at the next recovery, so
	// fold what was replayed into snapshots and trim the log before
	// serving anything.
	if discarded > 0 {
		if err := st.checkpoint(reg); err != nil {
			return nil, nil, fmt.Errorf("service: checkpointing past %d unreplayable WAL records: %w", discarded, err)
		}
	}
	return st, info, nil
}

// walVerdict is what replay does with one WAL record.
type walVerdict int

const (
	// walApply: the record moves its dataset from the version replay has
	// reached to the next one.
	walApply walVerdict = iota
	// walStale: its version is already in a snapshot (a checkpoint ran,
	// the crash hit before the trim), or no snapshot names its dataset
	// (the ingest protocol writes the manifest before any record can name
	// a dataset, so the record predates a re-initialization).
	walStale
	// walStop: the record does not decode, or it does not continue its
	// dataset's version chain. Replay ends here; nothing after it applies.
	walStop
)

// classifyWALRecord decodes one WAL record and judges it against the
// version replay has reached for its dataset (version reports false for a
// dataset no snapshot names). It is the one replay rule: recovery
// (openStore) applies by it and Fsck predicts recovery by it. err says why
// a record stops replay.
func classifyWALRecord(raw []byte, version func(name string) (int, bool)) (walRecord, walVerdict, error) {
	var rec walRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		// The frame CRC held but the payload does not decode: framing
		// from a different build, or corruption the CRC cannot see.
		return rec, walStop, fmt.Errorf("record does not decode: %w", err)
	}
	v, known := version(rec.Name)
	switch {
	case !known, rec.Result <= v:
		return rec, walStale, nil
	case rec.Base == v && rec.Result == v+1:
		return rec, walApply, nil
	default:
		return rec, walStop, fmt.Errorf("%q jumps from version %d to %d, but replay reaches version %d",
			rec.Name, rec.Base, rec.Result, v)
	}
}

func (st *Store) writeManifest() error {
	data, err := json.MarshalIndent(&st.man, "", "  ")
	if err != nil {
		return err
	}
	return storage.WriteFileAtomic(st.fs, st.path(manifestName), data)
}

// logMutation appends the batch as one WAL record and fsyncs it — the
// commit point. Called between PrepareMutation and Install, under mutMu.
func (st *Store) logMutation(p *PreparedMutation) error {
	rec := walRecord{Name: p.name, Base: p.Base(), Result: p.Result(), Spec: p.Spec()}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := st.wal.Append(data); err != nil {
		return err
	}
	start := time.Now()
	if err := st.wal.Sync(); err != nil {
		return err
	}
	if st.metrics != nil {
		st.metrics.walAppends.Inc()
		st.metrics.walFsync.Observe(time.Since(start).Seconds())
	}
	return nil
}

// logIngest makes a prepared ingest durable before it installs: the new
// version's snapshot page file, then the manifest pointing at it. A crash
// in between leaves an orphan snapshot file the next successful ingest
// cleanup collects; a crash after the manifest write recovers the ingest
// (unacknowledged but complete — never partial).
func (st *Store) logIngest(d *Dataset, version int) error {
	file := snapshotFile(d.Name, version)
	if err := storage.SaveDiskFile(st.fs, st.path(file), d.Tree.Buffer().Disk()); err != nil {
		return err
	}
	prev := st.man.find(d.Name)
	var prevFile string
	if prev != nil {
		prevFile = prev.File
	}
	st.man.set(manifestDataset{Name: d.Name, Version: version, File: file, Meta: d.Tree.Meta()})
	if err := st.writeManifest(); err != nil {
		return err
	}
	st.removeSuperseded(prevFile)
	return nil
}

// maybeCheckpoint folds the WAL into snapshots once it has outgrown the
// threshold. Failures are logged, not returned: the WAL still holds every
// committed batch, so a failed checkpoint costs replay time, not data.
func (st *Store) maybeCheckpoint(reg *Registry) {
	if st.wal.Size() < st.checkpointBytes {
		return
	}
	if err := st.checkpoint(reg); err != nil {
		st.logger.Warn("checkpoint failed; WAL keeps the batches", "err", err)
	}
}

// checkpoint snapshots every dataset whose serving version is newer than
// its manifest entry, moves the manifest, and only then trims the WAL.
// Called under mutMu.
func (st *Store) checkpoint(reg *Registry) error {
	var superseded []string
	changed := false
	for _, d := range reg.List() {
		md := st.man.find(d.Name)
		if md != nil && md.Version == d.Version {
			continue
		}
		file := snapshotFile(d.Name, d.Version)
		if err := storage.SaveDiskFile(st.fs, st.path(file), d.Tree.Buffer().Disk()); err != nil {
			return fmt.Errorf("snapshotting %q v%d: %w", d.Name, d.Version, err)
		}
		if md != nil {
			superseded = append(superseded, md.File)
		}
		st.man.set(manifestDataset{Name: d.Name, Version: d.Version, File: file, Meta: d.Tree.Meta()})
		changed = true
	}
	if changed {
		if err := st.writeManifest(); err != nil {
			return fmt.Errorf("writing manifest: %w", err)
		}
	}
	// The manifest is durable; the log's records are all stale now.
	if err := st.wal.Trim(); err != nil {
		return fmt.Errorf("trimming WAL: %w", err)
	}
	if st.metrics != nil {
		st.metrics.checkpoints.Inc()
	}
	st.removeSuperseded(superseded...)
	return nil
}

// removeSuperseded deletes snapshot files no manifest entry references
// anymore. Best-effort: a leftover file wastes disk, nothing else.
func (st *Store) removeSuperseded(files ...string) {
	removed := false
	for _, f := range files {
		if f == "" {
			continue
		}
		if cur := st.man.find(datasetOfSnapshot(f)); cur != nil && cur.File == f {
			continue // still referenced (version did not move)
		}
		if err := st.fs.Remove(st.path(f)); err != nil && !storage.IsNotExist(err) {
			st.logger.Warn("removing superseded snapshot", "file", f, "err", err)
			continue
		}
		removed = true
	}
	if removed {
		if err := st.fs.SyncDir(st.dir); err != nil {
			st.logger.Warn("syncing data dir after snapshot cleanup", "err", err)
		}
	}
}

// datasetOfSnapshot recovers the dataset name from a snapshot file name
// (<name>.v<N>.pages; dataset names cannot contain "/", and the ".v"
// split is anchored at the END so dotted dataset names survive).
func datasetOfSnapshot(file string) string {
	base := file
	if i := len(base) - len(".pages"); i > 0 && base[i:] == ".pages" {
		base = base[:i]
	}
	for i := len(base) - 1; i > 0; i-- {
		if base[i] == 'v' && base[i-1] == '.' {
			return base[:i-1]
		}
	}
	return base
}

// close checkpoints, marks the shutdown clean and releases the WAL.
// Called under mutMu after the HTTP server has drained.
func (st *Store) close(reg *Registry) error {
	if err := st.checkpoint(reg); err != nil {
		return err
	}
	st.man.CleanShutdown = true
	if err := st.writeManifest(); err != nil {
		return err
	}
	return st.wal.Close()
}

// restoreDataset rebuilds one serving Dataset from its snapshot: reopen
// the disk (verifying every page checksum), reattach the tree at the
// manifest's header, and reconstruct the point table from the leaves.
// Point IDs are leaf entry IDs, so live points land back in their exact
// slots; slots the leaves do not name were tombstoned before the
// snapshot and stay dead (their coordinates are gone, but nothing reads
// a dead slot's position).
func restoreDataset(fsys storage.FS, path string, md manifestDataset, bufferPct float64) (*Dataset, error) {
	disk, err := storage.OpenDiskFile(fsys, path)
	if err != nil {
		return nil, err
	}
	// Restore-time traversals run through an unbounded buffer, exactly
	// like an ingest-time build; the serving capacity is applied (and the
	// stats cleared) once the dataset is assembled.
	buf := storage.NewBuffer(disk, 1<<30)
	tree, err := rtree.Open(buf, md.Meta)
	if err != nil {
		return nil, err
	}
	if err := tree.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("restored tree fails invariants: %w", err)
	}

	entries := tree.AllEntries()
	if len(entries) != md.Meta.Size {
		return nil, fmt.Errorf("restored tree has %d entries, header says %d", len(entries), md.Meta.Size)
	}
	maxID := int64(-1)
	for _, e := range entries {
		if e.ID < 0 {
			return nil, fmt.Errorf("restored tree carries negative point id %d", e.ID)
		}
		if e.ID > maxID {
			maxID = e.ID
		}
	}
	pts := make([]geom.Point, maxID+1)
	var alive []bool
	if int64(len(entries)) != maxID+1 {
		alive = make([]bool, maxID+1)
	}
	for _, e := range entries {
		pts[e.ID] = e.Pt
		if alive != nil {
			if alive[e.ID] {
				return nil, fmt.Errorf("restored tree names point %d twice", e.ID)
			}
			alive[e.ID] = true
		}
	}

	d := newDataset(md.Name, pts, alive, len(entries), tree, bufferPct)
	d.Version = md.Version
	return d, nil
}
