package service

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"

	"cij/internal/storage"
)

// FsckDataset is one dataset's verification summary.
type FsckDataset struct {
	Name     string `json:"name"`
	Version  int    `json:"version"`
	File     string `json:"file"`
	Pages    int    `json:"pages"`
	PageSize int    `json:"page_size"`
	Points   int    `json:"points"`
}

// FsckReport is the offline consistency check of a data directory:
// everything it found, with Problems collecting whatever is wrong (empty
// means the directory would recover cleanly).
type FsckReport struct {
	Fresh         bool          `json:"fresh"`
	CleanShutdown bool          `json:"clean_shutdown"`
	Datasets      []FsckDataset `json:"datasets"`
	WALRecords    int           `json:"wal_records"`
	WALReplayable int           `json:"wal_replayable"`
	WALStale      int           `json:"wal_stale"`
	WALCorrupt    int           `json:"wal_corrupt"`
	WALTornTail   bool          `json:"wal_torn_tail"`
	Orphans       []string      `json:"orphans,omitempty"`
	Problems      []string      `json:"problems,omitempty"`
}

// OK reports whether the directory is consistent.
func (r *FsckReport) OK() bool { return len(r.Problems) == 0 }

func (r *FsckReport) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Fsck verifies a data directory offline, without opening it for
// writing: the manifest decodes, every referenced snapshot passes its
// page checksums and rebuilds a structurally valid tree, and the WAL
// scans into records that replay contiguously onto the snapshot
// versions. Records are judged by the rule recovery applies them by
// (classifyWALRecord), so the WAL counts predict what Open will report.
// cijtool's `fsck` subcommand prints the report.
func Fsck(fsys storage.FS, dir string) (*FsckReport, error) {
	r := &FsckReport{}
	data, err := storage.ReadFileAll(fsys, filepath.Join(dir, manifestName))
	if storage.IsNotExist(err) {
		r.Fresh = true
		r.CleanShutdown = true
		return r, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: reading manifest: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		r.problemf("manifest does not decode: %v", err)
		return r, nil
	}
	if man.Format != manifestFormat {
		r.problemf("manifest format %d, this build reads %d", man.Format, manifestFormat)
		return r, nil
	}
	r.CleanShutdown = man.CleanShutdown

	versions := make(map[string]int, len(man.Datasets))
	referenced := make(map[string]bool, len(man.Datasets))
	for _, md := range man.Datasets {
		referenced[md.File] = true
		fd := FsckDataset{Name: md.Name, Version: md.Version, File: md.File}
		path := filepath.Join(dir, md.File)
		pages, pageSize, err := storage.VerifyDiskFile(fsys, path)
		if err != nil {
			r.problemf("%s: %v", md.Name, err)
			r.Datasets = append(r.Datasets, fd)
			continue
		}
		fd.Pages, fd.PageSize = pages, pageSize
		// The deep check: the snapshot must rebuild into a serving
		// dataset, exactly as recovery would.
		d, err := restoreDataset(fsys, path, md, 0)
		if err != nil {
			r.problemf("%s: %v", md.Name, err)
			r.Datasets = append(r.Datasets, fd)
			continue
		}
		fd.Points = d.Live
		versions[md.Name] = md.Version
		r.Datasets = append(r.Datasets, fd)
	}

	scan, err := storage.ScanWAL(fsys, filepath.Join(dir, walName))
	if err != nil {
		r.problemf("WAL: %v", err)
		return r, nil
	}
	r.WALRecords = len(scan.Records)
	r.WALCorrupt = scan.CorruptRecords
	r.WALTornTail = scan.TornTail
	for i, raw := range scan.Records {
		rec, verdict, err := classifyWALRecord(raw, func(name string) (int, bool) {
			v, ok := versions[name]
			return v, ok
		})
		if verdict == walStop {
			r.WALCorrupt++
			r.problemf("WAL record %d: %v; recovery stops there and discards %d record(s)",
				i, err, len(scan.Records)-i)
			break
		}
		if verdict == walStale {
			r.WALStale++
			continue
		}
		versions[rec.Name] = rec.Result
		r.WALReplayable++
	}

	// Unreferenced page files are expected flotsam of a crash between a
	// snapshot write and its manifest (or a failed cleanup) — reported,
	// not a problem.
	names, err := fsys.List(dir)
	if err == nil {
		for _, n := range names {
			if strings.HasSuffix(n, ".pages") && !referenced[n] {
				r.Orphans = append(r.Orphans, n)
			}
		}
	}
	return r, nil
}
