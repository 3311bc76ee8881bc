package storage

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzWALRecover writes fuzzer-chosen records through WAL.Append, then
// damages the log the way a crash or a bad disk would: it cuts bytes off
// the tail and flips one byte. Neither ScanWAL nor OpenWAL may fail or
// panic, and both must recover exactly the records whose frames lie wholly
// before the damage — a prefix of what was written. After OpenWAL repairs
// the tail, a fresh append must extend a clean log.
//
// recs holds the records, newline-separated (empty lines are skipped,
// since a record is never empty); cut is how many bytes to drop from the
// tail (<= 0: none); the byte at flipAt (modulo the damaged length) is
// XORed with mask (0: no flip).
//
// Run it with: go test -run '^$' -fuzz FuzzWALRecover ./internal/storage
func FuzzWALRecover(f *testing.F) {
	f.Add("alpha\nbeta\ngamma", int64(0), uint32(0), byte(0))       // intact
	f.Add("alpha\nbeta\ngamma", int64(2), uint32(0), byte(0))       // torn tail
	f.Add("alpha\nbeta", int64(9), uint32(0), byte(0))              // torn header: 3 bytes of frame two
	f.Add("alpha\nbeta\ngamma", int64(0), uint32(13+8), byte(0xFF)) // CRC mismatch mid-log
	f.Add("alpha\nb", int64(0), uint32(13), byte(0x01))             // zero-length frame
	f.Add("alpha\nbeta", int64(0), uint32(13+3), byte(0xFF))        // implausible length

	f.Fuzz(func(t *testing.T, recs string, cut int64, flipAt uint32, mask byte) {
		if len(recs) > 1<<16 {
			t.Skip("bounded input keeps each run fast")
		}
		var written [][]byte
		for _, r := range strings.Split(recs, "\n") {
			if r != "" {
				written = append(written, []byte(r))
			}
		}

		fs := NewFaultFS()
		w, _, err := OpenWAL(fs, "wal")
		if err != nil {
			t.Fatal(err)
		}
		// ends[i] is the byte offset just past record i's frame.
		ends := make([]int64, len(written))
		var size int64
		for i, r := range written {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
			size += walFrameHeader + int64(len(r))
			ends[i] = size
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		w.Close()

		// Damage: cut the tail, then flip one byte of what is left. Frames
		// ending at or before the damage survive intact.
		damaged := size
		if cut > 0 {
			damaged = size - cut%(size+1)
		}
		intactEnd := damaged
		file, err := fs.OpenRW("wal")
		if err != nil {
			t.Fatal(err)
		}
		if err := file.Truncate(damaged); err != nil {
			t.Fatal(err)
		}
		if mask != 0 && damaged > 0 {
			off := int64(flipAt) % damaged
			var b [1]byte
			if _, err := file.ReadAt(b[:], off); err != nil {
				t.Fatal(err)
			}
			b[0] ^= mask
			if _, err := file.WriteAt(b[:], off); err != nil {
				t.Fatal(err)
			}
			intactEnd = off
		}
		file.Close()
		intact := 0
		for intact < len(ends) && ends[intact] <= intactEnd {
			intact++
		}

		check := func(how string, got [][]byte) {
			t.Helper()
			if len(got) != intact {
				t.Fatalf("%s recovered %d records, want the %d intact before the damage", how, len(got), intact)
			}
			for i, r := range got {
				if !bytes.Equal(r, written[i]) {
					t.Fatalf("%s record %d = %q, want %q", how, i, r, written[i])
				}
			}
		}
		scan, err := ScanWAL(fs, "wal")
		if err != nil {
			t.Fatalf("ScanWAL: %v", err)
		}
		check("ScanWAL", scan.Records)

		w, res, err := OpenWAL(fs, "wal")
		if err != nil {
			t.Fatalf("OpenWAL: %v", err)
		}
		check("OpenWAL", res.Records)
		var validEnd int64
		if intact > 0 {
			validEnd = ends[intact-1]
		}
		if w.Size() != validEnd {
			t.Fatalf("OpenWAL positioned at %d, want the end of the intact prefix %d", w.Size(), validEnd)
		}
		if err := w.Append([]byte("tail")); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		w.Close()
		after, err := ScanWAL(fs, "wal")
		if err != nil {
			t.Fatalf("ScanWAL after repair: %v", err)
		}
		if after.TornTail || after.CorruptRecords != 0 || len(after.Records) != intact+1 ||
			string(after.Records[intact]) != "tail" {
			t.Fatalf("append after repair: %d records, torn %v, corrupt %d; want %d clean records ending in \"tail\"",
				len(after.Records), after.TornTail, after.CorruptRecords, intact+1)
		}
	})
}
