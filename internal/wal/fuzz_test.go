package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// header builds an intact log header starting at lsn.
func header(lsn uint64) []byte {
	h := append([]byte(logMagic), binary.LittleEndian.AppendUint64(nil, lsn)...)
	return binary.LittleEndian.AppendUint32(h, crc32.Checksum(h, crcTable))
}

// FuzzWALOpen: wal.log is what a crash leaves behind, so Open must accept
// any bytes without panicking, and what it keeps must be a stable log —
// records numbered consecutively from the header's start LSN, the same
// records on a second open of the truncated file, and an appended record
// that survives a reopen after them.
func FuzzWALOpen(f *testing.F) {
	path := filepath.Join(f.TempDir(), "wal.log")
	l, _, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range []string{"first delta", "second delta"} {
		if _, err := l.Append(TypeDelta, []byte(p)); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, cut := range []int{0, headerSize - 1, headerSize, headerSize + frameHdr - 1, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	for _, at := range []int{3, headerSize + 1, headerSize + 5, len(valid) - 1} {
		torn := bytes.Clone(valid)
		torn[at] ^= 0xFF
		f.Add(torn)
	}
	f.Add(append(bytes.Clone(valid), "trailing garbage"...))
	// Start LSNs at the edges of the range: an intact header no writer
	// produces must not break numbering or the next append.
	f.Add(header(0))
	f.Add(header(math.MaxUint64))
	f.Add(append(header(math.MaxUint64), valid[headerSize:]...))

	f.Fuzz(func(t *testing.T, img []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		start := l.NextLSN() - uint64(len(recs))
		if hdr, ok := parseHeader(img); ok && start != hdr {
			t.Fatalf("records start at LSN %d, header says %d", start, hdr)
		}
		for i, r := range recs {
			if r.LSN != start+uint64(i) {
				t.Fatalf("record %d has LSN %d, want %d", i, r.LSN, start+uint64(i))
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l2, again, err := Open(path)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		requireSameRecords(t, "second open", again, recs)
		next := Record{LSN: l2.NextLSN(), Type: TypeDelta, Payload: []byte("appended")}
		if lsn, err := l2.Append(next.Type, next.Payload); err != nil || lsn != next.LSN {
			t.Fatalf("Append = LSN %d, %v; want LSN %d", lsn, err, next.LSN)
		}
		if err := l2.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}

		l3, after, err := Open(path)
		if err != nil {
			t.Fatalf("Open after append: %v", err)
		}
		defer l3.Close()
		requireSameRecords(t, "reopen after append", after, append(recs, next))
	})
}

func requireSameRecords(t *testing.T, tag string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i].LSN != want[i].LSN || got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("%s: record %d = %+v, want %+v", tag, i, got[i], want[i])
		}
	}
}
