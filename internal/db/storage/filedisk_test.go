package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func page(b byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestFileDiskRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenFileDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, err := d.AllocatePage(7)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WritePage(id, page(byte('a'+i))); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if got := d.NumPages(7); got != 3 {
		t.Fatalf("NumPages = %d, want 3", got)
	}
	buf := make([]byte, PageSize)
	for i, id := range ids {
		if err := d.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, page(byte('a'+i))) {
			t.Fatalf("page %v corrupt", id)
		}
	}
	if err := d.ReadPage(PageID{File: 7, Num: 3}, buf); err == nil {
		t.Fatal("read past live pages succeeded")
	}
}

func TestFileDiskTruncatePersistsFreeList(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenFileDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 4; i++ {
		id, _ := d.AllocatePage(1)
		if err := d.WritePage(id, page(0xff)); err != nil {
			t.Fatal(err)
		}
	}
	sizeAt := func() int64 {
		st, err := os.Stat(filepath.Join(dir, "seg_1"))
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	high := sizeAt()
	d.TruncateFile(1)
	if got := d.NumPages(1); got != 0 {
		t.Fatalf("NumPages after truncate = %d, want 0", got)
	}
	// Allocation reuses the freed capacity (file stays at high-water mark)
	// and hands out zeroed pages despite the stale 0xff bytes.
	id, err := d.AllocatePage(1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := d.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, PageSize)) {
		t.Fatal("reused page not zeroed")
	}
	if got := sizeAt(); got != high {
		t.Fatalf("segment grew to %d on reuse, want high-water %d", got, high)
	}
}

// A page store is scratch space: opening one over a directory another
// process left segments and a meta file in starts empty, and allocation
// starts again at page 0.
func TestOpenFileDiskStartsEmpty(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenFileDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		id, err := d.AllocatePage(4)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WritePage(id, page(0xee)); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	if err := os.WriteFile(filepath.Join(dir, "meta"), []byte("TFYDISK1 stale"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenFileDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.NumPages(4); got != 0 {
		t.Fatalf("NumPages on a reopened store = %d, want 0", got)
	}
	for _, name := range []string{"seg_4", "meta"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("stale %s survived the open (stat error %v)", name, err)
		}
	}
	id, err := d2.AllocatePage(4)
	if err != nil {
		t.Fatal(err)
	}
	if id != (PageID{File: 4, Num: 0}) {
		t.Fatalf("first allocation = %v, want 4:0", id)
	}
	buf := make([]byte, PageSize)
	if err := d2.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, PageSize)) {
		t.Fatal("first page of a reopened store not zeroed")
	}
}

// A buffer pool + heap file running over FileDisk must behave exactly like
// the MemDisk stack.
func TestFileDiskUnderBufferPool(t *testing.T) {
	d, err := OpenFileDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	bp := NewBufferPool(d, 2) // tiny pool forces eviction write-backs
	h := NewHeapFile(bp, 1)
	var rids []RecordID
	for i := 0; i < 20; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte{byte(i)}, 1000))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if w := d.Stats().Writes; w == 0 {
		t.Fatal("no page reached the file store")
	}
	// A second pool over the same store sees only what was written back.
	bp2 := NewBufferPool(d, 8)
	h2 := NewHeapFile(bp2, 1)
	got := 0
	if err := h2.Scan(func(rid RecordID, rec []byte) error {
		if len(rec) != 1000 || rec[0] != byte(got) {
			t.Fatalf("record %d corrupt after write-back", got)
		}
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != len(rids) {
		t.Fatalf("scanned %d records after write-back, want %d", got, len(rids))
	}
}
