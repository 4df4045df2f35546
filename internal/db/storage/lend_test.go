package storage

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// poolScript drives one buffer pool through every path that touches the
// disk: allocation, point and scan fetches that hit and miss, dirty unpins,
// capacity evictions, FlushAll, and a dropped file's discard, truncate and
// reallocation. It returns what a fresh read of every live page holds.
func poolScript(t *testing.T, bp *BufferPool, disk Disk) [][]byte {
	t.Helper()
	write := func(id PageID, pg Page, s string) {
		if _, err := pg.Insert([]byte(s)); err != nil {
			t.Fatal(err)
		}
		bp.Unpin(id, true)
	}
	alloc := func(file int32, s string) PageID {
		id, pg, err := bp.Allocate(file)
		if err != nil {
			t.Fatal(err)
		}
		write(id, pg, s)
		return id
	}
	fetch := func(id PageID, sc *ScanCursor, s string) {
		pg, err := bp.FetchScan(id, sc)
		if err != nil {
			t.Fatal(err)
		}
		if s == "" {
			bp.Unpin(id, false)
			return
		}
		write(id, pg, s)
	}

	var ids []PageID
	for i := 0; i < 6; i++ { // capacity 4: the last two evict dirty pages
		ids = append(ids, alloc(1, fmt.Sprintf("page %d", i)))
	}
	fetch(ids[0], nil, "")        // miss
	fetch(ids[5], nil, "touched") // hit, dirtied
	sc := bp.BeginScan()
	for i, id := range ids {
		s := ""
		if i == 2 {
			s = "scanned"
		}
		fetch(id, sc, s)
	}
	bp.EndScan(sc)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	other := []PageID{alloc(2, "other 0"), alloc(2, "other 1"), alloc(2, "other 2")}
	if err := bp.DiscardFile(1); err != nil {
		t.Fatal(err)
	}
	disk.TruncateFile(1)
	ids = []PageID{alloc(1, "again 0"), alloc(1, "again 1")}
	fetch(ids[0], nil, "")
	fetch(other[0], nil, "")
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}

	var pages [][]byte
	for _, id := range append(ids, other...) {
		buf := make([]byte, PageSize)
		if err := disk.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, buf)
	}
	return pages
}

// A pool that borrows a MemDisk's pages counts exactly what a pool copying
// through a FaultDisk over the same kind of disk counts, hit for hit and
// write for write, and leaves the same bytes on disk.
func TestLendingCountersMatchCopying(t *testing.T) {
	lentDisk := NewMemDisk()
	lent := NewBufferPool(lentDisk, 4)
	if lent.mem == nil {
		t.Fatal("a pool over a bare MemDisk does not borrow its pages")
	}
	copiedDisk := NewFaultDisk(NewMemDisk())
	copied := NewBufferPool(copiedDisk, 4)
	if copied.mem != nil {
		t.Fatal("a pool over a FaultDisk borrows pages")
	}
	lentPages := poolScript(t, lent, lentDisk)
	copiedPages := poolScript(t, copied, copiedDisk)
	if a, b := lent.Stats(), copied.Stats(); a != b {
		t.Fatalf("pool stats: lending %+v, copying %+v", a, b)
	}
	// The script's own read-back went through each disk once per page, so
	// the disk counters include it on both sides alike.
	if a, b := lentDisk.Stats(), copiedDisk.Stats(); a != b {
		t.Fatalf("disk stats: lending %+v, copying %+v", a, b)
	}
	if st := lent.Stats(); st.Misses == 0 || st.Hits == 0 || st.ScanHits == 0 || st.ScanMisses == 0 {
		t.Fatalf("the script missed a path: %+v", st)
	}
	if st := lentDisk.Stats(); st.Writes == 0 {
		t.Fatalf("the script wrote nothing back: %+v", st)
	}
	for i := range lentPages {
		if !bytes.Equal(lentPages[i], copiedPages[i]) {
			t.Fatalf("page %d differs between lending and copying", i)
		}
	}
}

// A client that re-pins a dirty borrowed frame and changes it while the
// frame's eviction write-back is in flight keeps its bytes: the write-back
// writes no older image over the page it shares with the disk.
func TestLentEvictionKeepsNewerBytes(t *testing.T) {
	disk := NewMemDisk()
	disk.SetLatency(30 * time.Millisecond) // widen the write-back window
	bp := NewBufferPool(disk, 1)
	a, pg, err := bp.Allocate(1)
	if err != nil {
		t.Fatal(err)
	}
	copy(pg.Data[100:], "old")
	bp.Unpin(a, true)

	done := make(chan error, 1)
	go func() { // evicts a, writing it back outside the pool lock
		b, _, err := bp.Allocate(1)
		if err == nil {
			bp.Unpin(b, false)
		}
		done <- err
	}()
	inFlight := func() bool {
		bp.mu.Lock()
		defer bp.mu.Unlock()
		f := bp.frames[a]
		return f != nil && f.wb != nil
	}
	for deadline := time.Now().Add(5 * time.Second); !inFlight(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("no write-back of the dirty frame started")
		}
	}
	pg, err = bp.Fetch(a) // a hit: the guard pin keeps the frame resident
	if err != nil {
		t.Fatal(err)
	}
	copy(pg.Data[100:], "new")
	bp.Unpin(a, true)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := disk.ReadPage(a, got); err != nil {
		t.Fatal(err)
	}
	if string(got[100:103]) != "new" {
		t.Fatalf("disk holds %q after the write-back race, want %q", got[100:103], "new")
	}
}

// A FaultDisk over a MemDisk is not a MemDisk: the pool copies through it,
// so its armed read and write faults fire, and a failed write leaves the
// inner disk's page as it was.
func TestFaultDiskOverMemDiskStillFaults(t *testing.T) {
	mem := NewMemDisk()
	fd := NewFaultDisk(mem)
	bp := NewBufferPool(fd, 1)
	a, pg, err := bp.Allocate(1)
	if err != nil {
		t.Fatal(err)
	}
	copy(pg.Data[100:], "first")
	bp.Unpin(a, true)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}

	pg, err = bp.Fetch(a)
	if err != nil {
		t.Fatal(err)
	}
	copy(pg.Data[100:], "later")
	bp.Unpin(a, true)
	fd.FailWritesAfter(0)
	if _, _, err := bp.Allocate(1); !errors.Is(err, ErrInjected) { // evicts a
		t.Fatalf("eviction write-back: err = %v, want the injected fault", err)
	}
	if err := bp.FlushAll(); !errors.Is(err, ErrInjected) {
		t.Fatalf("FlushAll: err = %v, want the injected fault", err)
	}
	got := make([]byte, PageSize)
	if err := mem.ReadPage(a, got); err != nil {
		t.Fatal(err)
	}
	if string(got[100:105]) != "first" {
		t.Fatalf("a failed write changed the inner disk: %q", got[100:105])
	}

	fd.FailWritesAfter(-1)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	b, _, err := bp.Allocate(1) // evicts a, clean now
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(b, true)
	fd.FailReadsAfter(0)
	if _, err := bp.Fetch(a); !errors.Is(err, ErrInjected) {
		t.Fatalf("read: err = %v, want the injected fault", err)
	}
}

// With the in-memory disk each page is held once: 2 000 allocated, written
// and flushed pages, all resident in the pool, grow the heap by at most
// 1.1 pages each (frame, list and map bookkeeping included).
func TestLendingHoldsEachPageOnce(t *testing.T) {
	const pages = 2000
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	disk := NewMemDisk()
	bp := NewBufferPool(disk, 4096)
	for i := 0; i < pages; i++ {
		id, pg, err := bp.Allocate(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pg.Insert([]byte("record")); err != nil {
			t.Fatal(err)
		}
		bp.Unpin(id, true)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	grown := int64(heap()) - int64(before)
	runtime.KeepAlive(bp)
	if limit := int64(pages * PageSize * 11 / 10); grown > limit {
		t.Fatalf("%d pages grew the heap by %d bytes (%.2f pages each), limit %d",
			pages, grown, float64(grown)/pages/PageSize, limit)
	}
	if st := disk.Stats(); st.Writes != pages {
		t.Fatalf("FlushAll wrote %d pages, want %d", st.Writes, pages)
	}
}
