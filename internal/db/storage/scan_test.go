package storage

import (
	"sync"
	"testing"
	"time"
)

// fillHeap builds a heap file with enough ~700B records to span pages pages.
func fillHeap(t *testing.T, pool *BufferPool, file int32, pages int) *HeapFile {
	t.Helper()
	h := NewHeapFile(pool, file)
	rec := make([]byte, 700)
	for h.NumPages() < int32(pages) {
		rec[0] = byte(h.NumPages())
		if _, err := h.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestScanResistanceKeepsPointWorkingSet is the policy's core property: a
// sequential scan much larger than the pool must not evict a point reader's
// working set. The same workload through undeclared scans (the plain-LRU
// lesion baseline) must evict it — proving the improvement is the policy,
// not the workload.
func TestScanResistanceKeepsPointWorkingSet(t *testing.T) {
	run := func(declared bool) (pointMisses int64) {
		disk := NewMemDisk()
		pool := NewBufferPool(disk, 8)
		big := fillHeap(t, pool, 1, 32) // scanned: 4x the pool
		hot := fillHeap(t, pool, 2, 4)  // point working set: half the pool
		var rids []RecordID
		_ = hot.Scan(func(rid RecordID, _ []byte) error {
			rids = append(rids, rid)
			return nil
		})
		// Warm the point working set, then interleave point reads with scan
		// passes and count only the point misses after warmup.
		for _, rid := range rids {
			if _, err := hot.Get(rid); err != nil {
				t.Fatal(err)
			}
		}
		pool.ResetStats()
		for pass := 0; pass < 3; pass++ {
			var err error
			if declared {
				err = big.Scan(func(RecordID, []byte) error { return nil })
			} else {
				err = big.ScanWith(nil, func(RecordID, []byte) error { return nil })
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, rid := range rids {
				if _, err := hot.Get(rid); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := pool.Stats()
		if declared {
			// Scan fetches must all be accounted to the scan counters.
			if st.ScanHits+st.ScanMisses != 3*int64(big.NumPages()) {
				t.Fatalf("scan counters %d+%d, want %d fetches",
					st.ScanHits, st.ScanMisses, 3*big.NumPages())
			}
		}
		return st.PointMisses()
	}

	resistant := run(true)
	baseline := run(false)
	if resistant != 0 {
		t.Fatalf("declared scans evicted the point working set: %d point misses", resistant)
	}
	if baseline == 0 {
		t.Fatalf("plain-LRU baseline kept the working set; the lesion proves nothing")
	}
}

// TestInterleavedScansAccounting is the regression test for page-fetch
// accounting under scan-induced eviction: two interleaved scans on a
// 4-frame pool force every page of each pass to reload, and each fetch must
// be counted exactly once — per cursor, per scan counter, and in the pool
// totals (no double count of reloads of pages the other scan evicted).
func TestInterleavedScansAccounting(t *testing.T) {
	disk := NewMemDisk()
	pool := NewBufferPool(disk, 4)
	h := fillHeap(t, pool, 1, 12)
	pages := int64(h.NumPages())
	pool.ResetStats()

	scans := h.NumScans()
	var wg sync.WaitGroup
	cursors := make([]*ScanCursor, 2)
	for i := range cursors {
		sc := pool.BeginScan()
		cursors[i] = sc
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pool.EndScan(sc)
			if err := h.ScanWith(sc, func(RecordID, []byte) error {
				time.Sleep(50 * time.Microsecond) // interleave the two passes
				return nil
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	for i, sc := range cursors {
		if sc.Pages() != pages {
			t.Fatalf("cursor %d fetched %d pages, want %d", i, sc.Pages(), pages)
		}
		if sc.Hits()+sc.Misses() != pages {
			t.Fatalf("cursor %d hits %d + misses %d != pages %d", i, sc.Hits(), sc.Misses(), pages)
		}
	}
	st := pool.Stats()
	if got, want := st.Hits+st.Misses, 2*pages; got != want {
		t.Fatalf("pool counted %d fetches, want %d (one per page per pass)", got, want)
	}
	if got, want := st.ScanHits+st.ScanMisses, 2*pages; got != want {
		t.Fatalf("scan counters %d, want %d", got, want)
	}
	if st.PointHits() != 0 || st.PointMisses() != 0 {
		t.Fatalf("scan-only workload leaked into point counters: %d hits, %d misses",
			st.PointHits(), st.PointMisses())
	}
	if got := h.NumScans() - scans; got != 2 {
		t.Fatalf("NumScans advanced by %d, want 2", got)
	}
}

// TestConcurrentScansAndPointReads hammers the scan-resistant pool with
// concurrent declared scans and point readers on a pool far smaller than
// the union of their page sets (run with -race): no fetch may fail with a
// transient exhaustion error, pin accounting must end balanced (DiscardFile
// errors on any leaked pin), and the point readers must beat the plain-LRU
// baseline's hit rate.
func TestConcurrentScansAndPointReads(t *testing.T) {
	run := func(declared bool) (hitRate float64) {
		disk := NewMemDisk()
		disk.SetLatency(20 * time.Microsecond)
		pool := NewBufferPool(disk, 6)
		big := fillHeap(t, pool, 1, 24)
		hot := fillHeap(t, pool, 2, 3)
		var rids []RecordID
		_ = hot.Scan(func(rid RecordID, _ []byte) error {
			rids = append(rids, rid)
			return nil
		})
		pool.ResetStats()

		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for s := 0; s < 2; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pass := 0; pass < 4; pass++ {
					var err error
					if declared {
						err = big.Scan(func(RecordID, []byte) error { return nil })
					} else {
						err = big.ScanWith(nil, func(RecordID, []byte) error { return nil })
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				for i := 0; i < 400; i++ {
					rid := rids[(seed+i)%len(rids)]
					if _, err := hot.Get(rid); err != nil {
						errs <- err
						return
					}
				}
			}(r)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err) // includes any transient "buffer pool exhausted"
		}
		// Every pin must be released: DiscardFile fails on a pinned frame.
		if err := pool.DiscardFile(1); err != nil {
			t.Fatal(err)
		}
		if err := pool.DiscardFile(2); err != nil {
			t.Fatal(err)
		}
		st := pool.Stats()
		point := st.PointHits() + st.PointMisses()
		if point == 0 {
			t.Fatal("no point fetches recorded")
		}
		return float64(st.PointHits()) / float64(point)
	}

	resistant := run(true)
	baseline := run(false)
	if resistant <= baseline {
		t.Fatalf("point-read hit rate %.2f not above plain-LRU baseline %.2f", resistant, baseline)
	}
	if resistant < 0.9 {
		t.Fatalf("point-read hit rate %.2f; want >=0.9 with a resident working set", resistant)
	}
}

// A PageScan visits a file a page at a time in file order and pins nothing
// between pages; a file larger than a quarter of the pool holds a scan
// cursor from OpenScan to Close (ScansOpen), a smaller one none, and every
// pass counts once in NumScans.
func TestPageScanHoldsCursorUntilClose(t *testing.T) {
	pool := NewBufferPool(NewMemDisk(), 8)
	big := fillHeap(t, pool, 1, 6)
	small := fillHeap(t, pool, 2, 2)
	for _, c := range []struct {
		h    *HeapFile
		open int64
	}{{big, 1}, {small, 0}} {
		scans := c.h.NumScans()
		ps := c.h.OpenScan()
		if got := pool.Stats().ScansOpen; got != c.open {
			t.Fatalf("file %d: ScansOpen %d after OpenScan, want %d", c.h.FileID(), got, c.open)
		}
		var pages []int32
		for {
			more, err := ps.Page(func(rid RecordID, _ []byte) error {
				if len(pages) == 0 || pages[len(pages)-1] != rid.Page.Num {
					pages = append(pages, rid.Page.Num)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				break
			}
			if pinned := pool.pinnedFrames(); pinned != 0 {
				t.Fatalf("file %d: %d frames pinned between pages", c.h.FileID(), pinned)
			}
		}
		for i, p := range pages {
			if p != int32(i) {
				t.Fatalf("file %d: pages visited %v, want 0..%d in order", c.h.FileID(), pages, c.h.NumPages()-1)
			}
		}
		if len(pages) != int(c.h.NumPages()) {
			t.Fatalf("file %d: visited %d pages of %d", c.h.FileID(), len(pages), c.h.NumPages())
		}
		if got := pool.Stats().ScansOpen; got != c.open {
			t.Fatalf("file %d: ScansOpen %d before Close, want %d", c.h.FileID(), got, c.open)
		}
		ps.Close()
		ps.Close()
		if got := pool.Stats().ScansOpen; got != 0 {
			t.Fatalf("file %d: ScansOpen %d after Close", c.h.FileID(), got)
		}
		if got := c.h.NumScans() - scans; got != 1 {
			t.Fatalf("file %d: one pass counted %d times", c.h.FileID(), got)
		}
	}
	// ErrStopScan ends the pass without error.
	ps := big.OpenScan()
	defer ps.Close()
	if more, err := ps.Page(func(RecordID, []byte) error { return ErrStopScan }); more || err != nil {
		t.Fatalf("ErrStopScan: more %v, err %v", more, err)
	}
	if more, err := ps.Page(func(RecordID, []byte) error { return nil }); more || err != nil {
		t.Fatalf("after ErrStopScan: more %v, err %v", more, err)
	}
}

// pinnedFrames counts the pool's frames with a pin held.
func (bp *BufferPool) pinnedFrames() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for _, f := range bp.frames {
		if f.pins > 0 {
			n++
		}
	}
	return n
}
