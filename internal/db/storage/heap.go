package storage

import (
	"fmt"
	"sync/atomic"
)

// RecordID locates a record: page and slot.
type RecordID struct {
	Page PageID
	Slot int
}

func (r RecordID) String() string { return fmt.Sprintf("%s/%d", r.Page, r.Slot) }

// HeapFile is an unordered collection of records in slotted pages, the
// storage for one table. Inserts append to the last page, allocating as
// needed; scans walk pages in order through the buffer pool.
//
// Concurrent scans are safe. Mutations (Insert/InsertBatch/Update/Delete)
// require a single writer; the record counter is atomic so readers may
// observe counts while a writer runs.
type HeapFile struct {
	pool    *BufferPool
	file    int32
	lastPg  int32 // page currently receiving inserts, -1 if none
	records atomic.Int64
	scans   atomic.Int64
}

// NewHeapFile creates (or reopens) the heap file with the given file id.
func NewHeapFile(pool *BufferPool, file int32) *HeapFile {
	h := &HeapFile{pool: pool, file: file, lastPg: -1}
	if n := pool.disk.NumPages(file); n > 0 {
		h.lastPg = n - 1
		// Recount records for reopened files.
		_ = h.Scan(func(RecordID, []byte) error {
			h.records.Add(1)
			return nil
		})
	}
	return h
}

// FileID returns the underlying file id.
func (h *HeapFile) FileID() int32 { return h.file }

// NumRecords returns the live record count.
func (h *HeapFile) NumRecords() int64 { return h.records.Load() }

// NumScans returns how many full Scan passes have started on this file —
// the counter tests use to prove a search loop never rescans a table.
func (h *HeapFile) NumScans() int64 { return h.scans.Load() }

// NumPages returns the number of allocated pages.
func (h *HeapFile) NumPages() int32 { return h.pool.disk.NumPages(h.file) }

// Insert appends a record and returns its id.
func (h *HeapFile) Insert(rec []byte) (RecordID, error) {
	rids, err := h.InsertBatch([][]byte{rec})
	if err != nil {
		return RecordID{}, err
	}
	return rids[0], nil
}

// InsertBatch appends records in order and returns their ids. Unlike a loop
// over Insert, the receiving page is pinned once and filled until full
// (the paper's Section 3.2 batch-loading path), so bulk loads do one
// Fetch/Unpin round-trip per PAGE instead of per record.
func (h *HeapFile) InsertBatch(recs [][]byte) ([]RecordID, error) {
	rids := make([]RecordID, 0, len(recs))
	var (
		cur    Page
		curID  PageID
		pinned bool
		dirty  bool
	)
	unpin := func() {
		if pinned {
			h.pool.Unpin(curID, dirty)
			pinned, dirty = false, false
		}
	}
	for _, rec := range recs {
		if len(rec) > MaxRecordSize {
			unpin()
			return rids, fmt.Errorf("storage: record of %d bytes exceeds page size", len(rec))
		}
		if !pinned && h.lastPg >= 0 {
			curID = PageID{File: h.file, Num: h.lastPg}
			pg, err := h.pool.Fetch(curID)
			if err != nil {
				return rids, err
			}
			cur, pinned = pg, true
		}
		var slot int
		var err error
		if pinned {
			slot, err = cur.Insert(rec)
		}
		if !pinned || err != nil {
			// No page yet, or the current one is full: move to a fresh page.
			unpin()
			id, pg, aerr := h.pool.Allocate(h.file)
			if aerr != nil {
				return rids, aerr
			}
			curID, cur, pinned, dirty = id, pg, true, true
			h.lastPg = id.Num
			slot, err = cur.Insert(rec)
			if err != nil {
				unpin()
				return rids, err
			}
		}
		dirty = true
		h.records.Add(1)
		rids = append(rids, RecordID{Page: curID, Slot: slot})
	}
	unpin()
	return rids, nil
}

// Get copies the record bytes at rid.
func (h *HeapFile) Get(rid RecordID) ([]byte, error) {
	pg, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	defer h.pool.Unpin(rid.Page, false)
	rec, err := pg.Get(rid.Slot)
	if err != nil {
		return nil, err
	}
	if rec == nil {
		return nil, nil
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	return out, nil
}

// Update overwrites a record in place (same length).
func (h *HeapFile) Update(rid RecordID, rec []byte) error {
	pg, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	err = pg.Update(rid.Slot, rec)
	h.pool.Unpin(rid.Page, err == nil)
	return err
}

// Delete tombstones a record.
func (h *HeapFile) Delete(rid RecordID) error {
	pg, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	err = pg.Delete(rid.Slot)
	h.pool.Unpin(rid.Page, err == nil)
	if err == nil {
		h.records.Add(-1)
	}
	return err
}

// batchOp runs one page-level mutation per rid, pinning each page once per
// run of consecutive rids on the same page instead of once per record. It
// returns a copy of each record's prior bytes in rid order — the table layer
// needs the old image to keep secondary indexes consistent. On error the
// returned prefix covers the records already mutated.
func (h *HeapFile) batchOp(rids []RecordID, op func(pg Page, slot, i int) error) ([][]byte, error) {
	old := make([][]byte, 0, len(rids))
	var (
		cur    Page
		curID  PageID
		pinned bool
		dirty  bool
	)
	unpin := func() {
		if pinned {
			h.pool.Unpin(curID, dirty)
			pinned, dirty = false, false
		}
	}
	for i, rid := range rids {
		if !pinned || curID != rid.Page {
			unpin()
			pg, err := h.pool.Fetch(rid.Page)
			if err != nil {
				return old, err
			}
			cur, curID, pinned = pg, rid.Page, true
		}
		rec, err := cur.Get(rid.Slot)
		if err != nil {
			unpin()
			return old, err
		}
		if rec == nil {
			unpin()
			return old, fmt.Errorf("storage: batch op on tombstone %s", rid)
		}
		cp := make([]byte, len(rec))
		copy(cp, rec)
		if err := op(cur, rid.Slot, i); err != nil {
			unpin()
			return old, err
		}
		dirty = true
		old = append(old, cp)
	}
	unpin()
	return old, nil
}

// DeleteBatch tombstones records, pinning each page once per run of
// consecutive same-page rids (the set-oriented maintenance path of the
// in-database search's violated-clause side table). It returns the deleted
// records' prior bytes in rid order.
func (h *HeapFile) DeleteBatch(rids []RecordID) ([][]byte, error) {
	old, err := h.batchOp(rids, func(pg Page, slot, _ int) error {
		return pg.Delete(slot)
	})
	h.records.Add(-int64(len(old)))
	return old, err
}

// ReviveBatch rewrites tombstoned slots with new records (rids and recs
// aligned), pinning each page once per run of consecutive same-page rids.
// It is the insert-surplus path of a free-slot list: space freed by
// earlier deletes is reused instead of appending, so a churning file stays
// bounded at its high-water record count. It returns how many records were
// stored — on error, the prefix before the failing rid.
func (h *HeapFile) ReviveBatch(rids []RecordID, recs [][]byte) (int, error) {
	if len(rids) != len(recs) {
		return 0, fmt.Errorf("storage: ReviveBatch rids %d != recs %d", len(rids), len(recs))
	}
	var (
		cur    Page
		curID  PageID
		pinned bool
		dirty  bool
		n      int
	)
	// The revived prefix counts on every path, including errors: the table
	// layer registers that same prefix in statistics and indexes, and the
	// record counter must agree with the live rows whatever happens.
	defer func() { h.records.Add(int64(n)) }()
	unpin := func() {
		if pinned {
			h.pool.Unpin(curID, dirty)
			pinned, dirty = false, false
		}
	}
	for i, rid := range rids {
		if !pinned || curID != rid.Page {
			unpin()
			pg, err := h.pool.Fetch(rid.Page)
			if err != nil {
				return n, err
			}
			cur, curID, pinned = pg, rid.Page, true
		}
		if err := cur.Revive(rid.Slot, recs[i]); err != nil {
			unpin()
			return n, err
		}
		dirty = true
		n++
	}
	unpin()
	return n, nil
}

// UpdateBatch overwrites records in place (same length per record), pinning
// each page once per run of consecutive same-page rids. recs must be aligned
// with rids. It returns the records' prior bytes in rid order.
func (h *HeapFile) UpdateBatch(rids []RecordID, recs [][]byte) ([][]byte, error) {
	if len(rids) != len(recs) {
		return nil, fmt.Errorf("storage: UpdateBatch rids %d != recs %d", len(rids), len(recs))
	}
	return h.batchOp(rids, func(pg Page, slot, i int) error {
		return pg.Update(slot, recs[i])
	})
}

// Scan calls fn for every live record in file order. The byte slice passed
// to fn aliases the page buffer and is only valid during the call. Returning
// a non-nil error stops the scan (ErrStopScan stops without error).
//
// A Scan of a file larger than a quarter of the buffer pool declares
// itself as a sequential scan: pages it fetches land on the pool's scan
// list and are recycled before any point-read frame, so concurrent big
// scans cannot evict each other's (or a point reader's) working set. Scans
// of smaller files keep plain recency placement — a repeatedly re-scanned
// small table (the violated-clause side table, a partition's clause table)
// is a hot working set, not a stream, and must stay cacheable.
func (h *HeapFile) Scan(fn func(rid RecordID, rec []byte) error) error {
	ps := h.OpenScan()
	defer ps.Close()
	return ps.rest(fn)
}

// ScanWith is Scan through a caller-owned cursor, so one pass's page fetch
// accounting is observable (and a cursor can be reused across passes to
// accumulate). A nil cursor runs the scan with plain point fetches — the
// pre-scan-resistant LRU behaviour, kept as the lesion baseline the
// searchthru benchmark measures against.
func (h *HeapFile) ScanWith(sc *ScanCursor, fn func(rid RecordID, rec []byte) error) error {
	ps := h.pass(sc)
	return ps.rest(fn)
}

// PageScan is one pass over a heap file that its caller drives a page at a
// time: each Page call visits the next page's live records and unpins the
// page before it returns, so a caller that decodes what it needs during
// the visit holds no pin between calls. Pages come in file order, over the
// pages the file had when the pass began. Scan and ScanWith loop over one.
type PageScan struct {
	h     *HeapFile
	sc    *ScanCursor
	owned bool // sc was begun by OpenScan; Close ends it
	next  int32
	pages int32
}

// OpenScan begins a pass with Scan's cursor policy: a file larger than a
// quarter of the pool takes a scan cursor, which the pass holds (and the
// pool's ScansOpen gauge counts) until Close. Every pass counts once in
// NumScans. The caller must Close the pass, also after an error.
func (h *HeapFile) OpenScan() PageScan {
	var sc *ScanCursor
	if int(h.NumPages()) > h.pool.Capacity()/4 {
		sc = h.pool.BeginScan()
	}
	ps := h.pass(sc)
	ps.owned = sc != nil
	return ps
}

func (h *HeapFile) pass(sc *ScanCursor) PageScan {
	h.scans.Add(1)
	return PageScan{h: h, sc: sc, pages: h.pool.disk.NumPages(h.file)}
}

// Page calls fn for every live record of the pass's next page, with the
// page pinned only for the duration, and reports whether there was a page
// to visit. The byte slice passed to fn aliases the page buffer and is only
// valid during the call. An error from fn ends the pass and is returned,
// except ErrStopScan, which ends it without error.
func (ps *PageScan) Page(fn func(rid RecordID, rec []byte) error) (bool, error) {
	if ps.next >= ps.pages {
		return false, nil
	}
	id := PageID{File: ps.h.file, Num: ps.next}
	ps.next++
	pg, err := ps.h.pool.FetchScan(id, ps.sc)
	if err != nil {
		ps.next = ps.pages
		return false, err
	}
	defer ps.h.pool.Unpin(id, false)
	slots := pg.NumRecords()
	for s := 0; s < slots; s++ {
		rec, err := pg.Get(s)
		if err == nil {
			if rec == nil {
				continue // tombstone
			}
			err = fn(RecordID{Page: id, Slot: s}, rec)
		}
		if err != nil {
			ps.next = ps.pages
			if err == ErrStopScan {
				return false, nil
			}
			return false, err
		}
	}
	return true, nil
}

// rest visits every page the pass has not visited yet.
func (ps *PageScan) rest(fn func(rid RecordID, rec []byte) error) error {
	for {
		more, err := ps.Page(fn)
		if err != nil || !more {
			return err
		}
	}
}

// Close ends the pass, releasing the scan cursor OpenScan took. It is safe
// to call more than once.
func (ps *PageScan) Close() {
	if ps.owned {
		ps.h.pool.EndScan(ps.sc)
		ps.owned = false
	}
	ps.next = ps.pages
}

// ErrStopScan halts Scan early without reporting an error.
var ErrStopScan = fmt.Errorf("storage: stop scan")
