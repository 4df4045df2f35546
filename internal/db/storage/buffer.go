package storage

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// BufferPool caches pages in memory with a scan-resistant replacement
// policy and pin counts. All heap-file access goes through the pool, so the
// pool's hit/miss counters measure the "physical" I/O an operation causes —
// the quantity the paper's hybrid-architecture argument (Section 3.2) is
// about.
//
// Replacement is scan-resistant: frames are kept on two recency lists. Point
// reads (Fetch) live on the main list and are evicted least-recently-used
// last; pages fetched through a declared scan cursor (BeginScan +
// FetchScan) live on a separate scan list that is always preferred for
// eviction. A sequential scan therefore recycles its own frames instead of
// flooding the pool, and concurrent scans cannot evict a point reader's
// working set — the classic LRU failure mode under mixed workloads. A point
// read that hits a scan-fetched page promotes it to the main list (it has
// proven itself part of the working set); a scan that hits a point page
// leaves its position untouched. Within each list, recency order is exactly
// the old LRU order, so pure-scan and pure-point workloads behave as
// before.
//
// The pool is safe for concurrent use. Metadata (frame map, recency lists,
// pin counts) is guarded by mu; disk reads happen OUTSIDE the lock on
// frames that are already pinned, so a slow read (e.g. a latency-injected
// disk) never serializes unrelated fetches. Dirty-page write-back during
// eviction also happens outside the lock, on a pin-protected victim: the
// guard pin keeps the frame resident during the write, and the victim is
// only dropped if it is still unpinned and clean afterwards (a page
// re-dirtied mid-write stays cached and is written again later). Eviction
// skips pinned frames, which is what makes both unlocked transfers safe.
// Page DATA is protected by the pin protocol, not the pool lock: concurrent
// readers of a pinned page are safe; mutating page bytes while another
// goroutine reads the same page requires external coordination (the
// engine's DML paths are single-writer per table).
//
// Over a bare *MemDisk the pool borrows pages instead of copying them: a
// frame's data is the disk page itself, so the in-memory engine holds each
// page once and capacity bounds how many pages are resident as frames, not
// extra bytes. A miss still counts and charges a disk read, and a
// write-back a disk write, so every counter and the latency model are those
// of the copying path every other Disk (a FileDisk, a FaultDisk even over a
// MemDisk) takes.
type BufferPool struct {
	mu       sync.RWMutex
	disk     Disk
	mem      *MemDisk // disk itself when frames borrow its pages, else nil
	capacity int
	frames   map[PageID]*frame
	lru      *list.List // *frame point-read frames, front = most recent
	scanLRU  *list.List // *frame scan-fetched frames, evicted before lru
	// unpinned is signalled (with mu as its lock) whenever a frame's last
	// Unpin drops its pin count to zero; FlushAll waits on it.
	unpinned sync.Cond

	hits       atomic.Int64
	misses     atomic.Int64
	scanHits   atomic.Int64 // subset of hits through a scan cursor
	scanMisses atomic.Int64 // subset of misses through a scan cursor
	scansOpen  atomic.Int64 // gauge: BeginScan minus EndScan
}

type frame struct {
	id    PageID
	data  []byte
	pins  int
	dirty bool
	elem  *list.Element
	// onScan reports which recency list elem belongs to: the scan list
	// (preferred eviction victims) or the main point-read list.
	onScan bool
	// ready is closed once data holds the page contents (or loadErr is set).
	// Fetches that find the frame already mapped wait on it without holding
	// the pool lock, so one slow disk read never blocks the whole pool.
	ready   chan struct{}
	loadErr error
	// wb is non-nil while an evictor writes this frame back outside the
	// lock (closed when the write completes). Evictors that find every
	// frame pinned wait on an in-flight write-back instead of reporting
	// pool exhaustion: the guard pin is transient by construction.
	wb chan struct{}
}

// readyClosed is the pre-closed channel used for frames born ready
// (Allocate) so every frame has a non-nil ready channel.
var readyClosed = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// NewBufferPool creates a pool holding up to capacity pages.
func NewBufferPool(disk Disk, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	mem, _ := disk.(*MemDisk)
	bp := &BufferPool{
		disk:     disk,
		mem:      mem,
		capacity: capacity,
		frames:   make(map[PageID]*frame),
		lru:      list.New(),
		scanLRU:  list.New(),
	}
	bp.unpinned.L = &bp.mu
	return bp
}

// ScanCursor declares one sequential scan to the pool: pages fetched
// through it land on the scan recency list (recycled before any point-read
// frame) and are accounted separately, so scan-induced churn never skews a
// point workload's counters. A cursor's own counters record each page the
// scan fetched exactly once per fetch — a page a concurrent scan evicted
// and this scan reloaded is one fetch, one miss, never double-counted. A
// cursor may be reused across passes; its counters then accumulate. The
// counter accessors are safe for concurrent use, but one cursor must not
// serve two concurrent scans (each scan gets its own).
type ScanCursor struct {
	pages atomic.Int64
	hits  atomic.Int64
}

// Pages returns how many page fetches went through the cursor.
func (sc *ScanCursor) Pages() int64 { return sc.pages.Load() }

// Hits returns how many of the cursor's fetches were already resident.
func (sc *ScanCursor) Hits() int64 { return sc.hits.Load() }

// Misses returns how many of the cursor's fetches read from disk.
func (sc *ScanCursor) Misses() int64 { return sc.pages.Load() - sc.hits.Load() }

// BeginScan declares a sequential scan. Pass the cursor to FetchScan for
// every page of the scan and call EndScan when the pass is done.
func (bp *BufferPool) BeginScan() *ScanCursor {
	bp.scansOpen.Add(1)
	return &ScanCursor{}
}

// EndScan closes a scan cursor. Frames the scan fetched stay cached (on the
// scan list, first in line for eviction) so a following scan of the same
// pages can still hit them.
func (bp *BufferPool) EndScan(sc *ScanCursor) {
	if sc != nil {
		bp.scansOpen.Add(-1)
	}
}

// PoolStats reports cache behaviour. Hits/Misses count every fetch exactly
// once; ScanHits/ScanMisses are the subset that went through a declared
// scan cursor, so point-read behaviour is Hits-ScanHits / Misses-ScanMisses
// without any double counting of pages a scan evicted and a point read (or
// another scan) later reloaded.
//
// ScansOpen is a gauge, not a counter: the declared scans begun and not yet
// ended (a streaming scan holds one from its Open to its Close), which
// ResetStats leaves alone. It reads 0 whenever no scan is running.
type PoolStats struct {
	Hits       int64
	Misses     int64
	ScanHits   int64
	ScanMisses int64
	ScansOpen  int64
}

// PointHits returns the hits not attributable to a declared scan.
func (s PoolStats) PointHits() int64 { return s.Hits - s.ScanHits }

// PointMisses returns the misses not attributable to a declared scan.
func (s PoolStats) PointMisses() int64 { return s.Misses - s.ScanMisses }

// Stats returns cumulative hit/miss counters.
func (bp *BufferPool) Stats() PoolStats {
	return PoolStats{
		Hits:       bp.hits.Load(),
		Misses:     bp.misses.Load(),
		ScanHits:   bp.scanHits.Load(),
		ScanMisses: bp.scanMisses.Load(),
		ScansOpen:  bp.scansOpen.Load(),
	}
}

// ResetStats zeroes the counters.
func (bp *BufferPool) ResetStats() {
	bp.hits.Store(0)
	bp.misses.Store(0)
	bp.scanHits.Store(0)
	bp.scanMisses.Store(0)
}

// Fetch pins the page and returns its in-memory bytes. Callers must Unpin
// (with dirty=true if they wrote to the bytes).
func (bp *BufferPool) Fetch(id PageID) (Page, error) {
	return bp.fetch(id, nil)
}

// FetchScan is Fetch through a scan cursor: the page is pinned exactly as
// by Fetch, but a newly loaded frame joins the scan recency list (first in
// line for eviction) and the fetch is accounted to the cursor. A nil cursor
// degrades to a plain Fetch — the pre-scan-resistant behaviour, kept as the
// lesion baseline for benchmarks.
func (bp *BufferPool) FetchScan(id PageID, sc *ScanCursor) (Page, error) {
	return bp.fetch(id, sc)
}

func (bp *BufferPool) fetch(id PageID, sc *ScanCursor) (Page, error) {
	scan := sc != nil
	bp.mu.Lock()
	var f *frame
	for {
		if hit, ok := bp.frames[id]; ok {
			hit.pins++
			if hit.onScan {
				// Any re-reference while resident — point read or a later
				// scan pass — proves the page belongs to a recurring working
				// set, not a stream (a streaming scan never revisits a page
				// it loaded): graduate it off the scan list so scans cannot
				// recycle it.
				bp.scanLRU.Remove(hit.elem)
				hit.elem = bp.lru.PushFront(hit)
				hit.onScan = false
			} else {
				bp.lru.MoveToFront(hit.elem)
			}
			bp.mu.Unlock()
			bp.hits.Add(1)
			if scan {
				sc.pages.Add(1)
				sc.hits.Add(1)
				bp.scanHits.Add(1)
			}
			// Another fetcher may still be reading the page in; wait for it
			// without holding the pool lock. The pin taken above keeps the
			// frame resident in the meantime.
			<-hit.ready
			if hit.loadErr != nil {
				err := hit.loadErr
				bp.releaseFailed(hit)
				return Page{}, err
			}
			return Page{Data: hit.data}, nil
		}
		if len(bp.frames) < bp.capacity {
			f = bp.installFrameLocked(id, scan)
			break
		}
		// Evicting a dirty victim releases the pool lock during the disk
		// write, so after eviction the map must be re-checked: a concurrent
		// Fetch may have installed this id (or consumed the freed slot).
		if err := bp.evictOneLocked(); err != nil {
			bp.mu.Unlock()
			return Page{}, err
		}
	}
	f.pins = 1
	f.ready = make(chan struct{})
	bp.mu.Unlock()
	bp.misses.Add(1)
	if scan {
		sc.pages.Add(1)
		bp.scanMisses.Add(1)
	}
	// The frame is pinned, so eviction cannot reclaim it (and its data
	// cannot be reused) while the read is in flight — the pool lock is not
	// needed here, and concurrent fetches of other pages proceed.
	if bp.mem != nil {
		f.data, f.loadErr = bp.mem.lendRead(id)
	} else {
		f.loadErr = bp.disk.ReadPage(id, f.data)
	}
	close(f.ready)
	if f.loadErr != nil {
		err := f.loadErr
		bp.releaseFailed(f)
		return Page{}, err
	}
	return Page{Data: f.data}, nil
}

// releaseFailed unpins a frame whose load failed and evicts it once the last
// pinner lets go, so a transient read error is not cached forever.
func (bp *BufferPool) releaseFailed(f *frame) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f.pins > 0 {
		f.pins--
	}
	if f.pins == 0 {
		if cur, ok := bp.frames[f.id]; ok && cur == f {
			bp.evictFrameLocked(f)
		}
	}
}

// Allocate creates a fresh page in the file, pinned and initialized as an
// empty slotted page.
func (bp *BufferPool) Allocate(file int32) (PageID, Page, error) {
	id, err := bp.disk.AllocatePage(file)
	if err != nil {
		return PageID{}, Page{}, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, err := bp.allocFrameLocked(id)
	if err != nil {
		return PageID{}, Page{}, err
	}
	if bp.mem != nil {
		f.data = bp.mem.lendNew(id)
	}
	f.pins = 1
	f.dirty = true
	f.ready = readyClosed
	p := InitPage(f.data)
	return id, p, nil
}

// Unpin releases a pin. dirty marks the page as modified so eviction writes
// it back.
func (bp *BufferPool) Unpin(id PageID, dirty bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok {
		return
	}
	if dirty {
		f.dirty = true
	}
	if f.pins > 0 {
		f.pins--
		if f.pins == 0 {
			bp.unpinned.Broadcast() // FlushAll may be waiting for this frame
		}
	}
}

// FlushAll writes every dirty page back to disk (keeps them cached). A
// frame with an in-flight eviction write-back is waited on first: the
// evictor writes a pre-mutation snapshot outside the lock, and letting it
// land before flushing the newer bytes keeps the two writes from reaching
// the disk in the wrong order (stale bytes persisting under a frame marked
// clean). A dirty frame that is pinned is waited on too, until its last pin
// goes: its pinner may be writing the bytes, and only an unpinned frame's
// image is consistent (no pin can be taken while FlushAll holds the lock).
// The caller must therefore hold no pin itself.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for {
		var wb chan struct{}
		pinned := false
		for _, f := range bp.frames {
			if f.wb != nil {
				wb = f.wb
				break
			}
			if !f.dirty {
				continue
			}
			if f.pins > 0 {
				pinned = true
				continue
			}
			if err := bp.writeBack(f.id, f.data); err != nil {
				return err
			}
			f.dirty = false
		}
		// Wait without the lock, then restart: the frame map may have
		// changed (and pages flushed before the wait stay clean, so the
		// rescan only revisits what still needs work).
		switch {
		case wb != nil:
			bp.mu.Unlock()
			<-wb
			bp.mu.Lock()
		case pinned:
			bp.unpinned.Wait()
		default:
			return nil
		}
	}
}

// DiscardFile drops every cached frame of the file without writing dirty
// pages back — the pool-side half of dropping a table and reclaiming its
// storage. In-flight eviction write-backs on the file are waited out first
// so no stale write can land after the caller truncates the file. The
// caller must guarantee the file is quiescent; a frame still pinned by a
// concurrent user is an error and leaves that frame (and the file's
// storage) untouched.
func (bp *BufferPool) DiscardFile(file int32) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for {
		var wb chan struct{}
		for _, f := range bp.frames {
			if f.id.File == file && f.wb != nil {
				wb = f.wb
				break
			}
		}
		if wb == nil {
			break
		}
		bp.mu.Unlock()
		<-wb
		bp.mu.Lock()
	}
	var victims []*frame
	for _, f := range bp.frames {
		if f.id.File != file {
			continue
		}
		if f.pins > 0 {
			return fmt.Errorf("storage: discard of file %d: page %s still pinned", file, f.id)
		}
		victims = append(victims, f)
	}
	for _, f := range victims {
		bp.evictFrameLocked(f)
	}
	return nil
}

// allocFrameLocked finds a free frame, evicting unpinned pages until a slot
// is free. The capacity check loops because a dirty eviction releases the
// pool lock during its disk write, and concurrent fetchers may refill the
// pool in that window. Safe only for ids no concurrent fetcher can install
// (Allocate's fresh page ids); Fetch re-checks its id itself.
func (bp *BufferPool) allocFrameLocked(id PageID) (*frame, error) {
	for len(bp.frames) >= bp.capacity {
		if err := bp.evictOneLocked(); err != nil {
			return nil, err
		}
	}
	return bp.installFrameLocked(id, false), nil
}

// installFrameLocked adds a fresh frame for id at the most-recent end of
// the point-read list, or of the scan list for scan-cursor fetches. Its
// data is a buffer of its own unless the pool borrows the disk's pages; a
// borrowing caller sets it once it has the page.
func (bp *BufferPool) installFrameLocked(id PageID, scan bool) *frame {
	f := &frame{id: id, onScan: scan}
	if bp.mem == nil {
		f.data = make([]byte, PageSize)
	}
	if scan {
		f.elem = bp.scanLRU.PushFront(f)
	} else {
		f.elem = bp.lru.PushFront(f)
	}
	bp.frames[id] = f
	return f
}

// victimLocked returns the least-recently-used unpinned frame of l, nil if
// every frame is pinned.
func victimLocked(l *list.List) *frame {
	for e := l.Back(); e != nil; e = e.Prev() {
		if f := e.Value.(*frame); f.pins == 0 {
			return f
		}
	}
	return nil
}

// evictOneLocked frees one frame. Scan-fetched frames are preferred victims
// (oldest first), so streaming scans recycle their own frames and the
// point-read working set survives them; only when no scan frame is
// evictable does the point list give up its least-recently-used page. Clean
// victims are dropped under the lock; a dirty victim is written back
// OUTSIDE the pool lock on a pin-protected frame, mirroring the read path:
// the guard pin keeps the frame (and its data buffer) alive and
// un-evictable during the write, so one slow write-back never serializes
// unrelated fetches. Called and returns with bp.mu held, but may release it
// during disk writes.
func (bp *BufferPool) evictOneLocked() error {
	for {
		victim := victimLocked(bp.scanLRU)
		if victim == nil {
			victim = victimLocked(bp.lru)
		}
		if victim == nil {
			// Every frame is pinned. If one of those pins is a write-back
			// guard, the frame frees up as soon as the write finishes —
			// wait for it and rescan rather than failing a transient.
			var wb chan struct{}
			for _, f := range bp.frames {
				if f.wb != nil {
					wb = f.wb
					break
				}
			}
			if wb == nil {
				return fmt.Errorf("storage: buffer pool exhausted (%d pages, all pinned)", bp.capacity)
			}
			bp.mu.Unlock()
			<-wb
			bp.mu.Lock()
			continue
		}
		if !victim.dirty {
			bp.evictFrameLocked(victim)
			return nil
		}
		victim.pins++ // guard pin: blocks eviction and data reuse
		victim.dirty = false
		victim.wb = make(chan struct{})
		// Snapshot the bytes under the lock: pins were 0 when the victim was
		// chosen, so no mutator is active and the image is consistent. The
		// slow disk write then works from the snapshot, because a client may
		// re-pin the frame and mutate its live bytes mid-write (that client
		// re-dirties the frame, so the newer bytes are written later). A
		// borrowed page needs no snapshot: its bytes are already the disk's,
		// and writing an older image over them would lose the client's.
		snap := victim.data
		if bp.mem == nil {
			snap = make([]byte, len(victim.data))
			copy(snap, victim.data)
		}
		bp.mu.Unlock()
		werr := bp.writeBack(victim.id, snap)
		bp.mu.Lock()
		close(victim.wb)
		victim.wb = nil
		victim.pins--
		if werr != nil {
			victim.dirty = true
			return werr
		}
		// The victim may have been re-pinned or re-dirtied while the lock
		// was released; evict only if it is still idle, clean and resident.
		if victim.pins == 0 && !victim.dirty {
			if cur, ok := bp.frames[victim.id]; ok && cur == victim {
				bp.evictFrameLocked(victim)
				return nil
			}
		}
		// Otherwise its pages are durably written anyway; pick another
		// victim (the recency lists may have changed while unlocked).
	}
}

// writeBack writes one frame's bytes to disk; for a borrowed page the bytes
// are there already and only the write is accounted.
func (bp *BufferPool) writeBack(id PageID, data []byte) error {
	if bp.mem != nil {
		bp.mem.lendWrite()
		return nil
	}
	return bp.disk.WritePage(id, data)
}

func (bp *BufferPool) evictFrameLocked(f *frame) {
	if f.onScan {
		bp.scanLRU.Remove(f.elem)
	} else {
		bp.lru.Remove(f.elem)
	}
	delete(bp.frames, f.id)
}

// Capacity returns the pool capacity in pages.
func (bp *BufferPool) Capacity() int { return bp.capacity }
