// Package storage implements the bottom of the relational engine: fixed-size
// slotted pages, a disk abstraction with I/O accounting and optional latency
// injection (used to reproduce the paper's in-RDBMS search measurements), a
// pinning LRU buffer pool, and heap files.
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// PageSize is the fixed page size in bytes (PostgreSQL's default, 8 KB).
const PageSize = 8192

// PageID identifies a page as (file, page-number). Each table and index gets
// its own file id.
type PageID struct {
	File int32
	Num  int32
}

func (p PageID) String() string { return fmt.Sprintf("%d:%d", p.File, p.Num) }

// Disk is the page store under the buffer pool: MemDisk keeps pages in
// memory, FileDisk spills them to scratch segment files. Neither is
// durable. Implementations must be safe for concurrent use.
type Disk interface {
	// ReadPage copies the page into buf (len PageSize).
	ReadPage(id PageID, buf []byte) error
	// WritePage stores the page from buf (len PageSize).
	WritePage(id PageID, buf []byte) error
	// AllocatePage appends a zeroed page to the file and returns its id.
	AllocatePage(file int32) (PageID, error)
	// NumPages reports the number of pages in the file.
	NumPages(file int32) int32
	// TruncateFile releases every page of the file, returning its storage
	// to a free list: subsequent AllocatePage calls on the same file id
	// reuse the freed capacity before claiming new storage. Callers must
	// ensure no page of the file is still cached or in use.
	TruncateFile(file int32)
	// Stats returns cumulative I/O counters.
	Stats() DiskStats
}

// DiskStats counts physical page I/O.
type DiskStats struct {
	Reads  int64
	Writes int64
}

// MemDisk is an in-memory Disk. A per-access latency can be injected to
// model the cost of real disk I/O (the paper's Tuffy-mm experiments hinge on
// per-access RDBMS overhead; see Appendix C.1).
type MemDisk struct {
	mu      sync.RWMutex
	files   map[int32][][]byte
	reads   atomic.Int64
	writes  atomic.Int64
	latency time.Duration
}

// NewMemDisk returns an empty in-memory disk.
func NewMemDisk() *MemDisk {
	return &MemDisk{files: make(map[int32][][]byte)}
}

// SetLatency injects a synthetic delay charged on every page read and write.
func (d *MemDisk) SetLatency(l time.Duration) { d.latency = l }

// Latency returns the injected per-access delay.
func (d *MemDisk) Latency() time.Duration { return d.latency }

func (d *MemDisk) charge() {
	if d.latency > 0 {
		time.Sleep(d.latency)
	}
}

// ReadPage implements Disk.
func (d *MemDisk) ReadPage(id PageID, buf []byte) error {
	d.charge()
	d.reads.Add(1)
	d.mu.RLock()
	defer d.mu.RUnlock()
	pages, ok := d.files[id.File]
	if !ok || int(id.Num) >= len(pages) {
		return fmt.Errorf("storage: read of unallocated page %s", id)
	}
	copy(buf, pages[id.Num])
	return nil
}

// WritePage implements Disk.
func (d *MemDisk) WritePage(id PageID, buf []byte) error {
	d.charge()
	d.writes.Add(1)
	d.mu.Lock()
	defer d.mu.Unlock()
	pages, ok := d.files[id.File]
	if !ok || int(id.Num) >= len(pages) {
		return fmt.Errorf("storage: write of unallocated page %s", id)
	}
	copy(pages[id.Num], buf)
	return nil
}

// AllocatePage implements Disk. Capacity freed by TruncateFile is reused
// (the page buffer is re-zeroed) before new storage is claimed, so a
// truncate/allocate cycle holds the file at its high-water mark instead of
// growing it.
func (d *MemDisk) AllocatePage(file int32) (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pages := d.files[file]
	id := PageID{File: file, Num: int32(len(pages))}
	if cap(pages) > len(pages) {
		pages = pages[:len(pages)+1]
		if pages[id.Num] == nil {
			pages[id.Num] = make([]byte, PageSize)
		} else {
			clear(pages[id.Num])
		}
	} else {
		pages = append(pages, make([]byte, PageSize))
	}
	d.files[file] = pages
	return id, nil
}

// NumPages implements Disk.
func (d *MemDisk) NumPages(file int32) int32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int32(len(d.files[file]))
}

// TruncateFile implements Disk: the file's page slice is cut to zero length
// but its buffers are kept as free capacity for reuse by AllocatePage.
func (d *MemDisk) TruncateFile(file int32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if pages, ok := d.files[file]; ok {
		d.files[file] = pages[:0]
	}
}

// PageFootprint returns the total number of page buffers the disk holds,
// including truncated files' free-listed capacity — the quantity that must
// stay flat when repeated queries create and drop helper tables.
func (d *MemDisk) PageFootprint() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var total int64
	for _, pages := range d.files {
		total += int64(cap(pages))
	}
	return total
}

// Stats implements Disk.
func (d *MemDisk) Stats() DiskStats {
	return DiskStats{Reads: d.reads.Load(), Writes: d.writes.Load()}
}

// ResetStats zeroes the I/O counters (between experiment phases).
func (d *MemDisk) ResetStats() {
	d.reads.Store(0)
	d.writes.Store(0)
}
