package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// FileDisk is a file-backed Disk: each file id maps to one segment file
// (seg_<id>) of page-aligned 8 KB pages, read and written in place. It is
// scratch space that lets the database spill beyond RAM, not a durable
// store: a FileDisk starts empty, so no later process reads what it wrote.
// Like MemDisk, TruncateFile keeps the segment's storage as free capacity —
// the live-page count drops to zero while the file keeps its
// high-water-mark size — and AllocatePage reuses that capacity before
// growing the file.
type FileDisk struct {
	dir string

	mu   sync.Mutex
	segs map[int32]*segment

	reads  atomic.Int64
	writes atomic.Int64
}

type segment struct {
	f    *os.File
	live int32 // pages visible to callers
	cap  int32 // pages physically present (>= live; the tail is the free list)
}

const segPrefix = "seg_"

// OpenFileDisk opens an empty page store rooted at dir, creating dir if
// needed. Segment files and the meta file a previous process left behind
// are removed: their pages belong to a database that no longer exists.
func OpenFileDisk(dir string) (*FileDisk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, ent := range ents {
		if name := ent.Name(); strings.HasPrefix(name, segPrefix) || name == "meta" || name == "meta.tmp" {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, err
			}
		}
	}
	return &FileDisk{dir: dir, segs: make(map[int32]*segment)}, nil
}

// ReadPage implements Disk.
func (d *FileDisk) ReadPage(id PageID, buf []byte) error {
	d.reads.Add(1)
	d.mu.Lock()
	s, ok := d.segs[id.File]
	if !ok || id.Num >= s.live {
		d.mu.Unlock()
		return fmt.Errorf("storage: read of unallocated page %s", id)
	}
	f := s.f
	d.mu.Unlock()
	_, err := f.ReadAt(buf[:PageSize], int64(id.Num)*PageSize)
	return err
}

// WritePage implements Disk.
func (d *FileDisk) WritePage(id PageID, buf []byte) error {
	d.writes.Add(1)
	d.mu.Lock()
	s, ok := d.segs[id.File]
	if !ok || id.Num >= s.live {
		d.mu.Unlock()
		return fmt.Errorf("storage: write of unallocated page %s", id)
	}
	f := s.f
	d.mu.Unlock()
	_, err := f.WriteAt(buf[:PageSize], int64(id.Num)*PageSize)
	return err
}

// AllocatePage implements Disk: freed capacity (pages between live and cap)
// is re-zeroed and reused before the segment file grows.
func (d *FileDisk) AllocatePage(file int32) (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.segs[file]
	if !ok {
		f, err := os.OpenFile(filepath.Join(d.dir, segPrefix+strconv.Itoa(int(file))), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return PageID{}, err
		}
		s = &segment{f: f}
		d.segs[file] = s
	}
	id := PageID{File: file, Num: s.live}
	if s.live < s.cap {
		// Reused capacity may hold stale bytes; hand out a zeroed page.
		if _, err := s.f.WriteAt(zeroPage[:], int64(id.Num)*PageSize); err != nil {
			return PageID{}, err
		}
	} else {
		if err := s.f.Truncate(int64(s.cap+1) * PageSize); err != nil {
			return PageID{}, err
		}
		s.cap++
	}
	s.live++
	return id, nil
}

var zeroPage [PageSize]byte

// NumPages implements Disk.
func (d *FileDisk) NumPages(file int32) int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s, ok := d.segs[file]; ok {
		return s.live
	}
	return 0
}

// TruncateFile implements Disk.
func (d *FileDisk) TruncateFile(file int32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s, ok := d.segs[file]; ok {
		s.live = 0
	}
}

// Stats implements Disk.
func (d *FileDisk) Stats() DiskStats {
	return DiskStats{Reads: d.reads.Load(), Writes: d.writes.Load()}
}

// Close releases the segment file handles.
func (d *FileDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range d.segs {
		if s.f != nil {
			s.f.Close()
			s.f = nil
		}
	}
	return nil
}
