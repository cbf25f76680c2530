// Package disk implements the volume abstraction under the storage manager:
// a flat array of fixed-size 8K-byte pages addressed by PageID, with a free
// list and allocation of contiguous page runs (needed for multi-page
// objects). Two implementations are provided: a file-backed volume and an
// in-memory volume for tests and benchmarks.
//
// The volume knows nothing about transactions, logging, or page contents;
// those belong to the layers above (internal/wal, internal/esm).
package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
)

// PageSize is the unit of disk allocation and of client-server transfer,
// matching the paper's ESM configuration.
const PageSize = 8192

// PageID identifies a page within a volume. Page 0 is the volume header and
// is never handed out by allocation.
type PageID uint32

// InvalidPage is the zero PageID; it never refers to user data.
const InvalidPage PageID = 0

// Errors returned by volumes.
var (
	ErrPageOutOfRange = errors.New("disk: page id out of range")
	ErrBadPageSize    = errors.New("disk: buffer is not exactly one page")
	ErrClosed         = errors.New("disk: volume is closed")
	ErrCorruptHeader  = errors.New("disk: corrupt volume header")
)

// Volume is a flat collection of 8K pages with allocation.
type Volume interface {
	// ReadPage fills buf (which must be PageSize bytes) with page id.
	ReadPage(id PageID, buf []byte) error
	// WritePage stores buf (PageSize bytes) as page id.
	WritePage(id PageID, buf []byte) error
	// Allocate reserves n contiguous pages and returns the first PageID.
	Allocate(n int) (PageID, error)
	// Free returns a previously allocated run to the volume.
	Free(id PageID, n int) error
	// NumPages reports the current size of the volume in pages,
	// including the header page.
	NumPages() uint32
	// AllocatedPages reports the number of currently allocated data pages.
	AllocatedPages() uint32
	// Grow extends the volume to at least n pages and reserves them from
	// future allocation. Restart recovery uses it when the log's redo
	// records reference pages a crash left beyond the volume header's
	// (possibly stale) page count.
	Grow(n uint32) error
	// Sync forces the volume to stable storage.
	Sync() error
	// Close releases resources. The volume must not be used afterwards.
	Close() error
}

// header page layout (page 0):
//
//	[0:8)   magic "QSVOLUME"
//	[8:12)  numPages
//	[12:16) allocated data pages
//	[16:20) next never-used page id (bump allocator)
//	[20:24) free-list head (0 = empty)
//
// Freed single pages are chained through the first 4 bytes of each free
// page. Freed runs longer than one page are chained page by page.
const (
	hdrMagic     = "QSVOLUME"
	hdrNumPages  = 8
	hdrAllocated = 12
	hdrNextFresh = 16
	hdrFreeHead  = 20
)

// volumeCore holds the allocation state shared by both implementations.
// The embedding implementation supplies raw page I/O.
type volumeCore struct {
	mu        sync.Mutex
	numPages  uint32
	allocated uint32
	nextFresh uint32
	freeHead  PageID
	closed    bool
}

func (c *volumeCore) loadHeader(buf []byte) error {
	if string(buf[:8]) != hdrMagic {
		return ErrCorruptHeader
	}
	c.numPages = binary.LittleEndian.Uint32(buf[hdrNumPages:])
	c.allocated = binary.LittleEndian.Uint32(buf[hdrAllocated:])
	c.nextFresh = binary.LittleEndian.Uint32(buf[hdrNextFresh:])
	c.freeHead = PageID(binary.LittleEndian.Uint32(buf[hdrFreeHead:]))
	return nil
}

func (c *volumeCore) storeHeader(buf []byte) {
	copy(buf[:8], hdrMagic)
	binary.LittleEndian.PutUint32(buf[hdrNumPages:], c.numPages)
	binary.LittleEndian.PutUint32(buf[hdrAllocated:], c.allocated)
	binary.LittleEndian.PutUint32(buf[hdrNextFresh:], c.nextFresh)
	binary.LittleEndian.PutUint32(buf[hdrFreeHead:], uint32(c.freeHead))
}

// MemVolume is an in-memory Volume used by tests and the benchmark harness;
// simulated I/O costs are charged by the server layer, not here.
type MemVolume struct {
	volumeCore
	pages [][]byte // index by PageID; pages[0] is the header
}

// NewMemVolume creates an empty in-memory volume.
func NewMemVolume() *MemVolume {
	v := &MemVolume{}
	v.numPages = 1
	v.nextFresh = 1
	v.pages = make([][]byte, 1, 64)
	v.pages[0] = make([]byte, PageSize)
	v.storeHeader(v.pages[0])
	return v
}

// ReadPage implements Volume.
func (v *MemVolume) ReadPage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrBadPageSize
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return ErrClosed
	}
	if uint32(id) >= v.numPages {
		return fmt.Errorf("%w: %d >= %d", ErrPageOutOfRange, id, v.numPages)
	}
	if v.pages[id] == nil {
		for i := range buf {
			buf[i] = 0
		}
		return nil
	}
	copy(buf, v.pages[id])
	return nil
}

// WritePage implements Volume.
func (v *MemVolume) WritePage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrBadPageSize
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return ErrClosed
	}
	if uint32(id) >= v.numPages {
		return fmt.Errorf("%w: %d >= %d", ErrPageOutOfRange, id, v.numPages)
	}
	if v.pages[id] == nil {
		v.pages[id] = make([]byte, PageSize)
	}
	copy(v.pages[id], buf)
	return nil
}

// Allocate implements Volume.
func (v *MemVolume) Allocate(n int) (PageID, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return InvalidPage, ErrClosed
	}
	return v.allocate(n, func(pid PageID) ([]byte, error) {
		if v.pages[pid] == nil {
			v.pages[pid] = make([]byte, PageSize)
		}
		return v.pages[pid], nil
	}, func(PageID, []byte) error { return nil }, func(newTotal uint32) error {
		for uint32(len(v.pages)) < newTotal {
			v.pages = append(v.pages, nil)
		}
		return nil
	})
}

// Free implements Volume.
func (v *MemVolume) Free(id PageID, n int) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return ErrClosed
	}
	return v.free(id, n, func(pid PageID) ([]byte, error) {
		if v.pages[pid] == nil {
			v.pages[pid] = make([]byte, PageSize)
		}
		return v.pages[pid], nil
	}, func(PageID, []byte) error { return nil })
}

// NumPages implements Volume.
func (v *MemVolume) NumPages() uint32 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.numPages
}

// AllocatedPages implements Volume.
func (v *MemVolume) AllocatedPages() uint32 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.allocated
}

// Grow implements Volume.
func (v *MemVolume) Grow(n uint32) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return ErrClosed
	}
	v.growLocked(n)
	for uint32(len(v.pages)) < v.numPages {
		v.pages = append(v.pages, nil)
	}
	return nil
}

// Sync implements Volume (a no-op in memory).
func (v *MemVolume) Sync() error { return nil }

// Close implements Volume.
func (v *MemVolume) Close() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.closed = true
	v.pages = nil
	return nil
}

// allocate implements run allocation shared by both volumes. Runs of n > 1
// are always carved from fresh space (contiguity); single pages prefer the
// free list. fetch returns a writable view of a page, flush persists it,
// grow extends the underlying store to newTotal pages. The run's bounds
// are checked in 64-bit arithmetic: n may come from the wire, and a run past
// the last 32-bit page id would wrap the bump pointer onto pages already
// handed out. A refused run changes nothing.
func (c *volumeCore) allocate(n int, fetch func(PageID) ([]byte, error), flush func(PageID, []byte) error, grow func(uint32) error) (PageID, error) {
	if n <= 0 {
		return InvalidPage, fmt.Errorf("disk: allocate %d pages", n)
	}
	if n == 1 && c.freeHead != InvalidPage {
		pid := c.freeHead
		buf, err := fetch(pid)
		if err != nil {
			return InvalidPage, err
		}
		c.freeHead = PageID(binary.LittleEndian.Uint32(buf[:4]))
		binary.LittleEndian.PutUint32(buf[:4], 0)
		if err := flush(pid, buf); err != nil {
			return InvalidPage, err
		}
		c.allocated++
		return pid, nil
	}
	first := PageID(c.nextFresh)
	if uint64(c.nextFresh)+uint64(n) > math.MaxUint32 {
		return InvalidPage, fmt.Errorf("disk: allocate %d pages at page %d: past the last page id", n, first)
	}
	newTotal := c.nextFresh + uint32(n)
	if err := grow(newTotal); err != nil {
		return InvalidPage, err
	}
	c.nextFresh = newTotal
	if newTotal > c.numPages {
		c.numPages = newTotal
	}
	c.allocated += uint32(n)
	return first, nil
}

// growLocked reserves every page id below n: the volume covers them and
// the bump allocator will never hand them out again. Pages brought into
// existence this way are counted allocated — recovery only grows over
// pages some crashed-but-logged transaction was using.
func (c *volumeCore) growLocked(n uint32) {
	if n > c.numPages {
		c.numPages = n
	}
	if n > c.nextFresh {
		c.allocated += n - c.nextFresh
		c.nextFresh = n
	}
}

// free chains the run of n pages at id onto the free list. The run must lie
// inside the volume and leave out the header page, checked in 64-bit
// arithmetic like allocate's; a refused run changes nothing.
func (c *volumeCore) free(id PageID, n int, fetch func(PageID) ([]byte, error), flush func(PageID, []byte) error) error {
	if n <= 0 || id == InvalidPage || uint64(id)+uint64(n) > uint64(c.numPages) {
		return fmt.Errorf("%w: free [%d,%d)", ErrPageOutOfRange, id, uint64(id)+uint64(n))
	}
	for i := n - 1; i >= 0; i-- {
		pid := id + PageID(i)
		buf, err := fetch(pid)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(buf[:4], uint32(c.freeHead))
		if err := flush(pid, buf); err != nil {
			return err
		}
		c.freeHead = pid
	}
	c.allocated -= uint32(n)
	return nil
}

// FileVolume is an os.File-backed Volume. The header page is rewritten on
// Sync and Close.
type FileVolume struct {
	volumeCore
	f *os.File
}

// CreateFileVolume creates (truncating) a new volume at path.
func CreateFileVolume(path string) (*FileVolume, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	v := &FileVolume{f: f}
	v.numPages = 1
	v.nextFresh = 1
	hdr := make([]byte, PageSize)
	v.storeHeader(hdr)
	if _, err := f.WriteAt(hdr, 0); err != nil {
		f.Close()
		return nil, err
	}
	return v, nil
}

// OpenFileVolume opens an existing volume at path.
//
// The header page is only rewritten at Sync and Close, so a crash can
// leave it stale: pages written after the last sync lie beyond the
// header's page count. Reopening repairs the geometry from the file size
// — those pages exist and must never be handed out by the allocator again
// — and drops the free-list head, which may chain through pages that were
// reallocated after the header was last written (a leak, never a double
// allocation). Restart recovery then decides the pages' contents.
func OpenFileVolume(path string) (*FileVolume, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	v := &FileVolume{f: f}
	hdr := make([]byte, PageSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		return nil, err
	}
	if err := v.loadHeader(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if st, err := f.Stat(); err == nil {
		filePages := uint32((st.Size() + PageSize - 1) / PageSize)
		if filePages > v.numPages {
			v.growLocked(filePages)
			v.freeHead = InvalidPage
		}
	}
	return v, nil
}

// ReadPage implements Volume.
func (v *FileVolume) ReadPage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrBadPageSize
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return ErrClosed
	}
	if uint32(id) >= v.numPages {
		return fmt.Errorf("%w: %d >= %d", ErrPageOutOfRange, id, v.numPages)
	}
	n, err := v.f.ReadAt(buf, int64(id)*PageSize)
	if err != nil && n != PageSize {
		// Pages past EOF but inside numPages read as zero: the file is
		// extended lazily.
		for i := n; i < PageSize; i++ {
			buf[i] = 0
		}
	}
	return nil
}

// WritePage implements Volume.
func (v *FileVolume) WritePage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrBadPageSize
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return ErrClosed
	}
	if uint32(id) >= v.numPages {
		return fmt.Errorf("%w: %d >= %d", ErrPageOutOfRange, id, v.numPages)
	}
	_, err := v.f.WriteAt(buf, int64(id)*PageSize)
	return err
}

// Allocate implements Volume.
func (v *FileVolume) Allocate(n int) (PageID, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return InvalidPage, ErrClosed
	}
	scratch := make([]byte, PageSize)
	return v.allocate(n,
		func(pid PageID) ([]byte, error) {
			err := v.readLocked(pid, scratch)
			return scratch, err
		},
		func(pid PageID, buf []byte) error {
			_, err := v.f.WriteAt(buf, int64(pid)*PageSize)
			return err
		},
		func(uint32) error { return nil }, // file grows lazily on write
	)
}

func (v *FileVolume) readLocked(id PageID, buf []byte) error {
	n, err := v.f.ReadAt(buf, int64(id)*PageSize)
	if err != nil && n != PageSize {
		for i := n; i < PageSize; i++ {
			buf[i] = 0
		}
	}
	return nil
}

// Free implements Volume.
func (v *FileVolume) Free(id PageID, n int) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return ErrClosed
	}
	scratch := make([]byte, PageSize)
	return v.free(id, n,
		func(pid PageID) ([]byte, error) {
			err := v.readLocked(pid, scratch)
			return scratch, err
		},
		func(pid PageID, buf []byte) error {
			_, err := v.f.WriteAt(buf, int64(pid)*PageSize)
			return err
		},
	)
}

// NumPages implements Volume.
func (v *FileVolume) NumPages() uint32 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.numPages
}

// AllocatedPages implements Volume.
func (v *FileVolume) AllocatedPages() uint32 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.allocated
}

// Grow implements Volume (the file itself grows lazily on write).
func (v *FileVolume) Grow(n uint32) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return ErrClosed
	}
	v.growLocked(n)
	return nil
}

// Sync implements Volume, persisting the header and fsyncing the file.
func (v *FileVolume) Sync() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return ErrClosed
	}
	hdr := make([]byte, PageSize)
	v.storeHeader(hdr)
	if _, err := v.f.WriteAt(hdr, 0); err != nil {
		return err
	}
	return v.f.Sync()
}

// Abandon closes the backing file without rewriting the header, modeling
// a process that died: the header keeps whatever the last Sync wrote,
// stale geometry included. Crash drills use it to release the descriptor
// before reopening the volume the way restart would find it.
func (v *FileVolume) Abandon() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return nil
	}
	v.closed = true
	return v.f.Close()
}

// Close implements Volume.
func (v *FileVolume) Close() error {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return nil
	}
	hdr := make([]byte, PageSize)
	v.storeHeader(hdr)
	_, werr := v.f.WriteAt(hdr, 0)
	v.closed = true
	v.mu.Unlock()
	cerr := v.f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}
