package esm

import (
	"encoding/binary"
	"fmt"

	"quickstore/internal/disk"
	"quickstore/internal/page"
)

// This file is the storage manager's object layer: untyped variable-size
// objects on slotted pages, clustering hints, and multi-page (large)
// objects. Both QuickStore and the E baseline create and read objects
// through these calls; how pointers inside the objects are represented and
// dereferenced is entirely up to them.

// Cluster is a placement cursor: consecutive CreateObject calls on the same
// cluster land on the same page until it fills, reproducing the paper's
// clustering of each composite part with its atomic parts and connections.
type Cluster struct {
	file uint32
	pid  disk.PageID // current placement page (0 = none yet)
	last disk.PageID // last page of the file chain segment built here
}

// NewCluster starts a placement cursor for file.
func (c *Client) NewCluster(file uint32) *Cluster {
	return &Cluster{file: file}
}

// ResumeCluster builds a cursor positioned on an existing page of file, so
// the next CreateObject lands there if it fits. QuickStore uses this to
// place large-object descriptors on its own formatted pages.
func ResumeCluster(file uint32, pid disk.PageID) *Cluster {
	return &Cluster{file: file, pid: pid, last: pid}
}

// BreakCluster forces the next CreateObject to start a fresh page
// (the generator calls this between composite parts).
func (cl *Cluster) BreakCluster() { cl.pid = 0 }

// CurrentPage returns the cluster's current placement page (0 if none).
func (cl *Cluster) CurrentPage() disk.PageID { return cl.pid }

// CreateObject allocates a size-byte object in the cluster's file, placing
// it on the cluster's current page when it fits. It returns the OID and the
// in-place bytes of the new object (zeroed). The page is marked dirty; the
// caller logs its own updates (QuickStore by diffing, E by object images).
func (c *Client) CreateObject(cl *Cluster, size int) (OID, []byte, error) {
	if c.tx == 0 {
		return NilOID, nil, ErrNoTx
	}
	if size <= 0 || size > page.MaxObjectSize {
		return NilOID, nil, fmt.Errorf("esm: object size %d out of range (max %d)", size, page.MaxObjectSize)
	}
	for attempt := 0; attempt < 2; attempt++ {
		if cl.pid == disk.InvalidPage {
			if err := c.newClusterPage(cl); err != nil {
				return NilOID, nil, err
			}
		}
		idx, err := c.FetchPage(cl.pid)
		if err != nil {
			return NilOID, nil, err
		}
		p := page.MustWrap(c.PageData(idx))
		// A stale cursor can point at a page that no longer holds a
		// slotted image (its creating transaction aborted, so the server
		// returns a zero page). Never place objects there.
		if p.Type() != page.TypeSlotted || p.FreeSpace() < size {
			cl.pid = disk.InvalidPage // full or invalid; retry on a fresh page
			continue
		}
		before := c.structBefore(idx)
		slot, _, err := p.Insert(size)
		if err != nil {
			return NilOID, nil, err
		}
		c.dirtyStruct(cl.pid, before, idx)
		u, err := c.nextUnique()
		if err != nil {
			return NilOID, nil, err
		}
		oid := OID{Page: cl.pid, Slot: uint16(slot), Unique: u, File: cl.file}
		data, err := p.Object(slot)
		if err != nil {
			return NilOID, nil, err
		}
		return oid, data, nil
	}
	return NilOID, nil, fmt.Errorf("esm: object of %d bytes does not fit on an empty page", size)
}

// newClusterPage allocates and formats a fresh slotted page for the cluster
// and links it into the file chain.
func (c *Client) newClusterPage(cl *Cluster) error {
	pid, err := c.AllocPages(1)
	if err != nil {
		return err
	}
	idx, err := c.pool.Put(pid, func([]byte) error { return nil })
	if err != nil {
		return err
	}
	// Initialize unconditionally: a recycled page id may still be resident,
	// in which case Put skips its loader.
	p := page.Init(c.PageData(idx), page.TypeSlotted)
	p.SetFileID(cl.file)
	// Plain MarkDirty: the record below describes the page against zeroes,
	// and the server's copy of a recycled page id is not zero, so this
	// frame ships whole with the transaction that formats it.
	c.pool.MarkDirty(idx)
	if c.LogStructure {
		// Diff against an all-zero page, not the prior frame bytes: a
		// redo-only replica materializes this page from zeros, and Init
		// just zeroed everything the header doesn't cover.
		c.logStructDiff(pid, make([]byte, disk.PageSize), idx)
	}
	if cl.last != disk.InvalidPage {
		lidx, err := c.FetchPage(cl.last)
		if err != nil {
			return err
		}
		before := c.structBefore(lidx)
		lp := page.MustWrap(c.PageData(lidx))
		lp.SetNextPage(uint32(pid))
		c.dirtyStruct(cl.last, before, lidx)
	}
	cl.pid = pid
	cl.last = pid
	return nil
}

// ReadObject fetches the page holding oid and returns the object's in-place
// bytes plus the frame index (so callers may Pin it across further fetches).
func (c *Client) ReadObject(oid OID) ([]byte, int, error) {
	if oid.IsNil() {
		return nil, 0, fmt.Errorf("esm: read of nil OID")
	}
	if oid.IsLarge() {
		return nil, 0, fmt.Errorf("esm: %v is a large object; use the Large API", oid)
	}
	idx, err := c.FetchPage(oid.Page)
	if err != nil {
		return nil, 0, err
	}
	p := page.MustWrap(c.PageData(idx))
	data, err := p.Object(int(oid.Slot))
	if err != nil {
		return nil, 0, fmt.Errorf("esm: %v: %w", oid, err)
	}
	return data, idx, nil
}

// ReadObjectAt is ReadObject plus the object's byte offset within its page,
// which callers need to emit physical log records for in-place updates.
func (c *Client) ReadObjectAt(oid OID) (data []byte, pageOff int, frame int, err error) {
	if oid.IsNil() || oid.IsLarge() {
		return nil, 0, 0, fmt.Errorf("esm: ReadObjectAt(%v)", oid)
	}
	idx, err := c.FetchPage(oid.Page)
	if err != nil {
		return nil, 0, 0, err
	}
	p := page.MustWrap(c.PageData(idx))
	data, err = p.Object(int(oid.Slot))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("esm: %v: %w", oid, err)
	}
	off, _, err := p.SlotBounds(int(oid.Slot))
	if err != nil {
		return nil, 0, 0, err
	}
	return data, off, idx, nil
}

// DeleteObject marks the object's slot dead. Space is not reclaimed, and
// outstanding references dangle, exactly as the paper discusses for
// QuickStore's unchecked pointers.
func (c *Client) DeleteObject(oid OID) error {
	if oid.IsLarge() {
		return c.deleteLarge(oid)
	}
	idx, err := c.FetchPage(oid.Page)
	if err != nil {
		return err
	}
	p := page.MustWrap(c.PageData(idx))
	before := c.structBefore(idx)
	if err := p.Delete(int(oid.Slot)); err != nil {
		return err
	}
	c.dirtyStruct(oid.Page, before, idx)
	return nil
}

// --- Large (multi-page) objects -------------------------------------------

// largeDescSize is the size of a large-object descriptor: first data page,
// number of data pages, byte size, and the first trailing meta page
// (QuickStore appends one meta region per large object; zero when unused).
const largeDescSize = 4 + 4 + 8 + 4 + 4

// LargeInfo describes a multi-page object.
type LargeInfo struct {
	First     disk.PageID // first data page of the contiguous run
	Pages     uint32      // number of data pages
	Size      uint64      // logical byte size
	MetaFirst disk.PageID // first trailing meta page (0 when none)
	MetaPages uint32
}

// CreateLarge allocates a multi-page object of size bytes as a contiguous
// run of raw data pages, plus metaPages extra trailing pages for the
// caller's per-page metadata (QuickStore's appended meta-objects). The
// descriptor is a small object placed via cl; the returned OID has
// Slot == SlotLarge and refers to the descriptor through Unique/Page of the
// descriptor's small OID encoded in the descriptor map.
func (c *Client) CreateLarge(cl *Cluster, size uint64, metaPages int) (OID, LargeInfo, error) {
	if size == 0 {
		return NilOID, LargeInfo{}, fmt.Errorf("esm: zero-size large object")
	}
	npages := uint32((size + disk.PageSize - 1) / disk.PageSize)
	run, err := c.AllocPages(int(npages) + metaPages)
	if err != nil {
		return NilOID, LargeInfo{}, err
	}
	// Format the data pages as raw TypeLarge pages (whole-page payload; the
	// type byte lives at offset 8 only on header-bearing pages, so raw
	// pages are tracked by the descriptor alone).
	info := LargeInfo{First: run, Pages: npages, Size: size}
	c.MarkRawPages(run, npages)
	if metaPages > 0 {
		info.MetaFirst = run + disk.PageID(npages)
		info.MetaPages = uint32(metaPages)
		for i := 0; i < metaPages; i++ {
			pid := info.MetaFirst + disk.PageID(i)
			idx, err := c.pool.Put(pid, func([]byte) error { return nil })
			if err != nil {
				return NilOID, LargeInfo{}, err
			}
			page.Init(c.PageData(idx), page.TypeLarge)
			c.pool.MarkDirty(idx)
		}
	}
	descOID, desc, err := c.CreateObject(cl, largeDescSize)
	if err != nil {
		return NilOID, LargeInfo{}, err
	}
	binary.LittleEndian.PutUint32(desc[0:], uint32(info.First))
	binary.LittleEndian.PutUint32(desc[4:], info.Pages)
	binary.LittleEndian.PutUint64(desc[8:], info.Size)
	binary.LittleEndian.PutUint32(desc[16:], uint32(info.MetaFirst))
	binary.LittleEndian.PutUint32(desc[20:], info.MetaPages)
	// The descriptor's fields are written after CreateObject logged the
	// slot: no record of this layer covers them, so the page ships whole.
	if err := c.MarkDirty(descOID.Page); err != nil {
		return NilOID, LargeInfo{}, err
	}
	large := OID{Page: descOID.Page, Slot: SlotLarge, Unique: descOID.Slot, File: descOID.File}
	return large, info, nil
}

// descOID recovers the descriptor's small-object OID from a large OID:
// the descriptor's slot travels in the large OID's Unique field.
func descOID(large OID) OID {
	return OID{Page: large.Page, Slot: large.Unique, File: large.File}
}

// LargeInfoOf reads the descriptor of a large object and registers its data
// pages as raw (headerless) so they are never LSN-stamped.
func (c *Client) LargeInfoOf(large OID) (LargeInfo, error) {
	if !large.IsLarge() {
		return LargeInfo{}, fmt.Errorf("esm: %v is not a large object", large)
	}
	desc, _, err := c.ReadObject(descOID(large))
	if err != nil {
		return LargeInfo{}, err
	}
	info := LargeInfo{
		First:     disk.PageID(binary.LittleEndian.Uint32(desc[0:])),
		Pages:     binary.LittleEndian.Uint32(desc[4:]),
		Size:      binary.LittleEndian.Uint64(desc[8:]),
		MetaFirst: disk.PageID(binary.LittleEndian.Uint32(desc[16:])),
		MetaPages: binary.LittleEndian.Uint32(desc[20:]),
	}
	c.MarkRawPages(info.First, info.Pages)
	return info, nil
}

// LargeReadAt copies len(buf) bytes from offset off of the large object,
// faulting its data pages through the client pool.
func (c *Client) LargeReadAt(large OID, buf []byte, off uint64) error {
	info, err := c.LargeInfoOf(large)
	if err != nil {
		return err
	}
	if off+uint64(len(buf)) > info.Size {
		return fmt.Errorf("esm: large read [%d,%d) past size %d", off, off+uint64(len(buf)), info.Size)
	}
	for n := 0; n < len(buf); {
		pageNo := (off + uint64(n)) / disk.PageSize
		pageOff := int((off + uint64(n)) % disk.PageSize)
		idx, err := c.FetchPage(info.First + disk.PageID(pageNo))
		if err != nil {
			return err
		}
		n += copy(buf[n:], c.PageData(idx)[pageOff:])
	}
	return nil
}

// LargeWriteAt copies buf into the large object at offset off and marks the
// touched pages dirty. Nothing is logged: raw data pages carry no header for
// LSN-based redo, so they ship whole (steal, commit, prepare).
func (c *Client) LargeWriteAt(large OID, buf []byte, off uint64) error {
	info, err := c.LargeInfoOf(large)
	if err != nil {
		return err
	}
	if off+uint64(len(buf)) > info.Size {
		return fmt.Errorf("esm: large write [%d,%d) past size %d", off, off+uint64(len(buf)), info.Size)
	}
	for n := 0; n < len(buf); {
		pageNo := (off + uint64(n)) / disk.PageSize
		pageOff := int((off + uint64(n)) % disk.PageSize)
		pid := info.First + disk.PageID(pageNo)
		idx, err := c.FetchPage(pid)
		if err != nil {
			return err
		}
		dst := c.PageData(idx)[pageOff:]
		m := copy(dst, buf[n:])
		c.pool.MarkDirty(idx)
		n += m
	}
	return nil
}

// deleteLarge frees a large object's pages and its descriptor.
func (c *Client) deleteLarge(large OID) error {
	info, err := c.LargeInfoOf(large)
	if err != nil {
		return err
	}
	total := int(info.Pages + info.MetaPages)
	if err := c.FreePages(info.First, total); err != nil {
		return err
	}
	d := descOID(large)
	idx, err := c.FetchPage(d.Page)
	if err != nil {
		return err
	}
	p := page.MustWrap(c.PageData(idx))
	before := c.structBefore(idx)
	if err := p.Delete(int(d.Slot)); err != nil {
		return err
	}
	c.dirtyStruct(d.Page, before, idx)
	return nil
}
