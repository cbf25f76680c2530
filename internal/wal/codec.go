package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// This file is the log's physical format: the one encoder and the one
// decoder for a record, the update body in its two forms (the log's, and the
// wire form a client ships in a commit payload), and the file header.
//
// A record, byte by byte (uvarints are minimal-length, as
// binary.AppendUvarint writes them):
//
//	kind    1 byte    RecType in the low 7 bits; kindBody set when a body follows
//	tx      uvarint   transaction id
//	back    uvarint   LSN - PrevLSN, the distance back to the transaction's
//	                  previous record; 0 when there is none
//	body              present only with kindBody (update body, below)
//	crc     4 bytes   CRC32 (IEEE) of the record's LSN as 8 little-endian
//	                  bytes followed by every byte above
//
// The update body: one or more byte ranges (regions) of one page, disjoint
// and in ascending offset order.
//
//	page    uvarint   page id
//	off     uvarint   byte offset of the first region (fits Record.Off)
//	list    1 byte    lenList, present only when more regions follow the first
//	len     uvarint   len(New)<<1 | hasOld
//	old     len bytes before-image, present only with hasOld (log form only)
//	new     len bytes after-image
//	tail    uvarint   byte length of the regions that follow; only with list
//	then, tail bytes of:
//	gap     uvarint   bytes between the previous region's end and this one
//	len, old, new     as above
//
// The body has two forms, one codec. The log form, which a record holds,
// carries every old field. The wire form, one record of a commit payload's
// log batch (WireUpdate), leaves every old field out: hasOld keeps its
// meaning, "this region has an undo", and tells the page server to take the
// region's before-image from its own page, which it writes into the log
// form as it appends the record (Log.AppendFilled). A wire body is the log
// body less its before-images, and its tail counts wire bytes.
//
// lenList is the one value a len field cannot hold (a before-image of no
// bytes), so a one-region body pays nothing for the list it does not have: it
// is byte for byte what it was when a record held one region. A gap, not an
// offset, is stored, so regions that overlap or run backwards cannot be
// written down, and redo and undo may apply a record's regions in any order.
// The record is the unit of both: one checksum covers every region, so a torn
// record is pruned whole, and one page LSN answers for all of them.
//
// A record carries no LSN: its LSN is where it stands, and the checksum seed
// ties the bytes to that position, so a record left over from an older log
// generation at the same file offset, or a shipped chunk spliced at the wrong
// LSN, fails the checksum like any torn write. A record decodes from its own
// bytes and its LSN alone — nothing is inherited from a neighbour — because
// shipping cuts chunks, and truncation keeps tails, at any record boundary.

// kindBody in a record's kind byte says an update body follows the chain
// fields. Records that name no page and carry no image (begin, commit,
// abort, checkpoint, decision) leave it clear and pay nothing for the body.
const kindBody = 0x80

// lenList, where the first region's len field would stand, says a region list
// follows that region.
const lenList = 1

// ErrCorrupt reports bytes that do not decode as the record expected at
// their position: a checksum mismatch, a malformed field, or a record cut
// short by the end of the buffer (a torn tail).
var ErrCorrupt = errors.New("wal: corrupt log record")

// recordCRC checksums a record's bytes (everything before the CRC field)
// seeded with the LSN the record stands at.
func recordCRC(lsn LSN, b []byte) uint32 {
	// The eight seed bytes go through the table by hand: handing crc32 a
	// slice of a local array moves the array to the heap, once per record.
	crc := ^uint32(0)
	for i := 0; i < 64; i += 8 {
		crc = crc32.IEEETable[byte(crc)^byte(lsn>>i)] ^ crc>>8
	}
	return crc32.Update(^crc, crc32.IEEETable, b)
}

// appendLen appends a region's len field: an n-byte after-image, with hasOld
// set when the region has an undo.
func appendLen(dst []byte, n int, undo bool) []byte {
	v := uint64(n) << 1
	if undo {
		v |= 1
	}
	return binary.AppendUvarint(dst, v)
}

// appendImages appends a region's len, old and new fields in the log form. A
// before-image is either absent or exactly as long as the after-image — the
// format has one length — and anything else is a caller bug.
func appendImages(dst, old, new []byte) []byte {
	if len(old) != 0 && len(old) != len(new) {
		panic(fmt.Sprintf("wal: %d-byte before-image for a %d-byte after-image", len(old), len(new)))
	}
	dst = appendLen(dst, len(new), len(old) != 0)
	dst = append(dst, old...)
	return append(dst, new...)
}

// appendWireImages appends a region's len and new fields in the wire form.
// An undo of no bytes is what lenList spells, so asking for one is a bug.
func appendWireImages(dst []byte, undo bool, new []byte) []byte {
	if undo && len(new) == 0 {
		panic("wal: an undo for a region of no bytes")
	}
	return append(appendLen(dst, len(new), undo), new...)
}

// appendHead appends a body's page and off fields, and lenList when a
// region list follows the first region.
func appendHead(dst []byte, page uint32, off uint16, list bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(page))
	dst = binary.AppendUvarint(dst, uint64(off))
	if list {
		dst = append(dst, lenList)
	}
	return dst
}

// appendTail appends a body's tail and the regions after the first, if any.
func appendTail(dst, more []byte) []byte {
	if len(more) == 0 {
		return dst
	}
	return append(binary.AppendUvarint(dst, uint64(len(more))), more...)
}

// appendBody appends r's update body to dst in the log form.
func appendBody(dst []byte, r *Record) []byte {
	dst = appendImages(appendHead(dst, r.Page, r.Off, len(r.More) != 0), r.Old, r.New)
	return appendTail(dst, r.More)
}

// AppendRegion appends one more region to more, a Record.More under
// construction: it starts gap bytes past the end of the region before it.
func AppendRegion(more []byte, gap int, old, new []byte) []byte {
	return appendImages(appendGap(more, gap), old, new)
}

// appendGap appends a region's gap field, the start of every region after
// the first.
func appendGap(more []byte, gap int) []byte {
	if gap < 0 || gap > math.MaxUint16 {
		panic(fmt.Sprintf("wal: region gap %d out of range", gap))
	}
	return binary.AppendUvarint(more, uint64(gap))
}

// WireUpdate is an update body in the wire form: what a client ships of an
// update record, every before-image left out. Page, Off and New name the
// first region as Record's fields do; Undo says it has a before-image for
// the page server to fill; More holds the regions after it in the wire form
// (AppendWireRegion). A commit payload's log batch is a list of these.
type WireUpdate struct {
	Page uint32
	Off  uint16
	Undo bool
	New  []byte
	More []byte
}

// AppendWire appends u's body in the wire form to dst.
func AppendWire(dst []byte, u *WireUpdate) []byte {
	dst = appendWireImages(appendHead(dst, u.Page, u.Off, len(u.More) != 0), u.Undo, u.New)
	return appendTail(dst, u.More)
}

// AppendWireRegion appends one more region to more, a WireUpdate.More under
// construction: it starts gap bytes past the end of the region before it,
// and undo says it has a before-image.
func AppendWireRegion(more []byte, gap int, undo bool, new []byte) []byte {
	return appendWireImages(appendGap(more, gap), undo, new)
}

// DecodeWire decodes the wire-form update body at the head of buf and returns
// its length. New and More alias buf. The input is untrusted (a client's
// batch): a malformed or truncated body is ErrCorrupt.
func DecodeWire(buf []byte) (WireUpdate, int, error) {
	page, first, more, n, ok := decodeBody(buf, 0, true)
	if !ok {
		return WireUpdate{}, 0, fmt.Errorf("%w: malformed update body", ErrCorrupt)
	}
	return WireUpdate{Page: page, Off: uint16(first.Off), Undo: first.Undo, New: first.New, More: more}, n, nil
}

// Regions returns an iterator standing before u's first region. Its regions
// carry no Old: Undo says which have one.
func (u *WireUpdate) Regions() RegionIter {
	return RegionIter{Region: Region{Off: int(u.Off), New: u.New, Undo: u.Undo}, more: u.More, wire: true}
}

// CheckRange reports whether every region of u fits a page of pageSize
// bytes and More decodes to its end: Record.CheckRange for the wire form.
func (u *WireUpdate) CheckRange(pageSize int) error {
	return checkRegions(u.Regions(), RecUpdate, u.Page, pageSize)
}

// Redo applies every region's after-image to the page and stamps it with
// lsn, the LSN Log.AppendFilled gave u: Record.Redo for the wire form.
func (u *WireUpdate) Redo(pageBuf []byte, lsn LSN, setPageLSN func(pageBuf []byte, lsn uint64)) {
	redoRegions(u.Regions(), pageBuf)
	setPageLSN(pageBuf, uint64(lsn))
}

// uvarint reads the minimally encoded uvarint at buf[p:], no larger than max,
// and returns it with the position just past it.
func uvarint(buf []byte, p int, max uint64) (uint64, int, bool) {
	v, n := binary.Uvarint(buf[p:])
	if n <= 0 || (n > 1 && buf[p+n-1] == 0) || v > max {
		return 0, 0, false
	}
	return v, p + n, true
}

// decodeImages reads the len, old and new fields at buf[p:] into the
// region's Old, New and Undo — the wire form has no old field, and leaves
// Old empty — and returns the position just past them. The images alias
// buf, capped so an append through them cannot reach the bytes that follow.
func decodeImages(buf []byte, p int, wire bool, r *Region) (end int, ok bool) {
	n, p, ok := uvarint(buf, p, math.MaxUint64)
	if !ok {
		return 0, false
	}
	size := n >> 1
	r.Undo, r.Old, r.New = n&1 != 0, nil, nil
	if r.Undo && size == 0 {
		return 0, false
	}
	if r.Undo && !wire {
		if size > uint64(len(buf)-p) {
			return 0, false
		}
		r.Old = buf[p : p+int(size) : p+int(size)]
		p += int(size)
	}
	if size > uint64(len(buf)-p) {
		return 0, false
	}
	if size > 0 {
		r.New = buf[p : p+int(size) : p+int(size)]
	}
	return p + int(size), true
}

// Region is one byte range of an update record: its offset within the page,
// its before-image and its after-image. Undo says the region has a
// before-image: Old holds it in the log form and is empty in the wire form,
// where the page server fills it. A redo-only region has none.
type Region struct {
	Off      int
	Old, New []byte
	Undo     bool
}

// RegionIter walks an update record's regions in place, in offset order:
//
//	for it := r.Regions(); it.Next(); {
//		copy(page[it.Off:], it.New)
//	}
//
// The images alias the record's. Nothing is allocated.
type RegionIter struct {
	Region
	more    []byte
	wire    bool // more is in the wire form
	started bool
}

// Regions returns an iterator standing before r's first region.
func (r *Record) Regions() RegionIter {
	return RegionIter{Region: Region{Off: int(r.Off), Old: r.Old, New: r.New, Undo: len(r.Old) != 0}, more: r.More}
}

// Next advances to the next region and reports whether there is one. A More
// that does not decode ends the walk; Err tells the two endings apart.
func (it *RegionIter) Next() bool {
	if !it.started {
		it.started = true
		return true
	}
	if len(it.more) == 0 {
		return false
	}
	gap, p, ok := uvarint(it.more, 0, math.MaxUint16)
	if !ok {
		return false
	}
	end := it.Off + len(it.New) + int(gap)
	if p, ok = decodeImages(it.more, p, it.wire, &it.Region); !ok {
		return false
	}
	it.Off = end
	it.more = it.more[p:]
	return true
}

// Err reports, once Next has returned false, whether the walk stopped short
// of the record's last byte.
func (it *RegionIter) Err() error {
	if len(it.more) != 0 {
		return fmt.Errorf("%w: malformed region list", ErrCorrupt)
	}
	return nil
}

// decodeBody reads the update body at buf[p:] in the log or the wire form:
// its page, its first region and the encoded regions after it, and the
// position just past it, having walked the whole region list: what it
// accepts, Regions walks to the end.
func decodeBody(buf []byte, p int, wire bool) (page uint32, first Region, more []byte, end int, ok bool) {
	pg, p, ok := uvarint(buf, p, math.MaxUint32)
	if !ok {
		return 0, Region{}, nil, 0, false
	}
	off, p, ok := uvarint(buf, p, math.MaxUint16)
	if !ok {
		return 0, Region{}, nil, 0, false
	}
	page, first.Off = uint32(pg), int(off)
	list := p < len(buf) && buf[p] == lenList
	if list {
		p++
	}
	if p, ok = decodeImages(buf, p, wire, &first); !ok || !list {
		return page, first, nil, p, ok
	}
	size, p, ok := uvarint(buf, p, uint64(len(buf)))
	if !ok || size == 0 || size > uint64(len(buf)-p) {
		return 0, Region{}, nil, 0, false
	}
	more = buf[p : p+int(size) : p+int(size)]
	it := RegionIter{Region: first, more: more, wire: wire}
	for it.Next() {
	}
	return page, first, more, p + int(size), it.Err() == nil
}

// appendChain appends a record's kind, tx and back fields. What the format
// cannot express only a bug can ask for: a type outside 1..127, a PrevLSN not
// below the record's own LSN.
func appendChain(dst []byte, t RecType, body bool, tx uint64, lsn, prev LSN) []byte {
	if t == 0 || t >= kindBody {
		panic(fmt.Sprintf("wal: record type %d out of range", uint8(t)))
	}
	if prev >= lsn {
		panic(fmt.Sprintf("wal: PrevLSN %d is not below the record's LSN %d", uint64(prev), uint64(lsn)))
	}
	kind := byte(t)
	if body {
		kind |= kindBody
	}
	var back uint64
	if prev != NilLSN {
		back = uint64(lsn - prev)
	}
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, tx)
	return binary.AppendUvarint(dst, back)
}

// appendRecord serializes r, whose LSN is set, onto dst. A before-image of
// another length than its after-image panics (appendImages), as appendChain's
// cases do.
func appendRecord(dst []byte, r *Record) []byte {
	start := len(dst)
	body := r.Page != 0 || r.Off != 0 || len(r.Old) != 0 || len(r.New) != 0 || len(r.More) != 0
	dst = appendChain(dst, r.Type, body, r.Tx, r.LSN, r.PrevLSN)
	if body {
		dst = appendBody(dst, r)
	}
	return binary.LittleEndian.AppendUint32(dst, recordCRC(r.LSN, dst[start:]))
}

// appendFilled serializes u as tx's RecUpdate standing at lsn, behind prev,
// in the log form: each region u marks Undo takes the bytes it covers in
// page as its before-image. The result is byte for byte what appendRecord
// writes for the Record that carries those bytes as its Old images.
func appendFilled(dst []byte, lsn, prev LSN, tx uint64, u *WireUpdate, page []byte) []byte {
	start := len(dst)
	body := u.Page != 0 || u.Off != 0 || len(u.New) != 0 || len(u.More) != 0
	dst = appendChain(dst, RecUpdate, body, tx, lsn, prev)
	if body {
		it := u.Regions()
		it.Next()
		dst = appendFill(appendHead(dst, u.Page, u.Off, len(u.More) != 0), &it.Region, page)
		if len(u.More) != 0 {
			// The tail counts the filled regions, which are shorter than
			// twice More (each before-image is as long as an after-image
			// inside it): reserve that number's width, write the regions,
			// then the count, closing up any byte the reserve left over.
			at := len(dst)
			dst = binary.AppendUvarint(dst, uint64(2*len(u.More)))
			reserved := len(dst) - at
			for end := it.Off + len(it.New); it.Next(); end = it.Off + len(it.New) {
				dst = appendFill(appendGap(dst, it.Off-end), &it.Region, page)
			}
			var size [binary.MaxVarintLen64]byte
			n := binary.PutUvarint(size[:], uint64(len(dst)-at-reserved))
			if n < reserved {
				dst = dst[:at+n+copy(dst[at+n:], dst[at+reserved:])]
			}
			copy(dst[at:], size[:n])
		}
	}
	return binary.LittleEndian.AppendUint32(dst, recordCRC(lsn, dst[start:]))
}

// appendFill appends a wire region's len, old and new fields in the log form,
// its before-image read from page.
func appendFill(dst []byte, r *Region, page []byte) []byte {
	var old []byte
	if r.Undo {
		old = page[r.Off : r.Off+len(r.New)]
	}
	return appendImages(dst, old, r.New)
}

// decode decodes the record standing at lsn from the head of buf and returns
// its length. Old, New and More alias buf; callers that hand the record out
// copy them. Every length and offset is checked against buf before use, and
// nothing is allocated, so arbitrary bytes cost at most one pass over buf.
func decode(buf []byte, lsn LSN) (Record, int, error) {
	if len(buf) == 0 {
		return Record{}, 0, ErrCorrupt
	}
	r := Record{LSN: lsn, Type: RecType(buf[0] &^ kindBody)}
	if r.Type == 0 {
		return Record{}, 0, ErrCorrupt
	}
	tx, p, ok := uvarint(buf, 1, math.MaxUint64)
	if !ok {
		return Record{}, 0, ErrCorrupt
	}
	back, p, ok := uvarint(buf, p, uint64(lsn)-1)
	if !ok {
		return Record{}, 0, ErrCorrupt
	}
	r.Tx = tx
	if back != 0 {
		r.PrevLSN = lsn - LSN(back)
	}
	if buf[0]&kindBody != 0 {
		var first Region
		if r.Page, first, r.More, p, ok = decodeBody(buf, p, false); !ok {
			return Record{}, 0, ErrCorrupt
		}
		r.Off, r.Old, r.New = uint16(first.Off), first.Old, first.New
	}
	if len(buf)-p < 4 || recordCRC(lsn, buf[:p]) != binary.LittleEndian.Uint32(buf[p:]) {
		return Record{}, 0, ErrCorrupt
	}
	return r, p + 4, nil
}

// validPrefix returns the length of the longest run of whole, valid records
// at the head of buf that fits in limit bytes, the first standing at pos,
// and how many records that is.
func validPrefix(buf []byte, pos LSN, limit int) (end int, recs int64) {
	for end < limit {
		_, n, err := decode(buf[end:], pos+LSN(end))
		if err != nil || end+n > limit {
			break
		}
		end += n
		recs++
	}
	return end, recs
}

// A file log begins with a fixed header: fileMagic, the log's base (the LSN
// space consumed before the file's first record, so that record's LSN is
// base+1) as a little-endian u64, and a CRC32 of the two. Record bytes follow.
// Every rewrite of the file — create, Truncate, TruncateBefore, LoadSnapshot —
// writes it, so the base survives a log that holds no records.
const (
	fileMagic       = "QSTORLOG"
	fileHeaderBytes = len(fileMagic) + 8 + 4
)

// ErrNotLog reports a non-empty file that does not begin with a valid log
// file header: not a log, a log in the fixed-header format this one replaced,
// or one whose header was damaged.
var ErrNotLog = errors.New("wal: file does not begin with a QuickStore log header")

func appendFileHeader(dst []byte, base int) []byte {
	start := len(dst)
	dst = append(dst, fileMagic...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(base))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

func parseFileHeader(buf []byte) (base int, err error) {
	const crcAt = fileHeaderBytes - 4
	if len(buf) < fileHeaderBytes || string(buf[:len(fileMagic)]) != fileMagic ||
		crc32.ChecksumIEEE(buf[:crcAt]) != binary.LittleEndian.Uint32(buf[crcAt:]) {
		return 0, ErrNotLog
	}
	b := binary.LittleEndian.Uint64(buf[len(fileMagic):])
	if b >= math.MaxInt64 {
		return 0, ErrNotLog
	}
	return int(b), nil
}
