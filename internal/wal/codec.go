package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// This file is the log's physical format: the one encoder and the one
// decoder for a record, the update body they share with the OpLog wire batch,
// and the file header.
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
// The update body, also one record of a log batch on the wire: one or more
// byte ranges (regions) of one page, disjoint and in ascending offset order.
//
//	page    uvarint   page id
//	off     uvarint   byte offset of the first region (fits Record.Off)
//	list    1 byte    lenList, present only when more regions follow the first
//	len     uvarint   len(New)<<1 | hasOld
//	old     len bytes before-image, present only with hasOld
//	new     len bytes after-image
//	tail    uvarint   byte length of the regions that follow; only with list
//	then, tail bytes of:
//	gap     uvarint   bytes between the previous region's end and this one
//	len, old, new     as above
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

// appendImages appends a region's len, old and new fields. A before-image is
// either absent or exactly as long as the after-image — the format has one
// length — and anything else is a caller bug.
func appendImages(dst, old, new []byte) []byte {
	if len(old) != 0 && len(old) != len(new) {
		panic(fmt.Sprintf("wal: %d-byte before-image for a %d-byte after-image", len(old), len(new)))
	}
	n := uint64(len(new)) << 1
	if len(old) != 0 {
		n |= 1
	}
	dst = binary.AppendUvarint(dst, n)
	dst = append(dst, old...)
	return append(dst, new...)
}

// AppendBody appends r's update body to dst: the record format's tail and the
// wire log batch's unit.
func AppendBody(dst []byte, r *Record) []byte {
	dst = binary.AppendUvarint(dst, uint64(r.Page))
	dst = binary.AppendUvarint(dst, uint64(r.Off))
	if len(r.More) == 0 {
		return appendImages(dst, r.Old, r.New)
	}
	dst = append(dst, lenList)
	dst = appendImages(dst, r.Old, r.New)
	dst = binary.AppendUvarint(dst, uint64(len(r.More)))
	return append(dst, r.More...)
}

// AppendRegion appends one more region to more, a Record.More under
// construction: it starts gap bytes past the end of the region before it.
func AppendRegion(more []byte, gap int, old, new []byte) []byte {
	if gap < 0 || gap > math.MaxUint16 {
		panic(fmt.Sprintf("wal: region gap %d out of range", gap))
	}
	return appendImages(binary.AppendUvarint(more, uint64(gap)), old, new)
}

// DecodeUpdate decodes the update body at the head of buf into a RecUpdate
// record and returns the body's length. Old, New and More alias buf. The
// input is untrusted (a client's batch, a log file): a malformed or truncated
// body is ErrCorrupt.
func DecodeUpdate(buf []byte) (Record, int, error) {
	r := Record{Type: RecUpdate}
	n, ok := r.decodeBody(buf, 0)
	if !ok {
		return Record{}, 0, fmt.Errorf("%w: malformed update body", ErrCorrupt)
	}
	return r, n, nil
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

// decodeImages reads the len, old and new fields at buf[p:] and returns the
// position just past them. The images alias buf, capped so an append through
// them cannot reach the bytes that follow.
func decodeImages(buf []byte, p int) (old, new []byte, end int, ok bool) {
	n, p, ok := uvarint(buf, p, math.MaxUint64)
	if !ok {
		return nil, nil, 0, false
	}
	hasOld, size := n&1 != 0, n>>1
	if hasOld {
		if size == 0 || size > uint64(len(buf)-p) {
			return nil, nil, 0, false
		}
		old = buf[p : p+int(size) : p+int(size)]
		p += int(size)
	}
	if size > uint64(len(buf)-p) {
		return nil, nil, 0, false
	}
	if size > 0 {
		new = buf[p : p+int(size) : p+int(size)]
	}
	return old, new, p + int(size), true
}

// Region is one byte range of an update record: its offset within the page,
// its before-image (empty when the region is redo-only) and its after-image.
type Region struct {
	Off      int
	Old, New []byte
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
	started bool
}

// Regions returns an iterator standing before r's first region.
func (r *Record) Regions() RegionIter {
	return RegionIter{Region: Region{Off: int(r.Off), Old: r.Old, New: r.New}, more: r.More}
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
	old, new, p, ok := decodeImages(it.more, p)
	if !ok {
		return false
	}
	it.Region = Region{Off: it.Off + len(it.New) + int(gap), Old: old, New: new}
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

// decodeBody fills r's Page, Off, Old, New and More from the update body at
// buf[p:] and returns the position just past it, having walked the whole
// region list: what it accepts, Regions walks to the end.
func (r *Record) decodeBody(buf []byte, p int) (int, bool) {
	page, p, ok := uvarint(buf, p, math.MaxUint32)
	if !ok {
		return 0, false
	}
	off, p, ok := uvarint(buf, p, math.MaxUint16)
	if !ok {
		return 0, false
	}
	r.Page, r.Off = uint32(page), uint16(off)
	list := p < len(buf) && buf[p] == lenList
	if list {
		p++
	}
	if r.Old, r.New, p, ok = decodeImages(buf, p); !ok || !list {
		return p, ok
	}
	size, p, ok := uvarint(buf, p, uint64(len(buf)))
	if !ok || size == 0 || size > uint64(len(buf)-p) {
		return 0, false
	}
	r.More = buf[p : p+int(size) : p+int(size)]
	it := r.Regions()
	for it.Next() {
	}
	return p + int(size), it.Err() == nil
}

// appendRecord serializes r, whose LSN is set, onto dst. What the format
// cannot express only a bug can ask for: a type outside 1..127, a PrevLSN not
// below the record's own LSN, a before-image of another length (appendImages).
func appendRecord(dst []byte, r *Record) []byte {
	if r.Type == 0 || r.Type >= kindBody {
		panic(fmt.Sprintf("wal: record type %d out of range", uint8(r.Type)))
	}
	lsn, prev := r.LSN, r.PrevLSN
	if prev >= lsn {
		panic(fmt.Sprintf("wal: PrevLSN %d is not below the record's LSN %d", uint64(prev), uint64(lsn)))
	}
	start := len(dst)
	body := r.Page != 0 || r.Off != 0 || len(r.Old) != 0 || len(r.New) != 0 || len(r.More) != 0
	kind := byte(r.Type)
	if body {
		kind |= kindBody
	}
	var back uint64
	if prev != NilLSN {
		back = uint64(lsn - prev)
	}
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, r.Tx)
	dst = binary.AppendUvarint(dst, back)
	if body {
		dst = AppendBody(dst, r)
	}
	return binary.LittleEndian.AppendUint32(dst, recordCRC(lsn, dst[start:]))
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
		if p, ok = r.decodeBody(buf, p); !ok {
			return Record{}, 0, ErrCorrupt
		}
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
