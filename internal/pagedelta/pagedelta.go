// Package pagedelta finds the modified byte regions between two images of
// a page and encodes them as a compact patch. The region finder is the
// SWAR diff that client-side recovery logging uses (DESIGN.md §5, the
// paper's Section 3.6 interleaved diff/logging); it lives here so both
// internal/core (log-record generation) and internal/esm (coherent
// warm-cache delta shipping, DESIGN.md §18) can share one implementation
// without an import cycle.
//
// The patch wire format is a sequence of runs:
//
//	u16 off | u16 n | n bytes of new data
//
// with offsets strictly increasing and non-overlapping. Apply validates
// every run against the page bounds and rejects truncated or overlapping
// input, so a patch from an untrusted peer can never write outside the
// page or be silently half-applied.
package pagedelta

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Region is one modified byte range of a page.
type Region struct{ Off, N int }

// Regions finds the modified regions between old and cur and merges
// neighbouring regions when encoding them separately would cost more than
// carrying the clean gap between them: a separate run pays hdr header
// bytes, a merged run pays 2*gap payload bytes (the convention of the
// log-record diff, whose records carry both old and new images of the
// gap). This is the paper's example: bytes 1 and 1024 of an object become
// two records, bytes 1, 3 and 5 become one. Bytes past the shorter buffer
// (page growth) form one final region.
func Regions(old, cur []byte, hdr int) []Region {
	return AppendRegions(nil, old, cur, hdr)
}

// AppendRegions appends what Regions returns to dst, so a commit that diffs
// hundreds of pages can reuse one slice.
func AppendRegions(dst []Region, old, cur []byte, hdr int) []Region {
	n := len(cur)
	if len(old) < n {
		n = len(old)
	}
	regs, first := dst, len(dst)
	i := 0
	for i < n {
		i = skipEqual(old, cur, i, n)
		if i >= n {
			break
		}
		j := skipDiff(old, cur, i+1, n)
		if len(regs) > first {
			last := &regs[len(regs)-1]
			gap := i - (last.Off + last.N)
			if 2*gap <= hdr {
				last.N = j - last.Off
				i = j
				continue
			}
		}
		regs = append(regs, Region{Off: i, N: j - i})
		i = j
	}
	if len(cur) > len(old) {
		regs = append(regs, Region{Off: len(old), N: len(cur) - len(old)})
	}
	return regs
}

// swarOnes has the low bit of every byte lane set; swarHighs the high bit.
// They drive the classic "does this word contain a zero byte" test:
// (v - swarOnes) & ^v & swarHighs is nonzero iff some byte of v is zero,
// and its lowest set bit sits in the word's first zero byte.
const (
	swarOnes  = 0x0101010101010101
	swarHighs = 0x8080808080808080
)

// skipEqual advances i past bytes where old and cur agree, eight at a time:
// the XOR of two equal words is zero, and when a word finally differs the
// first mismatching byte is the XOR's lowest nonzero byte.
func skipEqual(old, cur []byte, i, n int) int {
	for ; i+8 <= n; i += 8 {
		x := binary.LittleEndian.Uint64(old[i:]) ^ binary.LittleEndian.Uint64(cur[i:])
		if x != 0 {
			return i + bits.TrailingZeros64(x)>>3
		}
	}
	for i < n && old[i] == cur[i] {
		i++
	}
	return i
}

// skipDiff advances j past bytes where old and cur differ, eight at a time:
// a word extends the run iff its XOR has no zero byte, and when a run ends
// the first agreeing byte is the XOR's first zero byte.
func skipDiff(old, cur []byte, j, n int) int {
	for ; j+8 <= n; j += 8 {
		x := binary.LittleEndian.Uint64(old[j:]) ^ binary.LittleEndian.Uint64(cur[j:])
		if zeros := (x - swarOnes) & ^x & swarHighs; zeros != 0 {
			return j + bits.TrailingZeros64(zeros)>>3
		}
	}
	for j < n && old[j] != cur[j] {
		j++
	}
	return j
}

// runHdr is the per-run wire overhead: u16 offset + u16 length. For the
// region merge rule a patch run carries only the new image, so merging two
// runs separated by gap bytes trades runHdr header bytes for gap payload
// bytes; passing 2*runHdr as hdr to Regions makes the 2*gap rule merge
// exactly when gap <= runHdr.
const runHdr = 4

// maxRun caps a single run's length at what its u16 field can carry.
const maxRun = 1<<16 - 1

// Encode builds a patch transforming old into cur. Both images must be the
// same length (pages are fixed-size); Encode returns nil when the patch
// would not be smaller than shipping cur outright, so a nil result means
// "send the full page".
func Encode(old, cur []byte) []byte {
	if len(old) != len(cur) {
		return nil
	}
	regs := Regions(old, cur, 2*runHdr)
	size := 0
	for _, r := range regs {
		size += runHdr*(1+(r.N-1)/maxRun) + r.N
	}
	if size == 0 || size >= len(cur) {
		return nil
	}
	return AppendRuns(make([]byte, 0, size), cur, regs)
}

// AppendRuns appends to dst the patch that writes cur's bytes over regions,
// which may come in any order, overlap or touch: it sorts regions in place,
// merges those whose gap is at most a run header (a separate run would cost
// no less than carrying the gap), and splits what outgrows a run's u16
// length. The result is well formed for Apply and brings any image that
// already agrees with cur outside regions to cur. Every region must lie
// within cur.
func AppendRuns(dst, cur []byte, regions []Region) []byte {
	slices.SortFunc(regions, func(a, b Region) int { return cmp.Compare(a.Off, b.Off) })
	for i := 0; i < len(regions); {
		off, end := regions[i].Off, regions[i].Off+regions[i].N
		for i++; i < len(regions) && regions[i].Off <= end+runHdr; i++ {
			end = max(end, regions[i].Off+regions[i].N)
		}
		for off < end {
			run := min(end-off, maxRun)
			dst = binary.LittleEndian.AppendUint16(dst, uint16(off))
			dst = binary.LittleEndian.AppendUint16(dst, uint16(run))
			dst = append(dst, cur[off:off+run]...)
			off += run
		}
	}
	return dst
}

// Apply patches page in place. Runs must be non-empty, strictly ordered,
// non-overlapping, and in bounds; any violation (including a truncated
// final run) returns an error before ANY byte of the page is modified, so
// a rejected patch leaves the cached image intact.
func Apply(page, patch []byte) error {
	if err := validate(len(page), patch); err != nil {
		return err
	}
	writeRuns(page, patch)
	return nil
}

// writeRuns copies the runs of a patch validate accepted onto page.
func writeRuns(page, patch []byte) {
	for p := 0; p < len(patch); {
		off := int(binary.LittleEndian.Uint16(patch[p:]))
		n := int(binary.LittleEndian.Uint16(patch[p+2:]))
		copy(page[off:off+n], patch[p+runHdr:p+runHdr+n])
		p += runHdr + n
	}
}

// A sparse image is a page shipped without its zeros: the patch that writes
// the page's non-zero bytes over an all-zero page of its length. An
// all-zero page is the empty patch. A page the runs would not shrink goes
// as itself, raw, and its length tells the two apart: a patch as long as
// the page is raw, since AppendImage (like Encode) only ever returns
// shorter ones.

// maxImage is the longest image the runs can address: a u16 offset
// reaches byte 65535.
const maxImage = 1 << 16

// imageGap is the longest stretch of zero words a sparse image's run
// carries rather than ending: one word. Ending the run there saves only the
// word less a run header; over the 722 pages of the OO7 small database,
// carrying lone zero words makes a quarter fewer runs, which decode in 30 %
// less time, for 1.5 % more bytes.
const imageGap = 8

// AppendImage appends img's sparse image to dst, or img itself when the
// runs would not be shorter (or img is too long for u16 offsets). The scan
// goes a word at a time: a run spans 8-byte words that are not all zero,
// and the zero words between them up to imageGap bytes, trimmed to its
// first and last non-zero byte.
func AppendImage(dst, img []byte) []byte {
	base, n := len(dst), len(img)
	if n > maxImage {
		return append(dst, img...)
	}
	full := n &^ 7
	for i := 0; i < n; {
		for i < full && binary.LittleEndian.Uint64(img[i:i+8]) == 0 {
			i += 8
		}
		w := imageWord(img, i)
		if w == 0 {
			break // only the zero tail is left
		}
		off := i + bits.TrailingZeros64(w)>>3
		last, lastAt := w, i
		for i += 8; i < full; i += 8 {
			if w = binary.LittleEndian.Uint64(img[i : i+8]); w != 0 {
				last, lastAt = w, i
			} else if i-lastAt > imageGap {
				break
			}
		}
		if i >= full && i < n && i-lastAt <= imageGap {
			if w = imageWord(img, i); w != 0 {
				last, lastAt = w, i
			}
		}
		end := lastAt + 8 - bits.LeadingZeros64(last)>>3
		i = lastAt + 8
		if len(dst)-base+runHdr+end-off >= n {
			return append(dst[:base], img...)
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(off))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(end-off))
		dst = append(dst, img[off:end]...)
	}
	return dst
}

// imageWord loads the little-endian word at img[i:], reading zeros past
// the end of img.
func imageWord(img []byte, i int) uint64 {
	if i+8 <= len(img) {
		return binary.LittleEndian.Uint64(img[i:])
	}
	var w uint64
	for k := len(img) - 1; k >= i; k-- {
		w = w<<8 | uint64(img[k])
	}
	return w
}

// checkImage reports whether patch is a well-formed image of a pageLen-byte
// page: raw (exactly pageLen bytes) or a sparse patch whose runs stay
// inside the page. A decoder that checks every image of a message first
// can then apply them all without a refusal halfway.
func checkImage(pageLen int, patch []byte) error {
	switch {
	case len(patch) == pageLen:
		return nil
	case len(patch) > pageLen:
		return fmt.Errorf("pagedelta: image of %d bytes for a %d-byte page", len(patch), pageLen)
	}
	return validate(pageLen, patch)
}

// ApplyImage decodes a sparse image (or a raw one, as long as page) into
// page. A malformed or over-long patch is refused (checkImage) before any
// byte of page is written; an accepted one clears page and writes its runs.
func ApplyImage(page, patch []byte) error {
	if err := checkImage(len(page), patch); err != nil {
		return err
	}
	if len(patch) == len(page) {
		copy(page, patch)
		return nil
	}
	clear(page)
	writeRuns(page, patch)
	return nil
}

// A sized image is an image behind its length, a little-endian u32: the
// form every message that carries whole pages gives each of them (the
// commit payload's page section, the replication snapshot stream).

// AppendSizedImage appends page's image (AppendImage) to dst as a sized
// image.
func AppendSizedImage(dst, page []byte) []byte {
	at := len(dst) + 4
	dst = AppendImage(binary.LittleEndian.AppendUint32(dst, 0), page)
	binary.LittleEndian.PutUint32(dst[at-4:], uint32(len(dst)-at))
	return dst
}

// AppendSized appends image, an image already made (AppendImage, or read
// by ReadSizedImage), to dst as a sized image: a message passed on copies
// its pages through unchanged.
func AppendSized(dst, image []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(image))), image...)
}

// ReadSizedImage reads the sized image src starts with, for a pageLen-byte
// page: its image, checked (checkImage) and aliasing src, and the number of
// bytes of src it took.
func ReadSizedImage(src []byte, pageLen int) (image []byte, n int, err error) {
	if len(src) < 4 {
		return nil, 0, fmt.Errorf("pagedelta: sized image cut inside its length (%d bytes)", len(src))
	}
	size := binary.LittleEndian.Uint32(src)
	if uint64(size) > uint64(len(src)-4) {
		return nil, 0, fmt.Errorf("pagedelta: sized image of %d bytes, %d left", size, len(src)-4)
	}
	n = 4 + int(size)
	image = src[4:n:n]
	if err := checkImage(pageLen, image); err != nil {
		return nil, 0, err
	}
	return image, n, nil
}

// validate walks the patch without writing, enforcing the format's
// invariants against pageLen.
func validate(pageLen int, patch []byte) error {
	p, prevEnd := 0, 0
	for p < len(patch) {
		if len(patch)-p < runHdr {
			return fmt.Errorf("pagedelta: truncated run header at %d (%d bytes left)", p, len(patch)-p)
		}
		off := int(binary.LittleEndian.Uint16(patch[p:]))
		n := int(binary.LittleEndian.Uint16(patch[p+2:]))
		if n == 0 {
			return fmt.Errorf("pagedelta: empty run at %d", p)
		}
		if off < prevEnd {
			return fmt.Errorf("pagedelta: run at %d overlaps or reorders (off %d < prev end %d)", p, off, prevEnd)
		}
		if off+n > pageLen {
			return fmt.Errorf("pagedelta: run at %d out of bounds (off %d + n %d > page %d)", p, off, n, pageLen)
		}
		if len(patch)-p-runHdr < n {
			return fmt.Errorf("pagedelta: truncated run payload at %d (want %d, have %d)", p, n, len(patch)-p-runHdr)
		}
		prevEnd = off + n
		p += runHdr + n
	}
	return nil
}
