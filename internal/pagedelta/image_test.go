package pagedelta

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"quickstore/internal/disk"
	"quickstore/internal/page"
)

// oo7Page lays OO7-shaped objects onto a slotted page until fill bytes of
// it are used: atomic parts (five i32 fields, a 10-byte type string, five
// references, the incoming-connection head often nil) and connections (a
// length, a type string, three references), as the generator packs them,
// object data from the front and the slot directory from the back.
func oo7Page(rng *rand.Rand, fill int) []byte {
	buf := make([]byte, disk.PageSize)
	p := page.Init(buf, page.TypeSlotted)
	binary.LittleEndian.PutUint64(buf, 0x1234) // page LSN
	binary.LittleEndian.PutUint32(buf[8:], 7)  // file id
	ref := func() uint64 { return 0x10000 + uint64(rng.Intn(1<<20))*8 }
	for k := 0; disk.PageSize-p.FreeSpace() < fill; k++ {
		size := 80
		if k%4 != 0 {
			size = 46 // a connection
		}
		_, off, err := p.Insert(size)
		if err != nil {
			break
		}
		obj := buf[off : off+size]
		binary.LittleEndian.PutUint32(obj, uint32(rng.Intn(10000))) // id or length
		copy(obj[4:14], "type#"+string(rune('a'+k%26)))
		for f := 16; f+8 <= size; f += 8 {
			if size == 80 && f < 36 {
				binary.LittleEndian.PutUint32(obj[f:], uint32(1000+rng.Intn(1000))) // date, x, y, doc id
				continue
			}
			if rng.Intn(4) != 0 {
				binary.LittleEndian.PutUint64(obj[f:], ref())
			}
		}
	}
	return buf
}

// btreePage is a B-tree leaf holding n 24-byte keys and 12-byte values after
// a 16-byte node header, and zeros after them.
func btreePage(rng *rand.Rand, n int) []byte {
	buf := make([]byte, disk.PageSize)
	buf[8] = page.TypeBTree
	binary.LittleEndian.PutUint16(buf[10:], uint16(n))
	for i := 0; i < n; i++ {
		e := buf[16+i*36:]
		binary.BigEndian.PutUint64(e[16:], uint64(1000+3*i)) // an int key, big-endian, zero-padded
		binary.LittleEndian.PutUint32(e[24:], uint32(rng.Intn(700)))
		binary.LittleEndian.PutUint16(e[28:], uint16(rng.Intn(90)))
	}
	return buf
}

// TestImageRoundTrip: every image decodes back to itself over any previous
// page contents, an image is sparse (shorter than the page) or raw (the
// page itself), and the shapes that have zeros to lose lose them.
func TestImageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1994))
	noZero := bytes.Repeat([]byte{0x5A}, disk.PageSize)
	alternating := make([]byte, disk.PageSize) // every other word zero
	for i := 0; i < len(alternating); i += 16 {
		copy(alternating[i:], "non-zero")
	}
	pairs := make([]byte, disk.PageSize) // a word in three non-zero
	for i := 0; i < len(pairs); i += 24 {
		copy(pairs[i:], "non-zero")
	}
	oneByte := make([]byte, disk.PageSize)
	oneByte[4097] = 1
	random := make([]byte, disk.PageSize)
	rng.Read(random)
	header := make([]byte, disk.PageSize)
	page.Init(header, page.TypeSlotted)
	longRun := make([]byte, maxImage)
	for i := 24; i < len(longRun); i++ {
		longRun[i] = byte(i | 1)
	}
	lastByte := make([]byte, maxImage)
	lastByte[maxImage-1] = 0xFF
	tooLong := make([]byte, maxImage+8)
	tooLong[3] = 1

	cases := []struct {
		name   string
		img    []byte
		sparse bool // the image must ship shorter than the page
		max    int  // and at most this long, when nonzero
	}{
		{"all zero", make([]byte, disk.PageSize), true, 0},
		{"no zero", noZero, false, 0},
		{"random", random, false, 0},
		{"alternating words", alternating, true, runHdr + disk.PageSize - 8}, // one run: a lone zero word rides it
		{"two zero words in three", pairs, true, disk.PageSize/24*12 + 12},
		{"one byte", oneByte, true, runHdr + 1},
		{"formatted empty page", header, true, 16},
		{"odd length tail", []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 3, 4}, true, 0},
		{"64 KB image, one run to its end", longRun, true, runHdr + maxImage - 24},
		{"64 KB image, its last byte", lastByte, true, runHdr + 1},
		{"past 64 KB", tooLong, false, 0},
		{"OO7 half-full slotted page", oo7Page(rng, disk.PageSize/2), true, disk.PageSize * 6 / 10},
		{"OO7 full slotted page", oo7Page(rng, disk.PageSize), true, 0},
		{"OO7 B-tree leaf", btreePage(rng, 40), true, disk.PageSize / 4},
	}
	for _, tc := range cases {
		enc := AppendImage([]byte("prefix"), tc.img)
		if string(enc[:6]) != "prefix" {
			t.Fatalf("%s: AppendImage overwrote dst's prefix", tc.name)
		}
		enc = enc[6:]
		switch {
		case tc.sparse && len(enc) >= len(tc.img):
			t.Errorf("%s: %d image bytes, want fewer than %d", tc.name, len(enc), len(tc.img))
		case !tc.sparse && !bytes.Equal(enc, tc.img):
			t.Errorf("%s: shipped %d bytes, want the %d-byte image raw", tc.name, len(enc), len(tc.img))
		case tc.max != 0 && len(enc) > tc.max:
			t.Errorf("%s: %d image bytes, want at most %d", tc.name, len(enc), tc.max)
		}
		if len(enc) < len(tc.img) && len(enc) > 0 && !isRunBoundary(enc, len(enc)) {
			t.Errorf("%s: the image is not whole runs", tc.name)
		}
		got := bytes.Repeat([]byte{0xEE}, len(tc.img)) // a frame's previous page
		if err := ApplyImage(got, enc); err != nil {
			t.Fatalf("%s: ApplyImage: %v", tc.name, err)
		}
		if !bytes.Equal(got, tc.img) {
			t.Fatalf("%s: decoded image differs at byte %d", tc.name, firstDiff(got, tc.img))
		}
		t.Logf("%-34s %6d -> %6d bytes", tc.name, len(tc.img), len(enc))
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestApplyImageRefusesWithoutWriting: a patch longer than the page, or one
// Apply would refuse, leaves the page as it was.
func TestApplyImageRefusesWithoutWriting(t *testing.T) {
	for _, patch := range [][]byte{
		make([]byte, 65),                 // longer than the page
		{1, 0, 4},                        // truncated run header
		{60, 0, 10, 0, 1, 2, 3, 4, 5, 6}, // out of bounds
		{0, 0, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 4, 0, 1, 0, 9}, // overlapping
	} {
		pg := bytes.Repeat([]byte{0xEE}, 64)
		if err := ApplyImage(pg, patch); err == nil {
			t.Errorf("ApplyImage accepted %v", patch)
		}
		if !bytes.Equal(pg, bytes.Repeat([]byte{0xEE}, 64)) {
			t.Errorf("a refused image %v wrote the page", patch)
		}
	}
}

// TestSizedImage: pages behind one another as sized images read back in
// order, each image the one AppendImage makes and applying as its page, and
// a copied one is the same bytes; a cut length, a length past the end or a malformed image is
// refused.
func TestSizedImage(t *testing.T) {
	sparse := make([]byte, 64)
	copy(sparse[8:], "object")
	pages := [][]byte{bytes.Repeat([]byte{0xAA}, 64), sparse, make([]byte, 64)}
	var msg []byte
	for _, pg := range pages {
		msg = AppendSizedImage(msg, pg)
	}
	var copied []byte
	for i, rest := 0, msg; len(rest) > 0; i++ {
		img, n, err := ReadSizedImage(rest, 64)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if want := AppendImage(nil, pages[i]); !bytes.Equal(img.Bytes(), want) {
			t.Fatalf("page %d: image %x, want %x", i, img.Bytes(), want)
		}
		got := bytes.Repeat([]byte{0xEE}, 64)
		if img.Apply(got); !bytes.Equal(got, pages[i]) {
			t.Fatalf("page %d: the checked image applies as %x", i, got)
		}
		copied, rest = AppendSized(copied, img.Bytes()), rest[n:]
	}
	if !bytes.Equal(copied, msg) {
		t.Fatal("copying the images through changed the message")
	}

	for name, src := range map[string][]byte{
		"a length cut short":       {3, 0, 0},
		"a length past the end":    {9, 0, 0, 0, 1, 0, 1, 0},
		"an image past the page":   AppendSized(nil, []byte{62, 0, 4, 0, 1, 2, 3, 4}),
		"an image longer than one": AppendSized(nil, make([]byte, 65)),
	} {
		if _, _, err := ReadSizedImage(src, 64); err == nil {
			t.Errorf("%s was accepted", name)
		}
	}
}

// FuzzImage: any image round-trips to itself through AppendImage and
// ApplyImage, and arbitrary patch bytes never panic, never write past the
// page, and leave it untouched when refused.
func FuzzImage(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add(make([]byte, 64), uint16(64))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2}, uint16(19))
	f.Add([]byte{0, 0, 4, 0, 1, 2, 3, 4}, uint16(8192))
	f.Fuzz(func(t *testing.T, data []byte, pageLen uint16) {
		enc := AppendImage(nil, data)
		if len(enc) > len(data) || len(enc) == len(data) && !bytes.Equal(enc, data) {
			t.Fatalf("a %d-byte image encoded to %d bytes", len(data), len(enc))
		}
		got := bytes.Repeat([]byte{0xEE}, len(data))
		if err := ApplyImage(got, enc); err != nil {
			t.Fatalf("ApplyImage of its own image: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip differs at byte %d", firstDiff(got, data))
		}

		// data as a patch, onto a page with a guard band behind it.
		n := int(pageLen) % 9000
		buf := bytes.Repeat([]byte{0xEE}, n+8)
		pg := buf[:n:n]
		if err := ApplyImage(pg, data); err != nil && !bytes.Equal(pg, bytes.Repeat([]byte{0xEE}, n)) {
			t.Fatal("a refused patch wrote the page")
		}
		if !bytes.Equal(buf[n:], bytes.Repeat([]byte{0xEE}, 8)) {
			t.Fatal("a patch wrote past the page")
		}
	})
}
