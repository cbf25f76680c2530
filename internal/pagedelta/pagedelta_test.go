package pagedelta

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// Property: Apply(old, Encode(old, cur)) == cur for random mutations, and
// a non-nil patch is strictly smaller than the page.
func TestEncodeApplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		size := []int{64, 512, 8192}[trial%3]
		old := make([]byte, size)
		rng.Read(old)
		cur := append([]byte(nil), old...)
		muts := rng.Intn(20)
		for m := 0; m < muts; m++ {
			off := rng.Intn(size)
			n := 1 + rng.Intn(64)
			if off+n > size {
				n = size - off
			}
			for i := 0; i < n; i++ {
				cur[off+i] = byte(rng.Int())
			}
		}
		patch := Encode(old, cur)
		if patch == nil {
			if bytes.Equal(old, cur) {
				continue // no change: full ship of identical bytes is fine
			}
			// nil means "ship full page" — only legal when the patch
			// would not have been smaller; verify by re-deriving regions.
			total := 0
			for _, r := range Regions(old, cur, 2*runHdr) {
				total += runHdr + r.N
			}
			if total < size {
				t.Fatalf("trial %d: Encode returned nil but patch of %d bytes beats page of %d", trial, total, size)
			}
			continue
		}
		if len(patch) >= size {
			t.Fatalf("trial %d: patch (%d bytes) not smaller than page (%d)", trial, len(patch), size)
		}
		got := append([]byte(nil), old...)
		if err := Apply(got, patch); err != nil {
			t.Fatalf("trial %d: Apply: %v", trial, err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatalf("trial %d: Apply(old, Encode(old, cur)) != cur", trial)
		}
	}
}

func TestEncodeIdentical(t *testing.T) {
	page := make([]byte, 8192)
	for i := range page {
		page[i] = byte(i)
	}
	if patch := Encode(page, page); patch != nil {
		t.Fatalf("identical pages produced patch of %d bytes", len(patch))
	}
}

func TestEncodeLengthMismatch(t *testing.T) {
	if Encode(make([]byte, 10), make([]byte, 20)) != nil {
		t.Fatal("length mismatch must force full ship")
	}
}

func TestEncodeWholePageChanged(t *testing.T) {
	old := make([]byte, 8192)
	cur := make([]byte, 8192)
	for i := range cur {
		cur[i] = 0xFF
	}
	if patch := Encode(old, cur); patch != nil {
		t.Fatalf("whole-page change must force full ship, got %d-byte patch", len(patch))
	}
}

// Apply must reject malformed patches without touching the page.
func TestApplyRejectsMalformed(t *testing.T) {
	mk := func(runs ...[3]interface{}) []byte { // off, n, payloadLen
		var out []byte
		for _, r := range runs {
			out = binary.LittleEndian.AppendUint16(out, uint16(r[0].(int)))
			out = binary.LittleEndian.AppendUint16(out, uint16(r[1].(int)))
			out = append(out, make([]byte, r[2].(int))...)
		}
		return out
	}
	cases := []struct {
		name  string
		patch []byte
	}{
		{"truncated header", []byte{1, 0, 4}},
		{"empty run", mk([3]interface{}{0, 0, 0})},
		{"out of bounds", mk([3]interface{}{60, 10, 10})},
		{"truncated payload", mk([3]interface{}{0, 10, 5})},
		{"overlap", mk([3]interface{}{0, 8, 8}, [3]interface{}{4, 4, 4})},
		{"reorder", mk([3]interface{}{32, 4, 4}, [3]interface{}{0, 4, 4})},
	}
	for _, tc := range cases {
		page := make([]byte, 64)
		for i := range page {
			page[i] = byte(i)
		}
		want := append([]byte(nil), page...)
		if err := Apply(page, tc.patch); err == nil {
			t.Errorf("%s: Apply accepted malformed patch", tc.name)
		}
		if !bytes.Equal(page, want) {
			t.Errorf("%s: rejected patch modified the page", tc.name)
		}
	}
}

// Truncating a valid patch at every possible point must either fail or
// (at exact run boundaries) apply a prefix of the runs — never corrupt
// out-of-run bytes.
func TestApplyTruncations(t *testing.T) {
	old := make([]byte, 256)
	cur := append([]byte(nil), old...)
	for _, off := range []int{3, 70, 200} {
		for i := 0; i < 9; i++ {
			cur[off+i] = 0xAB
		}
	}
	patch := Encode(old, cur)
	if patch == nil {
		t.Fatal("expected a patch")
	}
	for cut := 0; cut < len(patch); cut++ {
		page := append([]byte(nil), old...)
		err := Apply(page, patch[:cut])
		boundary := isRunBoundary(patch, cut)
		if boundary && err != nil {
			t.Fatalf("cut %d at run boundary rejected: %v", cut, err)
		}
		if !boundary && err == nil {
			t.Fatalf("cut %d mid-run accepted", cut)
		}
		if err != nil && !bytes.Equal(page, old) {
			t.Fatalf("cut %d: failed Apply modified the page", cut)
		}
	}
}

func isRunBoundary(patch []byte, cut int) bool {
	p := 0
	for p < cut {
		n := int(binary.LittleEndian.Uint16(patch[p+2:]))
		p += runHdr + n
	}
	return p == cut
}

// FuzzApply feeds arbitrary patches to Apply; it must never panic and a
// successful Apply must consume a well-formed patch.
func FuzzApply(f *testing.F) {
	f.Add([]byte{}, 64)
	f.Add([]byte{0, 0, 4, 0, 1, 2, 3, 4}, 64)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, 8192)
	f.Fuzz(func(t *testing.T, patch []byte, pageLen int) {
		if pageLen < 0 || pageLen > 1<<16 {
			t.Skip()
		}
		page := make([]byte, pageLen)
		before := append([]byte(nil), page...)
		if err := Apply(page, patch); err != nil {
			if !bytes.Equal(page, before) {
				t.Fatal("failed Apply modified the page")
			}
		}
	})
}

// Fuzz the encoder end-to-end: any pair of equal-length images must
// round-trip through Encode/Apply.
func FuzzEncodeApply(f *testing.F) {
	f.Add([]byte("hello world"), []byte("hello gopher"))
	f.Fuzz(func(t *testing.T, old, cur []byte) {
		if len(old) != len(cur) {
			old = old[:min(len(old), len(cur))]
			cur = cur[:len(old)]
		}
		patch := Encode(old, cur)
		if patch == nil {
			return
		}
		got := append([]byte(nil), old...)
		if err := Apply(got, patch); err != nil {
			t.Fatalf("Apply of own Encode failed: %v", err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatal("round trip mismatch")
		}
	})
}

// TestAppendRegionsKeepsPrefix: the regions found are appended after what
// dst already holds, and the merge rule never reaches back into that prefix
// even when the first new region starts right next to it.
func TestAppendRegionsKeepsPrefix(t *testing.T) {
	old := make([]byte, 256)
	cur := append([]byte(nil), old...)
	cur[10], cur[12], cur[200] = 1, 1, 1
	want := Regions(old, cur, 16)
	prefix := []Region{{Off: 0, N: 10}}
	got := AppendRegions(prefix, old, cur, 16)
	if len(got) != 1+len(want) || got[0] != prefix[0] {
		t.Fatalf("AppendRegions = %v, want %v followed by %v", got, prefix, want)
	}
	for i, r := range want {
		if got[1+i] != r {
			t.Fatalf("AppendRegions = %v, want %v followed by %v", got, prefix, want)
		}
	}
}

// TestAppendRunsMergesRegions: unsorted, overlapping and touching regions
// become ascending, non-overlapping runs that Apply accepts and that bring
// a page agreeing with cur outside the regions to cur; a region past a
// run's u16 limit is split; and Encode, which now writes its runs through
// AppendRuns, emits exactly what the earlier inline encoder did on the
// inputs of the Encode tests above.
func TestAppendRunsMergesRegions(t *testing.T) {
	cur := make([]byte, 8192)
	for i := range cur {
		cur[i] = byte(i*7 + 1)
	}
	regs := []Region{{Off: 900, N: 10}, {Off: 0, N: 8}, {Off: 100, N: 20}, {Off: 110, N: 5},
		{Off: 120, N: 4}, {Off: 128, N: 1}, {Off: 8000, N: 192}, {Off: 905, N: 2}, {Off: 50, N: 0}}
	patch := AppendRuns([]byte("prefix"), cur, regs)
	if string(patch[:6]) != "prefix" {
		t.Fatalf("AppendRuns overwrote dst's prefix: %q", patch[:6])
	}
	patch = patch[6:]
	// [0,8), [100,129) (touching at 120, gap 4 before 128), [900,910), [8000,8192).
	want := [][2]int{{0, 8}, {100, 29}, {900, 10}, {8000, 192}}
	var got [][2]int
	for p := 0; p < len(patch); {
		off, n := int(binary.LittleEndian.Uint16(patch[p:])), int(binary.LittleEndian.Uint16(patch[p+2:]))
		got = append(got, [2]int{off, n})
		p += runHdr + n
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("runs %v, want %v", got, want)
	}
	base := append([]byte(nil), cur...)
	for _, r := range want {
		clear(base[r[0] : r[0]+r[1]])
	}
	if err := Apply(base, patch); err != nil {
		t.Fatalf("Apply rejected AppendRuns' patch: %v", err)
	}
	if !bytes.Equal(base, cur) {
		t.Fatal("the patch does not reproduce cur over its regions")
	}

	big := make([]byte, maxRun+1)
	for i := range big {
		big[i] = byte(i)
	}
	split := AppendRuns(nil, big, []Region{{Off: 0, N: len(big)}})
	into := make([]byte, len(big))
	if err := Apply(into, split); err != nil {
		t.Fatalf("Apply rejected a split region: %v", err)
	}
	if !bytes.Equal(into, big) || len(split) != 2*runHdr+len(big) {
		t.Fatalf("a %d-byte region became %d patch bytes, want two runs", len(big), len(split))
	}

	rng := rand.New(rand.NewSource(1))
	inputs := [][2][]byte{
		{make([]byte, 10), make([]byte, 20)},
		{make([]byte, 8192), bytes.Repeat([]byte{0xFF}, 8192)},
	}
	ident := make([]byte, 8192)
	for i := range ident {
		ident[i] = byte(i)
	}
	inputs = append(inputs, [2][]byte{ident, ident})
	for trial := 0; trial < 500; trial++ {
		size := []int{64, 512, 8192}[trial%3]
		old := make([]byte, size)
		rng.Read(old)
		cur := append([]byte(nil), old...)
		for m := rng.Intn(20); m > 0; m-- {
			off := rng.Intn(size)
			for i := 0; i < 1+rng.Intn(64) && off+i < size; i++ {
				cur[off+i] = byte(rng.Int())
			}
		}
		inputs = append(inputs, [2][]byte{old, cur})
	}
	for i, in := range inputs {
		if got, want := Encode(in[0], in[1]), encodeInline(in[0], in[1]); !bytes.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("input %d: Encode = %d bytes, the inline encoder %d", i, len(got), len(want))
		}
	}
}

// encodeInline is Encode as it was before AppendRuns existed, kept as the
// reference its output must not drift from.
func encodeInline(old, cur []byte) []byte {
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
	out := make([]byte, 0, size)
	for _, r := range regs {
		for off, n := r.Off, r.N; n > 0; {
			run := n
			if run > maxRun {
				run = maxRun
			}
			out = binary.LittleEndian.AppendUint16(out, uint16(off))
			out = binary.LittleEndian.AppendUint16(out, uint16(run))
			out = append(out, cur[off:off+run]...)
			off += run
			n -= run
		}
	}
	return out
}
