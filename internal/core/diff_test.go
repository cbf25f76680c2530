package core

import (
	"math/rand"
	"testing"

	"quickstore/internal/disk"
	"quickstore/internal/pagedelta"
	"quickstore/internal/wal"
)

// diffRegionsRef is the original byte-at-a-time scanner, kept as the oracle
// for the word-at-a-time fast path in diffRegions.
func diffRegionsRef(old, cur []byte, hdr int) []pagedelta.Region {
	n := len(cur)
	if len(old) < n {
		n = len(old)
	}
	var regs []pagedelta.Region
	i := 0
	for i < n {
		if old[i] == cur[i] {
			i++
			continue
		}
		j := i + 1
		for j < n && old[j] != cur[j] {
			j++
		}
		if len(regs) > 0 {
			last := &regs[len(regs)-1]
			gap := i - (last.Off + last.N)
			if 2*gap <= hdr {
				last.N = j - last.Off
				i = j
				continue
			}
		}
		regs = append(regs, pagedelta.Region{Off: i, N: j - i})
		i = j
	}
	if len(cur) > len(old) {
		regs = append(regs, pagedelta.Region{Off: len(old), N: len(cur) - len(old)})
	}
	return regs
}

func bytesEqualRef(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func regionsMatch(a, b []pagedelta.Region) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mutatePage flips count bytes of cur at random offsets, in clusters whose
// size is also random, so runs of difference cross word boundaries in every
// alignment.
func mutatePage(rng *rand.Rand, cur []byte, count int) {
	for f := 0; f < count; f++ {
		off := rng.Intn(len(cur))
		run := 1 + rng.Intn(17)
		for k := 0; k < run && off+k < len(cur); k++ {
			cur[off+k] ^= byte(1 + rng.Intn(255))
		}
	}
}

// TestDiffRegionsMatchesReference drives the SWAR scanner against the
// byte-at-a-time oracle across page sizes, alignments, and mutation
// densities, including the unequal-length (page growth) case.
func TestDiffRegionsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 4096, disk.PageSize}
	for _, size := range sizes {
		for trial := 0; trial < 50; trial++ {
			old := make([]byte, size)
			rng.Read(old)
			cur := append([]byte(nil), old...)
			if size > 0 {
				mutatePage(rng, cur, 1+rng.Intn(8))
			}
			// Occasionally grow or shrink cur to cover the tail region.
			switch trial % 5 {
			case 3:
				cur = append(cur, make([]byte, 1+rng.Intn(32))...)
				rng.Read(cur[size:])
			case 4:
				cur = cur[:size-size/4]
			}
			got := pagedelta.Regions(old, cur, wal.HeaderBytes)
			want := diffRegionsRef(old, cur, wal.HeaderBytes)
			if !regionsMatch(got, want) {
				t.Fatalf("size %d trial %d: diffRegions=%v want %v", size, trial, got, want)
			}
			if e, w := bytesEqual(old, cur), bytesEqualRef(old, cur); e != w {
				t.Fatalf("size %d trial %d: bytesEqual=%v want %v", size, trial, e, w)
			}
		}
	}
}

// TestDiffRegionsAllAlignments pins down the word-boundary edge cases: a
// single changed byte at every offset of a small buffer, and difference
// runs starting and ending at every alignment.
func TestDiffRegionsAllAlignments(t *testing.T) {
	const size = 40
	old := make([]byte, size)
	for off := 0; off < size; off++ {
		for runLen := 1; runLen <= 3; runLen++ {
			cur := append([]byte(nil), old...)
			for k := 0; k < runLen && off+k < size; k++ {
				cur[off+k] = 0xFF
			}
			got := pagedelta.Regions(old, cur, wal.HeaderBytes)
			want := diffRegionsRef(old, cur, wal.HeaderBytes)
			if !regionsMatch(got, want) {
				t.Fatalf("off %d run %d: got %v want %v", off, runLen, got, want)
			}
			if bytesEqual(old, cur) {
				t.Fatalf("off %d run %d: bytesEqual claimed equality", off, runLen)
			}
		}
	}
}

func TestBytesEqualWordTail(t *testing.T) {
	for size := 0; size <= 24; size++ {
		a := make([]byte, size)
		for i := range a {
			a[i] = byte(i)
		}
		b := append([]byte(nil), a...)
		if !bytesEqual(a, b) {
			t.Fatalf("size %d: equal slices reported unequal", size)
		}
		for i := 0; i < size; i++ {
			b[i] ^= 0x80
			if bytesEqual(a, b) {
				t.Fatalf("size %d: mismatch at %d missed", size, i)
			}
			b[i] ^= 0x80
		}
	}
}

func benchPages(mutations int) (old, cur []byte) {
	rng := rand.New(rand.NewSource(7))
	old = make([]byte, disk.PageSize)
	rng.Read(old)
	cur = append([]byte(nil), old...)
	if mutations > 0 {
		mutatePage(rng, cur, mutations)
	}
	return old, cur
}

// BenchmarkDiffIdentical is the common commit-path case: the page was
// dirtied but ends the transaction byte-identical (e.g. write then revert);
// the whole scan is the equal fast path.
func BenchmarkDiffIdentical(b *testing.B) {
	old, cur := benchPages(0)
	b.SetBytes(disk.PageSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if regs := pagedelta.Regions(old, cur, wal.HeaderBytes); len(regs) != 0 {
			b.Fatal("identical pages produced regions")
		}
	}
}

// BenchmarkDiffSparse models a typical OO7 update: a handful of small
// scattered field writes on an 8K page.
func BenchmarkDiffSparse(b *testing.B) {
	old, cur := benchPages(6)
	b.SetBytes(disk.PageSize)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += len(pagedelta.Regions(old, cur, wal.HeaderBytes))
	}
	_ = sink
}

// BenchmarkDiffDense rewrites most of the page, exercising the
// skip-different SWAR path.
func BenchmarkDiffDense(b *testing.B) {
	old, cur := benchPages(600)
	b.SetBytes(disk.PageSize)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += len(pagedelta.Regions(old, cur, wal.HeaderBytes))
	}
	_ = sink
}

func BenchmarkDiffReferenceSparse(b *testing.B) {
	old, cur := benchPages(6)
	b.SetBytes(disk.PageSize)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += len(diffRegionsRef(old, cur, wal.HeaderBytes))
	}
	_ = sink
}

func BenchmarkBytesEqual(b *testing.B) {
	old, cur := benchPages(0)
	b.SetBytes(disk.PageSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !bytesEqual(old, cur) {
			b.Fatal("equal pages reported unequal")
		}
	}
}
