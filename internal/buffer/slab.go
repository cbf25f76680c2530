package buffer

import "quickstore/internal/disk"

// slabFrames is how many 8 KB frame images one allocation carries (512 KB).
// A frame gets its image the first time it takes a page and keeps it for
// life, so a pool's memory is the high-water mark of its resident pages, in
// whole slabs, never its capacity. Slabs rather than one allocation per
// frame keep a pool built per operation (a cold session) to a handful of
// allocations; one slab per pool rather than per stripe keeps a small
// database spread over every stripe to one slab, not one per stripe.
const slabFrames = 64

// slab hands out frame images, at most its pool's capacity in total.
type slab struct {
	limit     int    // the pool's capacity in frames
	allocated int    // images allocated so far, handed out or spare
	spare     []byte // images allocated but not yet handed out
}

// image returns a fresh PageSize image. Each frame asks once, so the pool's
// capacity bounds the calls.
func (s *slab) image() []byte {
	if len(s.spare) == 0 {
		n := min(slabFrames, s.limit-s.allocated)
		s.spare = make([]byte, n*disk.PageSize)
		s.allocated += n
	}
	img := s.spare[:disk.PageSize:disk.PageSize]
	s.spare = s.spare[disk.PageSize:]
	return img
}
