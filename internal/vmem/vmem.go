// Package vmem simulates the virtual-memory hardware QuickStore is built
// on: an address space divided into 8K-byte frames, per-frame access
// protections, and a fault handler invoked on protection violations —
// the portable-Go stand-in for mmap/mprotect plus SIGSEGV delivery
// (see DESIGN.md, Substitutions).
//
// A frame can be mapped to a byte slice (in practice, a client buffer-pool
// frame), mirroring how QuickStore maps virtual frames onto ESM buffer
// frames (Figure 1 of the paper). Every persistent load or store issued by
// the application goes through a Space; when the target frame lacks the
// required permission, the registered fault handler runs — exactly where
// the MMU would trap — and the access is retried once.
//
// The Space never allocates backing memory of its own: like the paper's
// mmap file trick (Section 3.2), mapping a huge address range costs only
// bookkeeping — and the bookkeeping is sized by what is mapped, not by the
// range: the frame table is two-level with chunks allocated on first use,
// and the mapped frames are listed so reprotecting "the whole space" visits
// only them.
package vmem

import (
	"encoding/binary"
	"errors"
	"fmt"

	"quickstore/internal/sim"
)

// FrameShift and FrameSize fix the 8K frame geometry shared with disk pages.
const (
	FrameShift = 13
	FrameSize  = 1 << FrameShift
	offMask    = FrameSize - 1
)

// Addr is a simulated virtual address.
type Addr uint64

// FrameBase returns the base address of the frame containing a.
func (a Addr) FrameBase() Addr { return a &^ offMask }

// Offset returns a's offset within its frame.
func (a Addr) Offset() int { return int(a & offMask) }

// Prot is a frame protection level. ProtWrite implies read permission,
// matching the paper's read/write/none flags.
type Prot uint8

// Protection levels.
const (
	ProtNone Prot = iota
	ProtRead
	ProtWrite
)

// String names the protection level.
func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "none"
	case ProtRead:
		return "read"
	case ProtWrite:
		return "write"
	}
	return fmt.Sprintf("Prot(%d)", uint8(p))
}

// Access is the kind of memory access being attempted.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota
	AccessWrite
)

// String names the access kind.
func (a Access) String() string {
	if a == AccessWrite {
		return "write"
	}
	return "read"
}

// allows reports whether protection p admits access a.
func (p Prot) allows(a Access) bool {
	if a == AccessWrite {
		return p == ProtWrite
	}
	return p >= ProtRead
}

// FaultHandler services a protection violation at addr. If it returns nil,
// the faulting access is retried once; a second violation is an error
// (a wild pointer — the dangling-reference behaviour of Section 4.5.2 is
// the application's problem, not the hardware's).
type FaultHandler func(addr Addr, access Access) error

// Errors reported by the space.
var (
	ErrOutOfRange   = errors.New("vmem: address outside the space")
	ErrNoHandler    = errors.New("vmem: protection violation with no fault handler")
	ErrStillFaulted = errors.New("vmem: access still forbidden after fault handling")
	ErrCrossesFrame = errors.New("vmem: access crosses a frame boundary")
	ErrRecursive    = errors.New("vmem: recursive fault")
)

type frame struct {
	prot Prot
	pos  int32  // index in Space.mapped while data != nil
	data []byte // nil when the frame is reserved but unmapped
}

// The frame table is split into chunks of chunkFrames entries (32 KB each),
// allocated the first time a frame in them is mapped or protected.
const (
	chunkShift  = 10
	chunkFrames = 1 << chunkShift
	chunkMask   = chunkFrames - 1
)

// Space is one process's simulated persistent address region.
type Space struct {
	base     Addr
	nframes  uint64
	chunks   []*[chunkFrames]frame
	mapped   []*frame // every frame with data != nil, in no particular order
	handler  FaultHandler
	clock    *sim.Clock
	inFault  bool
	faults   int64
	accesses int64
}

// NewSpace creates a space covering maxFrames frames starting at base
// (base must be frame-aligned).
func NewSpace(base Addr, maxFrames int, clock *sim.Clock) *Space {
	if base&offMask != 0 {
		panic("vmem: unaligned base")
	}
	if clock == nil {
		clock = sim.NewClock(sim.CostModel{})
	}
	return &Space{
		base:    base,
		nframes: uint64(maxFrames),
		chunks:  make([]*[chunkFrames]frame, (maxFrames+chunkMask)>>chunkShift),
		clock:   clock,
	}
}

// ExpectMapped sizes the list of mapped frames for n of them, the most that
// can be mapped at once when every mapping is a frame of an n-frame pool.
func (s *Space) ExpectMapped(n int) {
	if cap(s.mapped) < n {
		s.mapped = append(make([]*frame, 0, n), s.mapped...)
	}
}

// Base returns the first address of the space.
func (s *Space) Base() Addr { return s.base }

// MaxFrames returns the number of frames the space covers.
func (s *Space) MaxFrames() int { return int(s.nframes) }

// SetHandler installs the page-fault handler.
func (s *Space) SetHandler(h FaultHandler) { s.handler = h }

// Faults returns the number of protection violations dispatched.
func (s *Space) Faults() int64 { return s.faults }

// Accesses returns the number of loads/stores issued through the space.
func (s *Space) Accesses() int64 { return s.accesses }

// frameNo returns a's frame number; an address below base wraps to a huge
// number, so one comparison against nframes covers both ends of the range.
func (s *Space) frameNo(a Addr) uint64 { return uint64(a-s.base) >> FrameShift }

// Contains reports whether a falls inside the space.
func (s *Space) Contains(a Addr) bool { return s.frameNo(a) < s.nframes }

func (s *Space) rangeErr(a Addr) error {
	if a < s.base {
		return fmt.Errorf("%w: %#x < base %#x", ErrOutOfRange, a, s.base)
	}
	return fmt.Errorf("%w: %#x beyond %d frames", ErrOutOfRange, a, s.nframes)
}

// frameAt returns the table entry of the frame holding a, or nil when no
// frame of its chunk was ever mapped or protected. With alloc set the chunk
// is created instead.
func (s *Space) frameAt(a Addr, alloc bool) (*frame, error) {
	i := s.frameNo(a)
	if i >= s.nframes {
		return nil, s.rangeErr(a)
	}
	c := s.chunks[i>>chunkShift]
	if c == nil {
		if !alloc {
			return nil, nil
		}
		c = new([chunkFrames]frame)
		s.chunks[i>>chunkShift] = c
	}
	return &c[i&chunkMask], nil
}

// Map binds the frame at frameAddr to data (one page of backing store,
// typically a buffer-pool frame) with the given protection. This is the
// simulated mmap: the same virtual frame may be remapped to different
// buffer frames over time (Figure 1's dynamic physical mapping).
func (s *Space) Map(frameAddr Addr, data []byte, prot Prot) error {
	if frameAddr&offMask != 0 {
		return fmt.Errorf("vmem: Map of unaligned address %#x", frameAddr)
	}
	if len(data) != FrameSize {
		return fmt.Errorf("vmem: Map with %d-byte backing", len(data))
	}
	f, err := s.frameAt(frameAddr, true)
	if err != nil {
		return err
	}
	if f.data == nil {
		f.pos = int32(len(s.mapped))
		s.mapped = append(s.mapped, f)
	}
	f.prot, f.data = prot, data
	return nil
}

// Unmap removes the frame's backing store and protection.
func (s *Space) Unmap(frameAddr Addr) error {
	f, err := s.frameAt(frameAddr, false)
	if err != nil || f == nil {
		return err
	}
	if f.data != nil {
		last := s.mapped[len(s.mapped)-1]
		s.mapped[f.pos] = last
		last.pos = f.pos
		s.mapped = s.mapped[:len(s.mapped)-1]
	}
	*f = frame{}
	return nil
}

// Protect changes the frame's protection without touching its mapping.
func (s *Space) Protect(frameAddr Addr, prot Prot) error {
	f, err := s.frameAt(frameAddr, true)
	if err != nil {
		return err
	}
	f.prot = prot
	return nil
}

// ProtOf returns the frame's current protection.
func (s *Space) ProtOf(frameAddr Addr) (Prot, error) {
	f, err := s.frameAt(frameAddr, false)
	if err != nil || f == nil {
		return ProtNone, err
	}
	return f.prot, nil
}

// Mapped returns the frame's backing slice (nil when unmapped), regardless
// of protection. The fault handler uses this; applications do not.
func (s *Space) Mapped(frameAddr Addr) ([]byte, error) {
	f, err := s.frameAt(frameAddr, false)
	if err != nil || f == nil {
		return nil, err
	}
	return f.data, nil
}

// ProtectAll sets every mapped frame's protection to prot in one operation —
// the single mmap call QuickStore's simplified clock uses to reprotect the
// whole persistent address space when a sweep finds no victim (Section 3.5).
func (s *Space) ProtectAll(prot Prot) {
	for _, f := range s.mapped {
		f.prot = prot
	}
}

// resolve returns the backing bytes for an n-byte access at a, dispatching
// the fault handler when protection forbids it. The path every mapped
// access takes is the range check, the table entry, the protection check
// and the slice; errors and faults are built out of line.
func (s *Space) resolve(a Addr, n int, acc Access) ([]byte, error) {
	off := a.Offset()
	i := s.frameNo(a)
	if off+n > FrameSize || i >= s.nframes {
		return nil, s.badAccess(a, n)
	}
	s.accesses++
	if c := s.chunks[i>>chunkShift]; c != nil {
		if f := &c[i&chunkMask]; f.prot.allows(acc) && f.data != nil {
			return f.data[off : off+n], nil
		}
	}
	return s.fault(a, n, acc)
}

func (s *Space) badAccess(a Addr, n int) error {
	if a.Offset()+n > FrameSize {
		return fmt.Errorf("%w: %#x+%d", ErrCrossesFrame, a, n)
	}
	return s.rangeErr(a)
}

// fault runs the handler for a forbidden access at a (already counted and
// known to be in range) and retries it once.
func (s *Space) fault(a Addr, n int, acc Access) ([]byte, error) {
	if s.handler == nil {
		return nil, fmt.Errorf("%w: %v at %#x", ErrNoHandler, acc, a)
	}
	if s.inFault {
		return nil, fmt.Errorf("%w: %v at %#x", ErrRecursive, acc, a)
	}
	s.faults++
	s.clock.Charge(sim.CtrPageFaultTrap, 1)
	s.inFault = true
	err := s.handler(a, acc)
	s.inFault = false
	if err != nil {
		return nil, err
	}
	f, _ := s.frameAt(a, false)
	if f == nil || !f.prot.allows(acc) || f.data == nil {
		prot := ProtNone
		if f != nil {
			prot = f.prot
		}
		return nil, fmt.Errorf("%w: %v at %#x (prot %v)", ErrStillFaulted, acc, a, prot)
	}
	off := a.Offset()
	return f.data[off : off+n], nil
}

// ReadU8 loads one byte.
func (s *Space) ReadU8(a Addr) (byte, error) {
	b, err := s.resolve(a, 1, AccessRead)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// ReadU16 loads a little-endian uint16.
func (s *Space) ReadU16(a Addr) (uint16, error) {
	b, err := s.resolve(a, 2, AccessRead)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

// ReadU32 loads a little-endian uint32.
func (s *Space) ReadU32(a Addr) (uint32, error) {
	b, err := s.resolve(a, 4, AccessRead)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// ReadU64 loads a little-endian uint64 (the pointer load of Figure 4).
func (s *Space) ReadU64(a Addr) (uint64, error) {
	b, err := s.resolve(a, 8, AccessRead)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// ReadInto copies len(buf) bytes from a.
func (s *Space) ReadInto(a Addr, buf []byte) error {
	b, err := s.resolve(a, len(buf), AccessRead)
	if err != nil {
		return err
	}
	copy(buf, b)
	return nil
}

// WriteU8 stores one byte.
func (s *Space) WriteU8(a Addr, v byte) error {
	b, err := s.resolve(a, 1, AccessWrite)
	if err != nil {
		return err
	}
	b[0] = v
	return nil
}

// WriteU16 stores a little-endian uint16.
func (s *Space) WriteU16(a Addr, v uint16) error {
	b, err := s.resolve(a, 2, AccessWrite)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(b, v)
	return nil
}

// WriteU32 stores a little-endian uint32.
func (s *Space) WriteU32(a Addr, v uint32) error {
	b, err := s.resolve(a, 4, AccessWrite)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(b, v)
	return nil
}

// WriteU64 stores a little-endian uint64 (a pointer store).
func (s *Space) WriteU64(a Addr, v uint64) error {
	b, err := s.resolve(a, 8, AccessWrite)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(b, v)
	return nil
}

// WriteBytes copies data to a.
func (s *Space) WriteBytes(a Addr, data []byte) error {
	b, err := s.resolve(a, len(data), AccessWrite)
	if err != nil {
		return err
	}
	copy(b, data)
	return nil
}
