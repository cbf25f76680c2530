// Package faultinject is the deterministic fault plane behind the crash
// drill (internal/harness, `qsstore crashdrill`). A Plane is threaded
// through the storage stack — internal/disk wraps volumes with it
// (disk.WithHook) and internal/wal consults it through Log.FlushHook — and
// the ESM server checks named crash points on its durability-critical
// paths (commit, abort, buffer-pool steal, checkpoint).
//
// Faults are seeded and replayable: the same seed, arming, and workload
// produce the same injection, so every drill failure is a deterministic
// regression test. Three fault families are supported:
//
//   - Crashes: a named point fires after its n-th hit; from then on the
//     plane is "crashed" and every instrumented operation fails with
//     ErrCrash, modeling a killed server process. A crash that fires
//     inside a page write may tear it (a prefix of the new image lands,
//     the rest keeps the old bytes); a crash inside a log flush may make
//     only a prefix of the pending bytes durable (torn log tail).
//   - Transient errors: a point fails with ErrTransient for a bounded
//     number of hits, then heals — the client retry wrapper's diet.
//   - Tears without crash are not modeled: page writes are atomic unless
//     the crash lands inside one (the ARIES-era atomic-page-write
//     assumption; see DESIGN.md §9).
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
)

// Errors injected by a Plane. They cross the client-server protocol as
// strings, so classification (IsCrash, IsTransient) matches substrings as
// well as wrapped errors.
var (
	ErrCrash     = errors.New("faultinject: crash injected")
	ErrTransient = errors.New("faultinject: transient I/O error")
	// ErrDown is a crashed process's answer to a request it refused before
	// running any of it (the crashed latch of esm.Server and repl.Node).
	// It is a crash (IsCrash); IsDown tells it from a crash that fired
	// inside a request, which may have run part of it.
	ErrDown = fmt.Errorf("%w: process down, request not run", ErrCrash)
)

// IsCrash reports whether err is (or carries, possibly as a remote error
// string) an injected crash.
func IsCrash(err error) bool {
	return err != nil && (errors.Is(err, ErrCrash) || strings.Contains(err.Error(), ErrCrash.Error()))
}

// IsDown reports whether err is (or carries) a crashed process's refusal of
// a request it never ran.
func IsDown(err error) bool {
	return err != nil && (errors.Is(err, ErrDown) || strings.Contains(err.Error(), ErrDown.Error()))
}

// IsTransient reports whether err is (or carries) an injected transient
// fault, the class the ESM client's retry wrapper may safely retry.
func IsTransient(err error) bool {
	return err != nil && (errors.Is(err, ErrTransient) || strings.Contains(err.Error(), ErrTransient.Error()))
}

// The named fault points (the Point type, its Pt* constants and
// AllPoints) live in points.go, generated from the registry table in
// gen/main.go.
//go:generate go run ./gen

// Plane is one deterministic fault-injection plane. The zero value is not
// usable; construct with New. A nil *Plane is inert: every method is a
// no-op and Hit returns nil, so production paths pay one nil check.
type Plane struct {
	mu        sync.Mutex
	rng       *rand.Rand
	crashed   bool
	arms      [numPoints]int // hits left before the point's crash fires; 0 = unarmed
	transient [numPoints]int // hits left that fail transiently
	tornMin   int            // torn-write prefix bounds (bytes of the new image that land)
	tornMax   int
	shortTail bool // crash inside a log flush keeps only a prefix durable
	hits      [numPoints]int
	trace     []string
}

// New creates a plane whose randomized choices (which byte a write tears
// at, how much of a log flush survives) are driven by seed.
func New(seed int64) *Plane {
	return &Plane{rng: rand.New(rand.NewSource(seed))}
}

// ArmCrash schedules a crash at the n-th future hit of point (n >= 1).
func (p *Plane) ArmCrash(point Point, n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n < 1 {
		n = 1
	}
	p.arms[point] = n
}

// ArmTransient makes the next `times` hits of point fail with ErrTransient.
func (p *Plane) ArmTransient(point Point, times int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.transient[point] = times
}

// SetTornWrite bounds the prefix of the new page image that reaches the
// volume when a crash fires inside a page write: a seeded length in
// [min, max] bytes lands, the rest of the page keeps its old contents.
// Without this call, page writes are atomic (all-or-nothing at a crash).
func (p *Plane) SetTornWrite(min, max int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tornMin, p.tornMax = min, max
}

// SetShortFlush makes a crash that fires inside a log flush keep only a
// seeded prefix of the pending bytes — a torn log tail for OpenFileLog's
// CRC scan to prune.
func (p *Plane) SetShortFlush(on bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shortTail = on
}

// Hit records one arrival at point and returns the injected fault, if any:
// nil, ErrTransient (heals after its budget), or ErrCrash (permanent until
// Reset — the process is dead).
func (p *Plane) Hit(point Point) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hitLocked(point)
}

func (p *Plane) hitLocked(point Point) error {
	if p.crashed {
		return ErrCrash
	}
	p.hits[point]++
	if p.transient[point] > 0 {
		p.transient[point]--
		p.trace = append(p.trace, fmt.Sprintf("transient@%s#%d", point, p.hits[point]))
		return fmt.Errorf("%w (point %s)", ErrTransient, point)
	}
	if p.arms[point] > 0 {
		p.arms[point]--
		if p.arms[point] == 0 {
			p.crashed = true
			p.trace = append(p.trace, fmt.Sprintf("crash@%s#%d", point, p.hits[point]))
			return fmt.Errorf("%w (point %s)", ErrCrash, point)
		}
	}
	return nil
}

// Crashed reports whether an armed crash has fired.
func (p *Plane) Crashed() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashed
}

// Reset disarms every fault and clears the crashed latch, modeling the
// restart of the killed process before the volume and log are reopened.
func (p *Plane) Reset() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crashed = false
	p.arms = [numPoints]int{}
	p.transient = [numPoints]int{}
	p.tornMin, p.tornMax = 0, 0
	p.shortTail = false
}

// Hits returns how many times point has been reached (crashed hits after
// the latch are not counted).
func (p *Plane) Hits(point Point) int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits[point]
}

// Trace returns the fired-fault trace for drill reports.
func (p *Plane) Trace() []string {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.trace...)
}

// BeforeRead implements disk.IOHook.
func (p *Plane) BeforeRead(id uint32) error { return p.Hit(PtDiskRead) }

// BeforeWrite implements disk.IOHook: on a crash it also decides how much
// of the new image lands (0 = the write never happened, pageSize = it
// completed just before the process died, anything between = torn).
func (p *Plane) BeforeWrite(id uint32, pageSize int) (tearPrefix int, err error) {
	if p == nil {
		return pageSize, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	err = p.hitLocked(PtDiskWrite)
	if !IsCrash(err) {
		return pageSize, err
	}
	if p.tornMax > 0 {
		lo, hi := p.tornMin, p.tornMax
		if hi > pageSize {
			hi = pageSize
		}
		if lo > hi {
			lo = hi
		}
		return lo + p.rng.Intn(hi-lo+1), err
	}
	// Atomic page writes: the crashing write is dropped whole.
	return 0, err
}

// FlushHook returns the wal.Log hook enforcing this plane's log faults:
// transient flush failures persist nothing; a crash persists a seeded
// prefix of the pending bytes when short flushes are enabled, or nothing
// otherwise.
func (p *Plane) FlushHook() func(pending int) (int, error) {
	return func(pending int) (int, error) {
		if p == nil {
			return pending, nil
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		err := p.hitLocked(PtLogFlush)
		switch {
		case err == nil:
			return pending, nil
		case IsCrash(err) && p.shortTail && pending > 0:
			return p.rng.Intn(pending), err
		default:
			return 0, err
		}
	}
}
