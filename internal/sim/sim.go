// Package sim provides the deterministic cost model and event counters that
// stand in for the 1994 hardware used in the QuickStore paper (Sun IPX
// server, Sparc ELC client, Ethernet, SunOS 4.1.3).
//
// Every component the paper times — disk reads at the server, page-shipping
// over the network, page-fault traps, mmap protection changes, pointer
// swizzling, page diffing, log forcing — is counted for real by the storage
// and object layers and charged a calibrated per-event cost in microseconds.
// The resulting simulated clock reproduces the *shape* of the paper's
// results (who wins, by what factor, where crossovers fall) deterministically
// on modern hardware, where real wall-clock times would be six orders of
// magnitude off and dominated by noise.
//
// Calibration targets are the paper's Table 5 (average cost per fault) and
// Table 6 (detailed QuickStore fault-cost breakdown).
package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Counter identifies one class of costed (or merely counted) event.
type Counter int

// The counter space. Counters marked (costed) carry a nonzero default cost
// in DefaultCostModel; the rest are bookkeeping used by the experiment
// harness and tests.
const (
	// Client/server I/O path.
	CtrClientRead      Counter = iota // client page read requests sent to the server (the paper's "client I/O requests")
	CtrClientWrite                    // dirty pages shipped to the server at commit
	CtrServerDiskRead                 // server buffer misses that hit the disk (costed)
	CtrServerBufferHit                // server buffer hits: network + server CPU only (costed)
	CtrServerDiskWrite                // server page write-backs (costed)

	// Virtual-memory machinery (QuickStore side).
	CtrPageFaultTrap // protection violations delivered to the fault handler (costed)
	CtrMinFault      // faults that need no I/O; models the ELC's virtually-mapped cache flushes (costed)
	CtrMmapCall      // protection/mapping changes, the paper's mmap system calls (costed)
	CtrMapEntry      // mapping-object entries processed during swizzling (costed)
	CtrMapObjectRead // pages of mapping objects fetched (counted; I/O is charged via CtrClientRead path)
	CtrBitmapRead    // bitmap objects fetched when swizzling is required
	CtrSwizzledPtr   // pointers actually rewritten because of a frame collision (costed)
	CtrMiscFaultCPU  // per-fault residency checks / table lookups (costed)

	// Software (EPVM) machinery.
	CtrInterpCall     // EPVM interpreter entries: unswizzled dereference or update (costed)
	CtrResidencyCheck // inline residency checks on swizzled pointers (costed)
	CtrBigPtrDeref    // 16-byte OID dereferences, dearer than an 8-byte load (costed)

	// Recovery and commit path.
	CtrRecoveryCopy    // pages copied into the recovery buffer on first write fault (costed)
	CtrLockUpgrade     // exclusive page-lock acquisitions on first update (costed)
	CtrPageDiff        // pages diffed against their recovery-buffer copy (costed)
	CtrDiffByte        // bytes compared while diffing (costed)
	CtrLogRecord       // log records generated (costed: ESM call + ~50B header)
	CtrLogByte         // log payload bytes written
	CtrMapUpdate       // mapping objects recomputed for modified pages (costed)
	CtrCommitFlushPage // dirty pages forced to the server at commit (costed)
	CtrSideBufferCopy  // EPVM object copies into the side buffer (costed)

	// Mapping-object read-ahead (internal/prefetch). Bookkeeping only: the
	// server charges a page read ahead exactly what it charges a demand
	// read, when it serves it.
	CtrPrefetchIssued // pages asked for ahead of any use
	CtrPrefetchBatch  // OpReadPages round trips a pump issued (riders go in the demand read's)
	CtrPrefetchHit    // faults satisfied by a speculative frame (no server round trip)
	CtrPrefetchWasted // speculative frames evicted, dropped or retired before any use

	// Application-level work, used for the hot (in-memory) results and the
	// Table 7 CPU profile.
	CtrDeref      // pointer dereferences performed by the application
	CtrFieldRead  // scalar field reads
	CtrFieldWrite // scalar field writes
	CtrIterAlloc  // transient iterator objects allocated (the paper's malloc bucket)
	CtrPartSetOp  // visited-set operations (the paper's "part set" bucket)
	CtrIndexOp    // B-tree operations
	CtrByteScan   // single-character accesses to large objects (T8/T9)

	NumCounters // sentinel
)

var counterNames = [NumCounters]string{
	"client.read", "client.write", "server.disk.read", "server.buffer.hit", "server.disk.write",
	"vm.fault.trap", "vm.fault.min", "vm.mmap", "vm.map.entry", "vm.map.read", "vm.bitmap.read",
	"vm.swizzled.ptr", "vm.fault.misc",
	"sw.interp.call", "sw.residency.check", "sw.bigptr.deref",
	"rec.copy", "rec.lock.upgrade", "rec.page.diff", "rec.diff.byte", "rec.log.record",
	"rec.log.byte", "rec.map.update", "rec.commit.flush", "rec.side.copy",
	"pf.issued", "pf.batch", "pf.hit", "pf.wasted",
	"app.deref", "app.field.read", "app.field.write", "app.iter.alloc", "app.part.set",
	"app.index.op", "app.byte.scan",
}

// String returns the stable dotted name of the counter.
func (c Counter) String() string {
	if c < 0 || c >= NumCounters {
		return fmt.Sprintf("counter(%d)", int(c))
	}
	return counterNames[c]
}

// CostModel maps each counter to a cost in microseconds per event. A zero
// cost means the event is counted but free; the harness still reports it.
type CostModel [NumCounters]float64

// DefaultCostModel is calibrated against the paper's Tables 5 and 6:
// a cold QuickStore fault during T1 costs ~29-30ms, of which data I/O is
// ~82-85%, mapping I/O ~3.5%, the trap ~2-3%, mmap ~3%, min faults ~5-6%,
// and swizzling 1-2%; an E fault costs ~20% less (no map I/O, no trap, no
// mmap, no min fault). Update-path costs come from Section 5.2's detailed
// T2A measurements (7.3ms recovery copy, 2.8ms lock upgrade, 0.9ms mmap,
// 6.7-12.9ms page diff).
func DefaultCostModel() CostModel {
	var m CostModel
	m[CtrServerDiskRead] = 21500 // disk seek+read at the server
	m[CtrServerBufferHit] = 3300 // network round trip + server CPU, no disk
	m[CtrServerDiskWrite] = 9000 // asynchronous-ish write-back at the server
	m[CtrPageFaultTrap] = 500    // detect the illegal access, enter the handler
	m[CtrMinFault] = 800         // virtually-mapped CPU cache flush (Section 3.2)
	m[CtrMmapCall] = 800         // one mmap protection change
	m[CtrMapEntry] = 18          // process one mapping-object entry (lookup/create)
	m[CtrSwizzledPtr] = 25       // locate the moved range and rewrite one pointer
	m[CtrMiscFaultCPU] = 800     // table lookup, residency/status checks per fault
	m[CtrInterpCall] = 3         // one EPVM interpreter entry
	m[CtrResidencyCheck] = 0.25  // inline residency check on a swizzled pointer
	m[CtrBigPtrDeref] = 0.3      // extra cost of following a 16-byte OID
	m[CtrRecoveryCopy] = 7300    // copy one page's objects into the recovery buffer
	m[CtrLockUpgrade] = 2800     // obtain an exclusive page lock from ESM
	m[CtrPageDiff] = 4000        // fixed per-page diff overhead
	m[CtrDiffByte] = 0.33        // per-byte compare while diffing (8K page ≈ 2.7ms)
	m[CtrLogRecord] = 370        // ESM log-record call incl. ~50-byte header
	m[CtrLogByte] = 0.09         // per-byte log payload cost
	m[CtrMapUpdate] = 7200       // recompute + rewrite one page's mapping object
	m[CtrCommitFlushPage] = 7500 // force one dirty page (and its log) to the server
	m[CtrSideBufferCopy] = 450   // EPVM copies one object into its side buffer
	m[CtrDeref] = 0.08           // raw in-memory dereference (both systems, hot)
	m[CtrFieldRead] = 0.05
	m[CtrFieldWrite] = 0.06
	m[CtrIterAlloc] = 22  // heap-allocate one iterator (1994 malloc; Table 7's dominant bucket)
	m[CtrPartSetOp] = 9   // insert/lookup in the visited-part set
	m[CtrIndexOp] = 95    // one B-tree lookup/insert (in memory)
	m[CtrByteScan] = 0.09 // one character access through a plain pointer
	return m
}

// Clock is a deterministic simulated clock: events are counted and charged
// model costs; Elapsed is the sum.
//
// A clock has one owner goroutine — the session's application thread, the
// only one the paper's client process has — and two ways in:
//
//   - Charge, AddMicros, Reset and every reader (Count, Micros,
//     ElapsedMicros, Snapshot) belong to the owner. Charge is a plain add
//     with no lock and no atomic: it sits under every persistent
//     dereference, where the store must cost a load, not a mutex.
//   - ChargeShared and SharedCount are for everyone else: page-server
//     handlers (which share the session's clock in the single-process
//     experiment harness and run on connection goroutines), and anything
//     else that is not the owner. They serialize
//     on mu and account into a lane of their own.
//
// Readers add the two lanes counter by counter. Each lane accumulates its
// microseconds eagerly, charge by charge, rather than multiplying count by
// cost at report time: the paper tables print these floats, and summing
// them in any other order would move their last digits. A reader that is
// not the owner must be ordered after the owner's charges by something else
// (the harness reads between operations); a clock nobody owns — a server
// with no co-located session — is read through SharedCount.
type Clock struct {
	model CostModel

	// Owner lane: touched only by the owner goroutine.
	counts [NumCounters]int64
	micros [NumCounters]float64
	extra  float64 // uncategorised microseconds added via AddMicros

	mu           sync.Mutex
	sharedCounts [NumCounters]int64
	sharedMicros [NumCounters]float64
}

// NewClock returns a clock using the given cost model.
func NewClock(model CostModel) *Clock {
	return &Clock{model: model}
}

// Charge records n events of class c and advances the clock by n times the
// model cost of c. Owner goroutine only; see ChargeShared.
func (k *Clock) Charge(c Counter, n int64) {
	k.counts[c] += n
	k.micros[c] += float64(n) * k.model[c]
}

// ChargeShared is Charge for goroutines that do not own the clock.
func (k *Clock) ChargeShared(c Counter, n int64) {
	k.mu.Lock()
	k.sharedCounts[c] += n
	k.sharedMicros[c] += float64(n) * k.model[c]
	k.mu.Unlock()
}

// AddMicros advances the clock by us microseconds without counting an event.
func (k *Clock) AddMicros(us float64) { k.extra += us }

// Count returns the number of events recorded for c.
func (k *Clock) Count(c Counter) int64 { return k.counts[c] + k.SharedCount(c) }

// SharedCount returns the events recorded for c through ChargeShared alone.
// Unlike the other readers it is safe on any goroutine.
func (k *Clock) SharedCount(c Counter) int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.sharedCounts[c]
}

// Micros returns the microseconds charged to counter c so far.
func (k *Clock) Micros(c Counter) float64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.micros[c] + k.sharedMicros[c]
}

// ElapsedMicros returns the total simulated time in microseconds.
func (k *Clock) ElapsedMicros() float64 { return k.Snapshot().ElapsedMicros() }

// Snapshot captures the clock's current counters and times.
func (k *Clock) Snapshot() Snapshot {
	s := Snapshot{counts: k.counts, micros: k.micros, extra: k.extra}
	k.mu.Lock()
	defer k.mu.Unlock()
	for c := range s.counts {
		s.counts[c] += k.sharedCounts[c]
		s.micros[c] += k.sharedMicros[c]
	}
	return s
}

// Reset zeroes all counters and the clock.
func (k *Clock) Reset() {
	k.counts = [NumCounters]int64{}
	k.micros = [NumCounters]float64{}
	k.extra = 0
	k.mu.Lock()
	k.sharedCounts = [NumCounters]int64{}
	k.sharedMicros = [NumCounters]float64{}
	k.mu.Unlock()
}

// Model returns a copy of the clock's cost model.
func (k *Clock) Model() CostModel { return k.model }

// Snapshot is an immutable copy of a Clock's state, used to compute
// per-phase deltas (cold vs hot, per-traversal, per-commit).
type Snapshot struct {
	counts [NumCounters]int64
	micros [NumCounters]float64
	extra  float64
}

// Count returns the snapshot's event count for c.
func (s Snapshot) Count(c Counter) int64 { return s.counts[c] }

// Micros returns the snapshot's charged microseconds for c.
func (s Snapshot) Micros(c Counter) float64 { return s.micros[c] }

// ElapsedMicros returns the snapshot's total simulated microseconds.
func (s Snapshot) ElapsedMicros() float64 {
	t := s.extra
	for _, us := range s.micros {
		t += us
	}
	return t
}

// Sub returns the delta s minus earlier, counter by counter.
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	d := Snapshot{extra: s.extra - earlier.extra}
	for i := range s.counts {
		d.counts[i] = s.counts[i] - earlier.counts[i]
		d.micros[i] = s.micros[i] - earlier.micros[i]
	}
	return d
}

// String renders the nonzero counters of the snapshot, sorted by charged
// time descending, for debugging and the faultviz example.
func (s Snapshot) String() string {
	type row struct {
		c  Counter
		n  int64
		us float64
	}
	var rows []row
	for c := Counter(0); c < NumCounters; c++ {
		if s.counts[c] != 0 {
			rows = append(rows, row{c, s.counts[c], s.micros[c]})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].us > rows[j].us })
	var b strings.Builder
	fmt.Fprintf(&b, "total %.1fms\n", s.ElapsedMicros()/1000)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-20s %10d  %10.1fms\n", r.c, r.n, r.us/1000)
	}
	return b.String()
}
