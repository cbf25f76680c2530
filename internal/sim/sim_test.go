package sim

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestChargeAndElapsed(t *testing.T) {
	var m CostModel
	m[CtrServerDiskRead] = 1000
	m[CtrPageFaultTrap] = 10
	k := NewClock(m)
	k.Charge(CtrServerDiskRead, 3)
	k.Charge(CtrPageFaultTrap, 2)
	k.Charge(CtrDeref, 100) // zero-cost counter: counted, free
	if got := k.Count(CtrServerDiskRead); got != 3 {
		t.Fatalf("count = %d", got)
	}
	if got := k.Count(CtrDeref); got != 100 {
		t.Fatalf("deref count = %d", got)
	}
	want := 3*1000.0 + 2*10.0
	if got := k.ElapsedMicros(); got != want {
		t.Fatalf("elapsed = %v, want %v", got, want)
	}
	k.AddMicros(5)
	if got := k.ElapsedMicros(); got != want+5 {
		t.Fatalf("elapsed after AddMicros = %v", got)
	}
	k.Reset()
	if k.ElapsedMicros() != 0 || k.Count(CtrServerDiskRead) != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestChargeZeroIsNoop(t *testing.T) {
	k := NewClock(DefaultCostModel())
	k.Charge(CtrServerDiskRead, 0)
	if k.Count(CtrServerDiskRead) != 0 {
		t.Fatal("zero charge counted")
	}
}

func TestSnapshotSub(t *testing.T) {
	k := NewClock(DefaultCostModel())
	k.Charge(CtrClientRead, 5)
	s1 := k.Snapshot()
	k.Charge(CtrClientRead, 7)
	k.Charge(CtrMmapCall, 2)
	d := k.Snapshot().Sub(s1)
	if d.Count(CtrClientRead) != 7 {
		t.Fatalf("delta reads = %d", d.Count(CtrClientRead))
	}
	if d.Count(CtrMmapCall) != 2 {
		t.Fatalf("delta mmap = %d", d.Count(CtrMmapCall))
	}
	if d.ElapsedMicros() != 2*DefaultCostModel()[CtrMmapCall] {
		t.Fatalf("delta micros = %v", d.ElapsedMicros())
	}
}

func TestCounterNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < NumCounters; c++ {
		name := c.String()
		if name == "" || strings.HasPrefix(name, "counter(") {
			t.Fatalf("counter %d has no name", c)
		}
		if seen[name] {
			t.Fatalf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
	if !strings.HasPrefix(Counter(-1).String(), "counter(") {
		t.Fatal("out-of-range counter name")
	}
}

func TestSnapshotString(t *testing.T) {
	k := NewClock(DefaultCostModel())
	k.Charge(CtrServerDiskRead, 2)
	k.Charge(CtrMmapCall, 1)
	s := k.Snapshot().String()
	if !strings.Contains(s, "server.disk.read") || !strings.Contains(s, "vm.mmap") {
		t.Fatalf("snapshot string missing counters:\n%s", s)
	}
	// Sorted by charged time: disk read first.
	if strings.Index(s, "server.disk.read") > strings.Index(s, "vm.mmap") {
		t.Fatal("snapshot not sorted by time")
	}
}

func TestDefaultModelCalibration(t *testing.T) {
	m := DefaultCostModel()
	// The paper's Table 6 anchors: data I/O dominates a cold fault.
	faultUs := m[CtrServerDiskRead] + m[CtrServerBufferHit] + m[CtrPageFaultTrap] +
		m[CtrMinFault] + m[CtrMmapCall] + m[CtrMiscFaultCPU]
	ioShare := (m[CtrServerDiskRead] + m[CtrServerBufferHit]) / faultUs
	if ioShare < 0.75 || ioShare > 0.92 {
		t.Errorf("data I/O share of a cold fault = %.2f, want ~0.82-0.85", ioShare)
	}
	// An E fault (just the I/O legs) must be ~20%% cheaper than a QS fault.
	r := faultUs / (m[CtrServerDiskRead] + m[CtrServerBufferHit])
	if r < 1.08 || r > 1.35 {
		t.Errorf("QS/E per-fault ratio = %.2f, want ~1.2", r)
	}
	// Update-path anchors from Section 5.2.
	if m[CtrRecoveryCopy] < 5000 || m[CtrRecoveryCopy] > 10000 {
		t.Errorf("recovery copy = %v, paper ~7.3ms", m[CtrRecoveryCopy])
	}
	if m[CtrLockUpgrade] < 2000 || m[CtrLockUpgrade] > 4000 {
		t.Errorf("lock upgrade = %v, paper ~2.8ms", m[CtrLockUpgrade])
	}
}

func TestClockConcurrency(t *testing.T) {
	k := NewClock(DefaultCostModel())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				k.ChargeShared(CtrClientRead, 1)
			}
		}()
	}
	wg.Wait()
	if got := k.Count(CtrClientRead); got != 8000 {
		t.Fatalf("concurrent count = %d", got)
	}
	if got := k.SharedCount(CtrClientRead); got != 8000 {
		t.Fatalf("shared count = %d", got)
	}
}

// TestClockOwnerAndSharedLanes is the ownership contract under -race: the
// owner charges and reads without a lock while other goroutines charge the
// same counter through the synchronized entry.
func TestClockOwnerAndSharedLanes(t *testing.T) {
	const workers, each = 4, 2000
	k := NewClock(DefaultCostModel())
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				k.ChargeShared(CtrServerBufferHit, 1)
				k.ChargeShared(CtrServerDiskRead, 2)
			}
		}()
	}
	var last int64
	for j := 0; j < each; j++ {
		k.Charge(CtrServerBufferHit, 1)
		k.Charge(CtrDeref, 3)
		s := k.Snapshot()
		if n := s.Count(CtrServerBufferHit); n < last || n < int64(j+1) {
			t.Fatalf("snapshot went backwards: %d after %d (own charges %d)", n, last, j+1)
		} else {
			last = n
		}
		if s.Count(CtrDeref) != int64(3*(j+1)) {
			t.Fatalf("owner lane count = %d, want %d", s.Count(CtrDeref), 3*(j+1))
		}
	}
	wg.Wait()
	if got, want := k.Count(CtrServerBufferHit), int64((workers+1)*each); got != want {
		t.Fatalf("buffer hits = %d, want %d", got, want)
	}
	if got, want := k.SharedCount(CtrServerDiskRead), int64(2*workers*each); got != want {
		t.Fatalf("shared disk reads = %d, want %d", got, want)
	}
}

// TestClockLanesSumLikeOneClock: a costed counter charged through both
// entries reads exactly what a single accumulator charged in the same order
// gives — the property that keeps the paper tables byte-identical.
func TestClockLanesSumLikeOneClock(t *testing.T) {
	m := DefaultCostModel()
	k := NewClock(m)
	var count int64
	var micros float64
	for i := 0; i < 5000; i++ {
		n := int64(i%3 + 1)
		if i%4 == 0 {
			k.Charge(CtrServerBufferHit, n)
		} else {
			k.ChargeShared(CtrServerBufferHit, n)
		}
		count += n
		micros += float64(n) * m[CtrServerBufferHit]
	}
	k.Charge(CtrFieldRead, 7) // a fractional cost, owner lane only
	if got := k.Count(CtrServerBufferHit); got != count {
		t.Fatalf("count = %d, want %d", got, count)
	}
	if got := k.Micros(CtrServerBufferHit); got != micros {
		t.Fatalf("micros = %v, want %v", got, micros)
	}
	if got, want := k.ElapsedMicros(), micros+7*m[CtrFieldRead]; got != want {
		t.Fatalf("elapsed = %v, want %v", got, want)
	}
	k.Reset()
	if k.Count(CtrServerBufferHit) != 0 || k.SharedCount(CtrServerBufferHit) != 0 || k.ElapsedMicros() != 0 {
		t.Fatal("Reset left a lane behind")
	}
}

// Property: Snapshot.Sub is exact for any sequence of charges.
func TestSnapshotSubProperty(t *testing.T) {
	f := func(charges []uint8) bool {
		k := NewClock(DefaultCostModel())
		mid := len(charges) / 2
		for _, c := range charges[:mid] {
			k.Charge(Counter(int(c)%int(NumCounters)), 1)
		}
		s1 := k.Snapshot()
		for _, c := range charges[mid:] {
			k.Charge(Counter(int(c)%int(NumCounters)), 1)
		}
		d := k.Snapshot().Sub(s1)
		var total int64
		for c := Counter(0); c < NumCounters; c++ {
			if d.Count(c) < 0 {
				return false
			}
			total += d.Count(c)
		}
		return total == int64(len(charges)-mid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
