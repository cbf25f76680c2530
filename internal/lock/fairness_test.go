package lock

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// waitForQueued polls until n Acquire calls have entered a wait (the waits
// stat is bumped under the manager lock just before queueing).
func waitForQueued(t *testing.T, m *Manager, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, waits := m.Stats(); waits >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d queued waiters", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestContentionFIFOOrder is the satellite contention test: N goroutines
// contend for one page's exclusive lock, queued in a known order, and must
// be granted in exactly that order — no waiter starves, none barges.
func TestContentionFIFOOrder(t *testing.T) {
	const waiters = 8
	m := New(30 * time.Second)
	res := PageRes(77)
	if err := m.Acquire(1, res, Exclusive); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for k := 0; k < waiters; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			tx := uint64(100 + k)
			if err := m.Acquire(tx, res, Exclusive); err != nil {
				t.Errorf("waiter %d: %v", k, err)
				return
			}
			mu.Lock()
			order = append(order, k)
			mu.Unlock()
			m.ReleaseAll(tx)
		}(k)
		// Confirm waiter k is queued before launching k+1, pinning the
		// arrival order the FIFO contract is judged against.
		waitForQueued(t, m, int64(k+1))
	}
	m.ReleaseAll(1)
	wg.Wait()
	for k := 0; k < waiters; k++ {
		if order[k] != k {
			t.Fatalf("grant order %v violates FIFO arrival order", order)
		}
	}
}

// TestNoBargingPastQueuedWriter proves the starvation fix: with a reader
// holding S and a writer queued for X, a newly arriving reader must not be
// granted ahead of the writer even though S is compatible with the holder.
// Under the pre-FIFO broadcast design, a stream of such readers starved
// the writer indefinitely.
func TestNoBargingPastQueuedWriter(t *testing.T) {
	m := New(10 * time.Second)
	res := PageRes(5)
	if err := m.Acquire(1, res, Shared); err != nil {
		t.Fatal(err)
	}
	writerGranted := make(chan struct{})
	go func() {
		if err := m.Acquire(2, res, Exclusive); err != nil {
			t.Errorf("writer: %v", err)
		}
		close(writerGranted)
	}()
	waitForQueued(t, m, 1)

	// A late reader may not barge: the queue is non-empty.
	if m.TryAcquire(3, res, Shared) {
		t.Fatal("reader barged past a queued writer")
	}
	readerGranted := make(chan struct{})
	go func() {
		if err := m.Acquire(3, res, Shared); err != nil {
			t.Errorf("reader: %v", err)
		}
		close(readerGranted)
	}()
	waitForQueued(t, m, 2)
	select {
	case <-readerGranted:
		t.Fatal("queued reader granted while writer still waits")
	case <-time.After(20 * time.Millisecond):
	}

	m.ReleaseAll(1) // writer (queue head) gets the lock; reader keeps waiting
	<-writerGranted
	select {
	case <-readerGranted:
		t.Fatal("reader granted while writer holds X")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(2)
	<-readerGranted
	m.ReleaseAll(3)
}

// TestTimeoutDeadlineRespected bounds the deadlock escape: a blocked
// Acquire returns ErrDeadlock close to the configured timeout — neither
// early nor hanging far past it.
func TestTimeoutDeadlineRespected(t *testing.T) {
	const timeout = 100 * time.Millisecond
	m := New(timeout)
	res := PageRes(9)
	if err := m.Acquire(1, res, Exclusive); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := m.Acquire(2, res, Exclusive)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if elapsed < timeout-10*time.Millisecond {
		t.Fatalf("timed out after %v, before the %v deadline", elapsed, timeout)
	}
	if elapsed > timeout*5 {
		t.Fatalf("timed out after %v, far past the %v deadline", elapsed, timeout)
	}
}

// TestTimeoutUnblocksQueueBehind checks that a timed-out waiter is removed
// from the queue and the waiters behind it are re-examined: an X waiter
// times out and the S waiter queued behind it must then be granted
// alongside the S holder.
func TestTimeoutUnblocksQueueBehind(t *testing.T) {
	m := New(150 * time.Millisecond)
	res := PageRes(3)
	if err := m.Acquire(1, res, Shared); err != nil {
		t.Fatal(err)
	}
	writerDone := make(chan error, 1)
	go func() { writerDone <- m.Acquire(2, res, Exclusive) }()
	waitForQueued(t, m, 1)
	readerDone := make(chan error, 1)
	go func() { readerDone <- m.Acquire(3, res, Shared) }()
	waitForQueued(t, m, 2)

	if err := <-writerDone; !errors.Is(err, ErrDeadlock) {
		t.Fatalf("writer err = %v, want ErrDeadlock", err)
	}
	select {
	case err := <-readerDone:
		if err != nil {
			t.Fatalf("reader behind timed-out writer: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader not promoted after the writer ahead of it timed out")
	}
	m.ReleaseAll(1)
	m.ReleaseAll(3)
}

// TestTimeoutsExpireInDeadlineOrder drives the order the runtime may pick
// under load: an X waiter queued behind an S holder and an S waiter queued
// behind it have both passed their deadlines, and the later one's timer is
// handled first. It must fail the expired writer ahead of it and be
// granted, not time out behind a waiter that had already expired.
func TestTimeoutsExpireInDeadlineOrder(t *testing.T) {
	m := New(time.Hour) // the waiters' own timers never fire here
	res := PageRes(4)
	if err := m.Acquire(1, res, Shared); err != nil {
		t.Fatal(err)
	}
	writerDone := make(chan error, 1)
	go func() { writerDone <- m.Acquire(2, res, Exclusive) }()
	waitForQueued(t, m, 1)
	readerDone := make(chan error, 1)
	go func() { readerDone <- m.Acquire(3, res, Shared) }()
	waitForQueued(t, m, 2)

	m.mu.Lock()
	e := m.table[res]
	writer, reader := e.queue[0], e.queue[1]
	now := time.Now()
	writer.deadline, reader.deadline = now.Add(-2*time.Millisecond), now.Add(-time.Millisecond)
	m.mu.Unlock()
	if err := m.expire(res, e, reader); err != nil {
		t.Fatalf("the later waiter's expiry: %v, want it granted", err)
	}
	if err := <-writerDone; !errors.Is(err, ErrDeadlock) {
		t.Fatalf("writer err = %v, want ErrDeadlock", err)
	}
	if err := <-readerDone; err != nil {
		t.Fatalf("reader err = %v, want granted", err)
	}
	if got := m.Holds(3, res); got != Shared {
		t.Fatalf("reader holds %v, want S", got)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(3)
}

// TestUpgradeDoesNotQueueBehindWriter pins the one sanctioned barge: a
// Shared holder upgrading to Exclusive goes to the queue front, because
// waiting behind another X request would deadlock against its own S hold.
func TestUpgradeDoesNotQueueBehindWriter(t *testing.T) {
	m := New(5 * time.Second)
	res := PageRes(11)
	if err := m.Acquire(1, res, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, res, Shared); err != nil {
		t.Fatal(err)
	}
	// tx3 queues for X behind the two S holders.
	writerDone := make(chan error, 1)
	go func() { writerDone <- m.Acquire(3, res, Exclusive) }()
	waitForQueued(t, m, 1)
	// tx1 upgrades: must not deadlock behind tx3.
	upgradeDone := make(chan error, 1)
	go func() { upgradeDone <- m.Acquire(1, res, Exclusive) }()
	waitForQueued(t, m, 2)
	m.ReleaseAll(2)
	if err := <-upgradeDone; err != nil {
		t.Fatalf("upgrade behind queued writer: %v", err)
	}
	m.ReleaseAll(1)
	if err := <-writerDone; err != nil {
		t.Fatalf("writer after upgrade released: %v", err)
	}
	m.ReleaseAll(3)
}
