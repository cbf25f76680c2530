package faultinject

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestCrashFiresOnNthHitAndLatches(t *testing.T) {
	p := New(1)
	p.ArmCrash(PtCommitBeforeFlush, 3)
	for i := 1; i <= 2; i++ {
		if err := p.Hit(PtCommitBeforeFlush); err != nil {
			t.Fatalf("hit %d: unexpected fault %v", i, err)
		}
	}
	err := p.Hit(PtCommitBeforeFlush)
	if !IsCrash(err) {
		t.Fatalf("third hit: got %v, want crash", err)
	}
	if !p.Crashed() {
		t.Fatal("plane not latched crashed")
	}
	// Every later operation on any point fails: the process is dead.
	if err := p.Hit(PtDiskRead); !IsCrash(err) {
		t.Fatalf("post-crash hit: got %v, want crash", err)
	}
	p.Reset()
	if p.Crashed() || p.Hit(PtDiskRead) != nil {
		t.Fatal("Reset did not disarm the plane")
	}
}

func TestTransientHealsAfterBudget(t *testing.T) {
	p := New(2)
	p.ArmTransient(PtDiskRead, 2)
	for i := 0; i < 2; i++ {
		if err := p.Hit(PtDiskRead); !IsTransient(err) {
			t.Fatalf("hit %d: got %v, want transient", i, err)
		}
	}
	if err := p.Hit(PtDiskRead); err != nil {
		t.Fatalf("healed hit: %v", err)
	}
	if got := p.Hits(PtDiskRead); got != 3 {
		t.Fatalf("Hits = %d, want 3", got)
	}
}

func TestClassifiersMatchRemoteStrings(t *testing.T) {
	// Server errors cross the protocol as plain strings; classification
	// must survive the round trip.
	remote := errors.New("esm server: " + fmt.Errorf("%w (point %s)", ErrTransient, PtDiskWrite).Error())
	if !IsTransient(remote) {
		t.Fatal("transient not recognized through a string round trip")
	}
	remoteCrash := errors.New("esm server: " + ErrCrash.Error())
	if !IsCrash(remoteCrash) {
		t.Fatal("crash not recognized through a string round trip")
	}
	if remoteDown := errors.New("esm server: " + ErrDown.Error()); !IsDown(remoteDown) || !IsCrash(remoteDown) {
		t.Fatal("a refusal unrun not recognized as down and a crash through a string round trip")
	}
	if fired := fmt.Errorf("%w (point %s)", ErrCrash, PtCommitAfterFlush); IsDown(fired) || IsDown(ErrCrash) {
		t.Fatal("a crash that fired inside a request classified as a refusal unrun")
	}
	if IsTransient(nil) || IsCrash(nil) || IsDown(nil) {
		t.Fatal("nil misclassified")
	}
	if IsTransient(errors.New("disk: page id out of range")) {
		t.Fatal("unrelated error misclassified as transient")
	}
}

func TestTornWriteBoundsAreSeeded(t *testing.T) {
	const page = 8192
	for seed := int64(0); seed < 20; seed++ {
		p := New(seed)
		p.SetTornWrite(8, 4096)
		p.ArmCrash(PtDiskWrite, 1)
		n, err := p.BeforeWrite(7, page)
		if !IsCrash(err) {
			t.Fatalf("seed %d: got %v, want crash", seed, err)
		}
		if n < 8 || n > 4096 {
			t.Fatalf("seed %d: torn prefix %d outside [8,4096]", seed, n)
		}
		// Same seed, same tear.
		q := New(seed)
		q.SetTornWrite(8, 4096)
		q.ArmCrash(PtDiskWrite, 1)
		m, _ := q.BeforeWrite(7, page)
		if m != n {
			t.Fatalf("seed %d: tear not deterministic (%d vs %d)", seed, n, m)
		}
	}
}

func TestAtomicWritesDropWholePageOnCrash(t *testing.T) {
	p := New(3)
	p.ArmCrash(PtDiskWrite, 1)
	n, err := p.BeforeWrite(9, 8192)
	if !IsCrash(err) || n != 0 {
		t.Fatalf("got (%d, %v), want (0, crash)", n, err)
	}
}

func TestFlushHookShortTail(t *testing.T) {
	p := New(4)
	p.SetShortFlush(true)
	p.ArmCrash(PtLogFlush, 1)
	hook := p.FlushHook()
	allow, err := hook(1000)
	if !IsCrash(err) {
		t.Fatalf("got %v, want crash", err)
	}
	if allow < 0 || allow >= 1000 {
		t.Fatalf("short flush kept %d of 1000 bytes", allow)
	}
}

func TestNilPlaneIsInert(t *testing.T) {
	var p *Plane
	if err := p.Hit(PtDiskRead); err != nil {
		t.Fatal(err)
	}
	if n, err := p.BeforeWrite(1, 8192); n != 8192 || err != nil {
		t.Fatalf("nil BeforeWrite = (%d, %v)", n, err)
	}
	p.ArmCrash(PtDiskRead, 1) // must not panic
	p.Reset()
	if p.Crashed() {
		t.Fatal("nil plane crashed")
	}
}

// Every registered point round-trips through its name, and a name the
// registry does not know is refused, so a misspelled -point never arms
// nothing.
func TestPointNamesRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for _, pt := range AllPoints() {
		name := pt.String()
		if name == "" || seen[name] {
			t.Fatalf("point %d has an empty or duplicate name %q", pt, name)
		}
		seen[name] = true
		got, err := ParsePoint(name)
		if err != nil || got != pt {
			t.Fatalf("ParsePoint(%q) = (%v, %v), want %v", name, got, err, pt)
		}
	}
	if got, err := ParsePoint(""); err != nil || got != 0 {
		t.Fatalf(`ParsePoint("") = (%v, %v), want the zero Point`, got, err)
	}
	_, err := ParsePoint("commit.before-flush")
	if err == nil {
		t.Fatal("unknown point name accepted")
	}
	if !strings.Contains(err.Error(), PtCommitBeforeFlush.String()) {
		t.Fatalf("error does not list the valid names: %v", err)
	}
}
