package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the fixture golden files")

// fixtureRun loads one testdata mini-module and runs a single analyzer.
func fixtureRun(t *testing.T, fixture string, analyzer *Analyzer) []Diagnostic {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	prog, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	diags := RunAnalyzers(prog, []*Analyzer{analyzer})
	RelativeTo(diags, prog.Root)
	return diags
}

// checkGolden compares diagnostics against the fixture's golden.txt,
// rewriting it under -update.
func checkGolden(t *testing.T, fixture string, diags []Diagnostic) {
	t.Helper()
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	got := b.String()
	golden := filepath.Join("testdata", "src", fixture, "golden.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", fixture, got, want)
	}
}

// Each fixture demonstrates at least one caught violation, at least one
// clean (negative) function, and one finding suppressed by a
// //qsvet:ignore directive; the golden file is the caught set.
func TestGoldenFixtures(t *testing.T) {
	fixtures := map[string]*Analyzer{
		// The lockorder and latchio goldens predate the CFG dataflow
		// engine: passing unchanged, they are the regression proof that
		// the port reproduces the syntactic walker's findings.
		"lockorder":    AnalyzerLockOrder(),
		"latchio":      AnalyzerLatchIO(),
		"atomicfield":  AnalyzerAtomicField(),
		"mustcheck":    AnalyzerMustCheck(),
		"crashpoint":   AnalyzerCrashPoint(),
		"snapread":     AnalyzerSnapRead(),
		"unlockpath":   AnalyzerUnlockPath(),
		"guardedfield": AnalyzerGuardedField(),
		"ackorder":     AnalyzerAckOrder(),
		// The quorum gate of ackorder on its own: every path forces the
		// WAL, so each finding is a missing or bypassed WaitQuorum.
		"quorumack": AnalyzerAckOrder(),
		// Divergent held-sets at a merge are a lockorder finding of the
		// path-sensitive engine; this fixture exists only on it.
		"lockdiverge": AnalyzerLockOrder(),
	}
	for fixture, analyzer := range fixtures {
		t.Run(fixture, func(t *testing.T) {
			diags := fixtureRun(t, fixture, analyzer)
			if len(diags) == 0 {
				t.Fatalf("fixture %s produced no findings; each analyzer must demonstrate a caught violation", fixture)
			}
			for _, d := range diags {
				if d.Check != analyzer.Name {
					t.Errorf("diagnostic from wrong check %q: %s", d.Check, d)
				}
			}
			checkGolden(t, fixture, diags)
		})
	}
}

// The suppression directive itself must be doing the work: running the
// mustcheck fixture, the suppressed() function's discard never appears.
func TestIgnoreDirectiveSuppresses(t *testing.T) {
	diags := fixtureRun(t, "mustcheck", AnalyzerMustCheck())
	for _, d := range diags {
		if strings.Contains(d.Pos.Filename, "srv.go") && d.Pos.Line >= 29 {
			t.Errorf("finding inside suppressed(): %s", d)
		}
	}
}

// A directive that suppresses nothing is itself a finding — when the run
// included every check it names. A full-suite run also judges a directive
// naming a check no analyzer is registered under (one since retired).
func TestStaleIgnoreAudit(t *testing.T) {
	prog, err := LoadModule(filepath.Join("testdata", "src", "staleignore"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := RunAnalyzers(prog, Analyzers())
	RelativeTo(diags, prog.Root)
	if len(diags) != 2 {
		t.Fatalf("want exactly the two stale directive findings, got %d: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Check != "staleignore" || !strings.Contains(d.Pos.Filename, "srv.go") {
			t.Errorf("unexpected finding: %s", d)
		}
	}
}

// The audit keeps quiet when the run could not judge the directive: a
// `-checks` subset that skips the named check must not call it stale.
func TestStaleIgnoreSkipsUnjudgedChecks(t *testing.T) {
	prog, err := LoadModule(filepath.Join("testdata", "src", "staleignore"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := RunAnalyzers(prog, []*Analyzer{AnalyzerLockOrder()})
	if len(diags) != 0 {
		t.Errorf("directive naming mustcheck judged by a lockorder-only run: %v", diags)
	}
}

// The real module must be qsvet-clean: every true positive is fixed and
// every deliberate discard carries a directive. This is the same gate CI
// runs via `go run ./cmd/qsvet ./...`.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module from source")
	}
	prog, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags := RunAnalyzers(prog, Analyzers())
	RelativeTo(diags, prog.Root)
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}
