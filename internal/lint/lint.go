// Package lint is qsvet's analysis engine: a pure-stdlib (go/ast,
// go/parser, go/types, go/importer) driver that loads every package in the
// module and runs project-specific analyzers over the type-checked source.
//
// The analyzers enforce the invariants the storage manager's correctness
// hangs on but neither the compiler nor a general-purpose tool checks —
// the documented lock order (DESIGN.md §10: mu → wal/volume, latches
// apart from mu), the "all disk I/O outside latches" rule,
// atomic-access discipline on stats counters, unchecked errors on
// durability-critical calls, that every registered crash point is hit
// (internal/faultinject/points.go), and gate-before-ack on the commit
// surface: a WAL force, and for commits and votes the replication quorum
// wait, before any success ack (DESIGN.md §14, §16). Rules a type can carry
// are left to the type: a crash point is a faultinject.Point, and the shard
// map's endpoint table is unexported. Each finding is emitted as
// `file:line: [check] message`; a `//qsvet:ignore check reason` directive
// on (or immediately above) the flagged line suppresses it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the check that produced it, and a
// human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the diagnostic in the driver's one-line output format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Check, d.Message)
}

// Analyzer is one qsvet check. Run inspects the whole program (analyses
// like lockorder and latchio follow calls across packages) and reports
// findings through report.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program, report func(pos token.Pos, format string, args ...interface{}))
}

// Analyzers is the qsvet check suite in output order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerLockOrder(),
		AnalyzerLatchIO(),
		AnalyzerAtomicField(),
		AnalyzerMustCheck(),
		AnalyzerCrashPoint(),
		AnalyzerSnapRead(),
		AnalyzerUnlockPath(),
		AnalyzerGuardedField(),
		AnalyzerAckOrder(),
	}
}

// AnalyzerNames returns the names of every registered analyzer.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// RunAnalyzers executes the given analyzers over prog and returns the
// surviving diagnostics, sorted by position: findings on lines carrying a
// `//qsvet:ignore` directive naming the check (or `all`) are dropped, as
// are findings whose preceding line is such a directive comment.
//
// Suppression is audited: a directive that suppressed nothing — though
// every check it names was part of this run — is itself reported as a
// `staleignore` finding, so outdated exemptions rot out of the tree
// instead of silently disarming future findings. Directives naming checks
// outside the run (a `-checks` subset, a single-analyzer fixture run) are
// left alone: the run could not have told whether they still suppress.
func RunAnalyzers(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		name := a.Name
		report := func(pos token.Pos, format string, args ...interface{}) {
			diags = append(diags, Diagnostic{
				Pos:     prog.Fset.Position(pos),
				Check:   name,
				Message: fmt.Sprintf(format, args...),
			})
		}
		a.Run(prog, report)
	}
	for _, dirs := range prog.ignores {
		for _, dir := range dirs {
			dir.fired = false
		}
	}
	diags = prog.filterIgnored(diags)
	diags = append(diags, prog.staleIgnores(analyzers)...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return diags
}

// ignoreDirective is one parsed `//qsvet:ignore check[,check...] reason`
// comment. Checks holds the named checks ("all" matches every check).
type ignoreDirective struct {
	checks []string
	line   int
	fired  bool // suppressed at least one finding in the current run
}

func (d *ignoreDirective) matches(check string) bool {
	for _, c := range d.checks {
		if c == check || c == "all" {
			return true
		}
	}
	return false
}

const ignorePrefix = "//qsvet:ignore"

// parseIgnoreDirectives scans a file's comments for qsvet:ignore
// directives, keyed by the line they occupy.
func parseIgnoreDirectives(fset *token.FileSet, f *ast.File) map[int]*ignoreDirective {
	var out map[int]*ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, ignorePrefix)
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue // malformed: no check named; directive inert
			}
			d := &ignoreDirective{
				checks: strings.Split(fields[0], ","),
				line:   fset.Position(c.Pos()).Line,
			}
			if out == nil {
				out = map[int]*ignoreDirective{}
			}
			out[d.line] = d
		}
	}
	return out
}

// filterIgnored drops diagnostics suppressed by an ignore directive on the
// same line or on the line directly above.
func (p *Program) filterIgnored(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		dirs := p.ignores[d.Pos.Filename]
		if dir := dirs[d.Pos.Line]; dir != nil && dir.matches(d.Check) {
			dir.fired = true
			continue
		}
		if dir := dirs[d.Pos.Line-1]; dir != nil && dir.matches(d.Check) {
			dir.fired = true
			continue
		}
		out = append(out, d)
	}
	return out
}

// staleIgnores reports directives that suppressed nothing, restricted to
// those this run was competent to judge: every check the directive names
// must have run ("all", or a check no analyzer is registered under,
// requires the full registered suite). staleignore
// findings are not themselves suppressible — a directive cannot vouch for
// its own continued relevance.
func (p *Program) staleIgnores(analyzers []*Analyzer) []Diagnostic {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	fullSuite := true
	for _, name := range AnalyzerNames() {
		if !ran[name] {
			fullSuite = false
			break
		}
	}
	var out []Diagnostic
	for file, dirs := range p.ignores {
		for _, dir := range dirs {
			if dir.fired {
				continue
			}
			judged := true
			for _, c := range dir.checks {
				if !fullSuite && !ran[c] {
					judged = false
					break
				}
			}
			if !judged {
				continue
			}
			out = append(out, Diagnostic{
				Pos:     token.Position{Filename: file, Line: dir.line, Column: 1},
				Check:   "staleignore",
				Message: fmt.Sprintf("directive suppresses no finding of %s: delete it (stale exemptions disarm future findings)", strings.Join(dir.checks, ", ")),
			})
		}
	}
	return out
}

// RelativeTo rewrites diagnostic filenames relative to dir (best effort;
// unrelatable paths are left absolute).
func RelativeTo(diags []Diagnostic, dir string) {
	for i := range diags {
		if rel, err := filepath.Rel(dir, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}
}
