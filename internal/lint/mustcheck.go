package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// mustSpec names one error-returning call whose result must be consumed.
type mustSpec struct {
	pkg  string // module-relative package path
	recv string // receiver type name; "" = any (including interfaces)
	name string
}

// mustFuncs is the durability-critical call set: log forces, disk
// write/sync paths, and transaction commit/abort. Dropping one of these
// errors silently converts a durability failure into corruption the next
// crash exposes (PR 2 found exactly this class of bug twice).
var mustFuncs = []mustSpec{
	{"internal/wal", "Log", "Flush"},
	{"internal/wal", "Log", "FlushTo"},
	{"internal/wal", "Log", "FlushCommit"},
	{"internal/wal", "Log", "TruncateBefore"},
	{"internal/disk", "", "WritePage"},
	{"internal/disk", "", "Sync"},
	{"internal/disk", "", "Grow"},
	{"internal/esm", "Client", "Commit"},
	{"internal/esm", "Client", "Abort"},
	{"internal/esm", "Server", "Checkpoint"},
	{"internal/core", "Store", "Commit"},
	{"internal/core", "Store", "Abort"},
}

// AnalyzerMustCheck flags discarded error returns from the durability-
// critical call set: a bare call statement, a deferred/spawned call, or an
// assignment that sends every error result to the blank identifier.
// Deliberate best-effort discards (rollback on an already-failing path)
// carry a `//qsvet:ignore mustcheck reason` directive instead.
func AnalyzerMustCheck() *Analyzer {
	return &Analyzer{
		Name: "mustcheck",
		Doc:  "flag unchecked errors from wal flush/force, disk write/sync, and tx commit/abort calls",
		Run:  runMustCheck,
	}
}

func runMustCheck(prog *Program, report func(pos token.Pos, format string, args ...interface{})) {
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if fn := mustCheckTarget(prog, pkg, n.X); fn != nil {
						report(n.Pos(), "error from %s is silently discarded: check it (or //qsvet:ignore mustcheck with a reason)",
							displayName(fn.FullName()))
					}
				case *ast.DeferStmt:
					if fn := mustCheckTarget(prog, pkg, n.Call); fn != nil {
						report(n.Pos(), "deferred %s discards its error: wrap it in a closure that handles the error",
							displayName(fn.FullName()))
					}
				case *ast.GoStmt:
					if fn := mustCheckTarget(prog, pkg, n.Call); fn != nil {
						report(n.Pos(), "go %s discards its error: collect it in the goroutine",
							displayName(fn.FullName()))
					}
				case *ast.AssignStmt:
					checkMustAssign(prog, pkg, n, report)
				}
				return true
			})
		}
	}
}

// mustCheckTarget reports whether expr is a call to a must-check function,
// returning the callee if so.
func mustCheckTarget(prog *Program, pkg *Package, expr ast.Expr) *types.Func {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn := staticCallee(pkg, call)
	if fn == nil || !isMustCheck(prog, fn) {
		return nil
	}
	return fn
}

// checkMustAssign flags `_ = f()` (and multi-assigns whose every error
// result is blank) for must-check callees.
func checkMustAssign(prog *Program, pkg *Package, as *ast.AssignStmt, report func(pos token.Pos, format string, args ...interface{})) {
	// Only the single-call form can split results across LHS.
	if len(as.Rhs) == 1 {
		if fn := mustCheckTarget(prog, pkg, as.Rhs[0]); fn != nil {
			if allErrorsBlank(as.Lhs, fn) {
				report(as.Pos(), "error from %s is assigned to _: check it (or //qsvet:ignore mustcheck with a reason)",
					displayName(fn.FullName()))
			}
		}
		return
	}
	for i, rhs := range as.Rhs {
		fn := mustCheckTarget(prog, pkg, rhs)
		if fn == nil {
			continue
		}
		if i < len(as.Lhs) && isBlank(as.Lhs[i]) {
			report(as.Pos(), "error from %s is assigned to _: check it (or //qsvet:ignore mustcheck with a reason)",
				displayName(fn.FullName()))
		}
	}
}

// allErrorsBlank reports whether every error-typed result of fn lands in a
// blank identifier of lhs (single-result calls: lhs[0] blank).
func allErrorsBlank(lhs []ast.Expr, fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	if res.Len() == 1 {
		return len(lhs) == 1 && isBlank(lhs[0])
	}
	any := false
	for i := 0; i < res.Len() && i < len(lhs); i++ {
		if !isErrorType(res.At(i).Type()) {
			continue
		}
		any = true
		if !isBlank(lhs[i]) {
			return false
		}
	}
	return any
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// isMustCheck matches fn against the must-check table.
func isMustCheck(prog *Program, fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	recv := recvTypeName(fn)
	for _, spec := range mustFuncs {
		want := prog.ModulePath
		if spec.pkg != "" {
			want = prog.ModulePath + "/" + spec.pkg
		}
		if path != want || fn.Name() != spec.name {
			continue
		}
		if spec.recv == "" || spec.recv == recv {
			return true
		}
	}
	return false
}

// recvTypeName returns the name of fn's receiver type ("" for plain
// functions), following pointers.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Interface:
		return ""
	}
	return ""
}
