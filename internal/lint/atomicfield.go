package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerAtomicField enforces atomic-access discipline by type: a word
// shared between goroutines is an atomic.Int64 (Uint32, Bool, Pointer, …),
// never a plain integer handed to the sync/atomic functions. A typed atomic
// cannot be read or written plainly, so no mix of atomic and plain access —
// a data race the race detector catches only when the schedule cooperates
// (the server's stats counters are read while ops run, by design) — can be
// written at all. Every call of a sync/atomic package function (AddInt64,
// LoadUint32, …) in non-test code is flagged.
func AnalyzerAtomicField() *Analyzer {
	return &Analyzer{
		Name: "atomicfield",
		Doc:  "flag calls of the sync/atomic functions: shared words are typed atomics",
		Run:  runAtomicField,
	}
}

func runAtomicField(prog *Program, report func(pos token.Pos, format string, args ...interface{})) {
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := staticCallee(pkg, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Type().(*types.Signature).Recv() != nil {
					return true
				}
				report(call.Pos(), "atomic.%s on a plain word: declare it as a sync/atomic type instead", fn.Name())
				return true
			})
		}
	}
}
