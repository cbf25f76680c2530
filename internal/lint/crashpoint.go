package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerCrashPoint enforces the one crash-point registry rule the
// compiler cannot (internal/faultinject/points.go, generated — see
// gen/main.go): every registered point must be hit somewhere. A point the
// drills arm but no Plane.Hit reaches is dead instrumentation, and the
// drill matrix silently skips the state it claims to cover. The other
// rules need no analyzer: a point is a constant of the faultinject.Point
// type, so an unknown name or a raw string fails to compile.
func AnalyzerCrashPoint() *Analyzer {
	return &Analyzer{
		Name: "crashpoint",
		Doc:  "every registered crash point must be hit by instrumentation: flag dead points",
		Run:  runCrashPoint,
	}
}

func runCrashPoint(prog *Program, report func(pos token.Pos, format string, args ...interface{})) {
	registryPkg := prog.ModulePath + "/internal/faultinject"
	fi := prog.ByPath[registryPkg]
	if fi == nil {
		return // module has no fault plane (partial fixtures)
	}
	pointType, ok := fi.Types.Scope().Lookup("Point").(*types.TypeName)
	if !ok {
		return
	}
	// The registry: package-level Pt* constants of type Point, by value.
	registered := map[uint64]*types.Const{}
	scope := fi.Types.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !strings.HasPrefix(name, "Pt") || !types.Identical(c.Type(), pointType.Type()) {
			continue
		}
		if v, exact := constant.Uint64Val(c.Val()); exact {
			registered[v] = c
		}
	}

	live := map[uint64]bool{}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				fn := staticCallee(pkg, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != registryPkg ||
					(fn.Name() != "Hit" && fn.Name() != "hitLocked") || recvTypeName(fn) != "Plane" {
					return true
				}
				if tv := pkg.Info.Types[call.Args[0]]; tv.Value != nil {
					if v, exact := constant.Uint64Val(tv.Value); exact {
						live[v] = true
					}
				}
				return true
			})
		}
	}

	for v, c := range registered {
		if !live[v] {
			report(c.Pos(), "crash point %s is registered but never hit: dead instrumentation the drill matrix silently skips", c.Name())
		}
	}
}
