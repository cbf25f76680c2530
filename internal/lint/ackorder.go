package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ackGate is one durability promise a success ack makes and the call that
// keeps it: an ack of one of ops must be dominated by a call isGate
// accepts.
type ackGate struct {
	ops    map[string]bool // dispatch ops whose success acks the gate covers
	name   string          // how findings name the gate
	risk   string          // what an ungated ack risks
	isGate func(prog *Program, fn *types.Func) bool
}

// ackGates are the two gates. The WAL force covers a vote (OpPrepare), a
// commit ack, a decision-record ack (OpCommitDecision), and an abort ack
// (OpAbort — presumed abort still forces the record that lets recovery
// answer inquiries). The quorum gate covers the acks a leader failover
// must not lose (DESIGN.md §14): with replication attached, local
// durability is not commit durability, a vote the coordinator counted is
// as binding as a commit, and a coordinator's decision record is the only
// commit record of its own updates.
var ackGates = []ackGate{
	{
		ops:  map[string]bool{"OpPrepare": true, "OpCommit": true, "OpCommitDecision": true, "OpAbort": true},
		name: "a WAL force",
		risk: "the ack can outrun durability and a crash revokes the promise",
		isGate: func(prog *Program, fn *types.Func) bool {
			p := fn.Pkg()
			return p != nil && p.Path() == prog.ModulePath+"/internal/wal" && walForceNames[fn.Name()]
		},
	},
	{
		ops:    map[string]bool{"OpPrepare": true, "OpCommit": true, "OpCommitDecision": true},
		name:   "a WaitQuorum gate",
		risk:   "the ack can outrun quorum durability and be lost on failover",
		isGate: func(_ *Program, fn *types.Func) bool { return fn.Name() == "WaitQuorum" },
	},
}

// walForceNames are the internal/wal methods that make appended records
// durable.
var walForceNames = map[string]bool{
	"Flush":       true,
	"FlushTo":     true,
	"FlushCommit": true,
}

// AnalyzerAckOrder enforces gate-before-ack on the commit surface
// (DESIGN.md §14, §16): a participant's prepare vote, a commit or abort
// ack, and a coordinator's decision ack must be dominated by the WAL force
// that makes the promised state durable, and a commit, vote or decision ack
// also by the replication quorum wait (WaitQuorum) — an ungated ack is a
// promise a crash or a failover can revoke. For each gate the check runs one
// must-analysis over the CFG: the fact is true at a point only if every
// path reaching it passed the gate, a gate function wrapping it, or — in
// dispatch clauses — a call to an obligated implementation; literal
// nil-error returns where the fact is false are flagged. A gate behind a
// guard (`if q != nil { q.WaitQuorum(...) }`) does not dominate the path
// around it, so the server always holds a quorum gate. Only functions that
// append to the WAL (transitively) carry an obligation: a client-side
// router acks whatever its participants decided and forces nothing of its
// own.
//
// The coordinator rule rides along: a call delivering ResolveModeForget
// (retiring a decision record) must be dominated in its function by a
// call delivering the coordinator's decision (a Request naming
// DecisionCoord) — forgetting a verdict nobody was told loses the
// outcome of the transaction.
func AnalyzerAckOrder() *Analyzer {
	return &Analyzer{
		Name: "ackorder",
		Doc:  "2PC vote/ack paths must be dominated by the WAL force and (commit, vote, decision) the quorum wait, and coordinator decision records must dominate participant forget",
		Run:  runAckOrder,
	}
}

func runAckOrder(prog *Program, report func(pos token.Pos, format string, args ...interface{})) {
	appends := walAppenders(prog, summarize(prog))
	for _, pkg := range prog.Packages {
		decls := packageFuncDecls(pkg)
		for i := range ackGates {
			g := &ackGates[i]
			obligated := obligatedFuncs(pkg, decls, appends, g.ops)
			gates := gateFuncs(prog, pkg, decls, g)
			// Obligated implementations: every nil-error return must be
			// gate-dominated.
			for fn, fd := range decls {
				if obligated[fn] {
					flagUngatedReturns(pkg, fd, g.passes(prog, pkg, gates, nil), func(pos token.Pos) {
						report(pos, "%s success path is not dominated by %s: %s", fn.Name(), g.name, g.risk)
					})
				}
			}
			// Dispatch functions: nil-error returns inside the gate's
			// clauses must be gate-dominated, where a call to an obligated
			// implementation counts as the gate (it carries the
			// obligation).
			for fn, fd := range decls {
				clauses := ackClauses(pkg, fd, g.ops)
				if len(clauses) == 0 {
					continue
				}
				flagUngatedReturns(pkg, fd, g.passes(prog, pkg, gates, obligated), func(pos token.Pos) {
					for _, cc := range clauses {
						if cc.Pos() <= pos && pos <= cc.End() {
							report(pos, "%s ack in an %s clause is not dominated by %s or an obligated implementation call", fn.Name(), clauseOpName(pkg, cc, g.ops), g.name)
							return
						}
					}
				})
			}
		}
		// Coordinator rule: forget must follow a delivered decision.
		for _, fd := range decls {
			checkDecisionBeforeForget(pkg, fd, report)
		}
	}
}

// passes returns the predicate a node satisfies when it passes the gate:
// it calls the gate itself, a gate function, or (when checking dispatch
// clauses) an obligated implementation.
func (g *ackGate) passes(prog *Program, pkg *Package, gates, obligated map[*types.Func]bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		return containsNode(n, func(nn ast.Node) bool {
			call, ok := nn.(*ast.CallExpr)
			if !ok {
				return false
			}
			fn := staticCallee(pkg, call)
			return fn != nil && (g.isGate(prog, fn) || gates[fn] || obligated[fn])
		})
	}
}

// walAppenders computes the function ids that (transitively) append WAL
// records — the functions whose acks can have something to make durable.
func walAppenders(prog *Program, s *summaries) map[string]bool {
	walPath := prog.ModulePath + "/internal/wal"
	appends := map[string]bool{}
	for _, fn := range s.funcs {
		if fn.id == "" {
			continue
		}
		for _, cs := range fn.calls {
			if p := cs.callee.Pkg(); p != nil && p.Path() == walPath {
				if n := cs.callee.Name(); n == "Append" || n == "AppendRaw" {
					appends[fn.id] = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range s.funcs {
			if fn.id == "" || appends[fn.id] {
				continue
			}
			for _, cs := range fn.calls {
				if appends[cs.id] {
					appends[fn.id] = true
					changed = true
					break
				}
			}
		}
	}
	return appends
}

// obligatedFuncs collects the same-package implementations the clauses of
// ops delegate to — error-last callees of those dispatch clauses, closed
// over tail calls — restricted to functions that append WAL records.
func obligatedFuncs(pkg *Package, decls map[*types.Func]*ast.FuncDecl, appends map[string]bool, ops map[string]bool) map[*types.Func]bool {
	out := map[*types.Func]bool{}
	var work []*ast.FuncDecl
	for _, fd := range decls {
		for _, cc := range ackClauses(pkg, fd, ops) {
			for _, st := range cc.Body {
				ast.Inspect(st, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := staticCallee(pkg, call)
					if fn == nil || fn.Pkg() != pkg.Types || !appends[fn.FullName()] {
						return true
					}
					if impl := decls[fn]; impl != nil && !out[fn] && funcLastResultIsError(pkg, impl) {
						out[fn] = true
						work = append(work, impl)
					}
					return true
				})
			}
		}
	}
	// Tail-callee closure: an obligated implementation that forwards its
	// error from another same-package function passes the obligation on.
	for len(work) > 0 {
		impl := work[0]
		work = work[1:]
		for _, tail := range tailCallees(pkg, decls, impl.Body.List) {
			fn, ok := pkg.Info.Defs[tail.Name].(*types.Func)
			if !ok || out[fn] || !appends[fn.FullName()] || !funcLastResultIsError(pkg, tail) {
				continue
			}
			out[fn] = true
			work = append(work, tail)
		}
	}
	return out
}

// ackClauses returns fd's case clauses that match one of ops.
func ackClauses(pkg *Package, fd *ast.FuncDecl, ops map[string]bool) []*ast.CaseClause {
	var out []*ast.CaseClause
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if ok && clauseOpName(pkg, cc, ops) != "" {
			out = append(out, cc)
		}
		return true
	})
	return out
}

// clauseOpName returns the op constant of ops a case clause matches, or "".
func clauseOpName(pkg *Package, cc *ast.CaseClause, ops map[string]bool) string {
	for _, e := range cc.List {
		var obj types.Object
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj = pkg.Info.Uses[e]
		case *ast.SelectorExpr:
			obj = pkg.Info.Uses[e.Sel]
		}
		if c, ok := obj.(*types.Const); ok && ops[c.Name()] {
			return c.Name()
		}
	}
	return ""
}

// gateFuncs computes the same-package functions that contain g's gate and
// whose every literal nil-error return it dominates: calling one IS
// passing the gate, so an implementation may wrap the wait and hand its
// caller an LSN, with the ack built around the call. Iterated to a fixed
// point so gate functions compose.
func gateFuncs(prog *Program, pkg *Package, decls map[*types.Func]*ast.FuncDecl, g *ackGate) map[*types.Func]bool {
	gates := map[*types.Func]bool{}
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			passes := g.passes(prog, pkg, gates, nil)
			if gates[fn] || !funcLastResultIsError(pkg, fd) || !passes(fd.Body) {
				continue
			}
			clean := true
			flagUngatedReturns(pkg, fd, passes, func(token.Pos) { clean = false })
			if clean {
				gates[fn] = true
				changed = true
			}
		}
	}
	return gates
}

// mustPass is a must-analysis: its fact is true at a point iff every path
// reaching it passed a node that satisfies passes.
type mustPass func(n ast.Node) bool

func (lt mustPass) entry() fact { return false }

func (lt mustPass) transfer(f fact, n ast.Node) fact { return f.(bool) || lt(n) }

func (lt mustPass) join(a, b fact) fact { return a.(bool) && b.(bool) }

func (lt mustPass) equal(a, b fact) bool { return a == b }

// flagUngatedReturns runs the must-analysis over fd's body and calls flag
// for every literal nil-error return no node satisfying passes dominates.
func flagUngatedReturns(pkg *Package, fd *ast.FuncDecl, passes func(ast.Node) bool, flag func(pos token.Pos)) {
	if !funcLastResultIsError(pkg, fd) {
		return
	}
	c := buildCFG(fd.Body)
	lt := mustPass(passes)
	in, _ := fixpoint(c, lt)
	replayCFG(c, in, func(f fact, n ast.Node) fact {
		if ret, ok := n.(*ast.ReturnStmt); ok && !f.(bool) && returnsNilError(pkg, ret) {
			flag(ret.Pos())
		}
		return lt.transfer(f, n)
	})
}

// containsNode reports whether n's subtree holds a node match accepts.
// Function literals are skipped: a gate inside a closure does not
// dominate the enclosing path.
func containsNode(n ast.Node, match func(ast.Node) bool) bool {
	found := false
	ast.Inspect(n, func(nn ast.Node) bool {
		if _, ok := nn.(*ast.FuncLit); ok || found {
			return false
		}
		found = match(nn)
		return !found
	})
	return found
}

// checkDecisionBeforeForget enforces the coordinator rule inside one
// function: a Request literal delivering ResolveModeForget must be
// dominated by one delivering the coordinator's decision (DecisionCoord).
func checkDecisionBeforeForget(pkg *Package, fd *ast.FuncDecl, report func(pos token.Pos, format string, args ...interface{})) {
	delivers := func(mode string) func(ast.Node) bool {
		return func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			return ok && requestDelivers(pkg, lit, mode)
		}
	}
	forget := delivers("ResolveModeForget")
	if !containsNode(fd.Body, forget) {
		return
	}
	c := buildCFG(fd.Body)
	lt := mustPass(func(n ast.Node) bool { return containsNode(n, delivers("DecisionCoord")) })
	in, _ := fixpoint(c, lt)
	replayCFG(c, in, func(f fact, n ast.Node) fact {
		if !f.(bool) {
			ast.Inspect(n, func(nn ast.Node) bool {
				if _, ok := nn.(*ast.FuncLit); ok {
					return false
				}
				if forget(nn) {
					report(nn.Pos(), "decision record forgotten before any path delivered the coordinator decision (DecisionCoord): a participant still in doubt loses the verdict")
				}
				return true
			})
		}
		return lt.transfer(f, n)
	})
}

// requestDelivers reports whether lit is a Request composite literal
// whose Mode field expression names the given constant/value identifier.
func requestDelivers(pkg *Package, lit *ast.CompositeLit, name string) bool {
	named := namedCompositeType(pkg, lit)
	if named == nil || named.Obj().Name() != "Request" {
		return false
	}
	if p := named.Obj().Pkg(); p == nil || !strings.HasSuffix(p.Path(), "/esm") && p.Path() != "esm" {
		return false
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Mode" {
			continue
		}
		found := false
		ast.Inspect(kv.Value, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				found = true
				return false
			}
			return true
		})
		return found
	}
	return false
}

// packageFuncDecls maps each function object declared in pkg to its decl,
// so dispatch targets can be resolved to bodies.
func packageFuncDecls(pkg *Package) map[*types.Func]*ast.FuncDecl {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}

// funcLastResultIsError reports whether fd's final result is error — the
// slot whose literal nil is a success ack.
func funcLastResultIsError(pkg *Package, fd *ast.FuncDecl) bool {
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	res := fn.Type().(*types.Signature).Results()
	if res.Len() == 0 {
		return false
	}
	return types.Identical(res.At(res.Len()-1).Type(), types.Universe.Lookup("error").Type())
}

// tailCallees collects the same-package functions whose error a return in
// stmts forwards directly (`return ..., s.commit(...)`): the ack the
// client sees is whatever those functions return, so they inherit the
// gate obligation.
func tailCallees(pkg *Package, decls map[*types.Func]*ast.FuncDecl, stmts []ast.Stmt) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, st := range stmts {
		ast.Inspect(st, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || len(ret.Results) == 0 {
				return true
			}
			call, ok := ast.Unparen(ret.Results[len(ret.Results)-1]).(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := staticCallee(pkg, call)
			if fn == nil || fn.Pkg() != pkg.Types {
				return true
			}
			if fd := decls[fn]; fd != nil {
				out = append(out, fd)
			}
			return true
		})
	}
	return out
}

// returnsNilError reports whether ret's final result — assumed the error
// slot, per funcLastResultIsError on the enclosing function — is the
// predeclared nil.
func returnsNilError(pkg *Package, ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return false
	}
	tv, ok := pkg.Info.Types[ret.Results[len(ret.Results)-1]]
	return ok && tv.IsNil()
}
