package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockClass is one named lock in the documented hierarchy (DESIGN.md §10).
// Rank encodes the acquisition order: a lock may only be acquired while
// every held classified lock has a strictly lower rank. Latches (pool
// stripe latches and frame content latches) additionally may never be
// combined with the server's lock in either order.
type lockClass struct {
	name   string
	rank   int
	latch  bool // buffer pool stripe or frame content latch
	server bool // esm.Server.mu
}

// lockSpec locates one classified lock field in the module source.
type lockSpec struct {
	pkg   string // module-relative package path
	typ   string // struct type name
	field string // mutex field name
	class lockClass
}

// lockSpecs is the documented lock hierarchy of the storage manager.
// The ranks encode: mu → (wal.Log.mu | volume) with the lock manager,
// cost clock, and fault plane as leaves; pool latches sit apart from the
// server lock (latches are taken without mu held, and FlushFn under a
// content latch takes wal/volume, never mu). The replication, MVCC, and shard-router locks are leaves of their
// own components: repl releases Node.mu before re-entering the server,
// the version store is called under Server.mu (20 < 26), and the router's
// locks only ever wrap interface calls the static graph cannot follow.
// The pool's slab lock is a leaf taken under a stripe latch when a frame
// first gets its image.
// The coherence version table (esm.cohState.mu) is taken under Server.mu
// and under a frame content latch (the abort undo bumps versions while
// holding the exclusive latch), so it ranks above both and acquires
// nothing itself.
var lockSpecs = []lockSpec{
	{"internal/repl", "Node", "mu", lockClass{name: "repl.Node.mu", rank: 15}},
	{"internal/repl", "Director", "mu", lockClass{name: "repl.Director.mu", rank: 16}},
	{"internal/esm", "Server", "mu", lockClass{name: "esm.Server.mu", rank: 20, server: true}},
	{"internal/buffer", "latchStripe", "mu", lockClass{name: "buffer stripe latch", rank: 22, latch: true}},
	{"internal/buffer", "LatchPool", "slabMu", lockClass{name: "buffer slab lock", rank: 23}},
	{"internal/buffer", "latchFrame", "content", lockClass{name: "buffer frame content latch", rank: 24, latch: true}},
	{"internal/mvcc", "Store", "mu", lockClass{name: "mvcc.Store.mu", rank: 26}},
	{"internal/esm", "cohState", "mu", lockClass{name: "esm.cohState.mu", rank: 27}},
	{"internal/wal", "Log", "mu", lockClass{name: "wal.Log.mu", rank: 30}},
	{"internal/disk", "volumeCore", "mu", lockClass{name: "disk volume lock", rank: 32}},
	{"internal/lock", "Manager", "mu", lockClass{name: "lock.Manager.mu", rank: 40}},
	{"internal/sim", "Clock", "mu", lockClass{name: "sim.Clock.mu", rank: 50}},
	{"internal/faultinject", "Plane", "mu", lockClass{name: "faultinject.Plane.mu", rank: 52}},
	{"internal/shard", "Router", "mu", lockClass{name: "shard.Router.mu", rank: 60}},
	{"internal/shard", "routedTx", "mu", lockClass{name: "shard routedTx.mu", rank: 62}},
}

// heldLock is one classified lock held at a program point. deferred marks
// an acquisition whose unlock has been registered with `defer`: the lock
// is still held (it participates in ordering checks) but is guaranteed
// released on every exit from here on.
type heldLock struct {
	obj      types.Object
	class    *lockClass
	pos      token.Pos // acquisition site
	deferred bool
}

// acqSite is one direct lock acquisition inside a function.
type acqSite struct {
	obj   types.Object
	class *lockClass
	pos   token.Pos
	held  []heldLock // classified locks held at the acquisition
}

// callSite is one statically resolved call inside a function.
type callSite struct {
	callee *types.Func
	id     string
	pos    token.Pos
	held   []heldLock
}

// Exit kinds for exitSite.
const (
	exitReturn = iota
	exitPanic
	exitEnd // fell off the closing brace
)

// exitSite is one way control leaves a function, with the converged lock
// state reaching it.
type exitSite struct {
	pos  token.Pos
	kind int
	held []heldLock
}

// divergeSite is one CFG merge point whose incoming paths carry different
// effective held-lock sets (held minus pending deferred unlocks).
type divergeSite struct {
	pos  token.Pos
	a, b string // rendered effective sets of two disagreeing paths
}

// Field access kinds for fieldUse.
const (
	fieldRead = iota
	fieldWrite
	fieldEscape // address taken: the field aliases beyond this site
)

// fieldUse is one struct-field access with the lock state over it.
type fieldUse struct {
	obj  types.Object // the field
	pos  token.Pos
	kind int
	held []heldLock
}

// funcNode is the per-function summary the interprocedural checks consume.
type funcNode struct {
	id       string // types.Func.FullName(); "" for function literals
	name     string // display name
	pkg      *Package
	pos      token.Pos
	acquires []acqSite
	calls    []callSite
	exits    []exitSite
	diverges []divergeSite
	fields   []fieldUse
	makes    map[*types.TypeName]bool // struct types this func constructs or returns
}

// summaries is the shared interprocedural state, built once per Program.
type summaries struct {
	locks map[types.Object]*lockClass
	owner map[types.Object]*types.TypeName // field -> declaring struct type
	funcs []*funcNode
	byID  map[string]*funcNode
}

var summaryCache = map[*Program]*summaries{}

// summarize builds (or returns the cached) function summaries for prog.
func summarize(prog *Program) *summaries {
	if s, ok := summaryCache[prog]; ok {
		return s
	}
	s := &summaries{
		locks: map[types.Object]*lockClass{},
		owner: map[types.Object]*types.TypeName{},
		byID:  map[string]*funcNode{},
	}
	s.resolveLocks(prog)
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			s.collectFile(pkg, f)
		}
	}
	summaryCache[prog] = s
	return s
}

// resolveLocks maps the lockSpecs onto the loaded module's type objects.
// Specs whose package or type is absent (partial fixtures) are skipped.
func (s *summaries) resolveLocks(prog *Program) {
	for i := range lockSpecs {
		spec := &lockSpecs[i]
		pkg := prog.ByPath[prog.ModulePath+"/"+spec.pkg]
		if pkg == nil {
			continue
		}
		obj := pkg.Types.Scope().Lookup(spec.typ)
		if obj == nil {
			continue
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for j := 0; j < st.NumFields(); j++ {
			if f := st.Field(j); f.Name() == spec.field {
				s.locks[f] = &spec.class
			}
		}
	}
}

// collectFile summarizes every function declaration and function literal
// of one file on the CFG dataflow engine. Literals get their own node
// (empty id: they are not reachable through the static call graph) so
// their bodies are still checked for direct violations.
func (s *summaries) collectFile(pkg *Package, f *ast.File) {
	var lits []*ast.FuncLit
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		var id, name string
		node := &funcNode{pkg: pkg, pos: fd.Pos(), makes: map[*types.TypeName]bool{}}
		if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
			id = obj.FullName()
			name = obj.Name()
			if recv := fd.Recv; recv != nil && len(recv.List) > 0 {
				name = recvString(recv.List[0].Type) + "." + name
			}
			addResultTypes(node, obj)
		}
		node.id, node.name = id, name
		lits = append(lits, s.analyzeBody(pkg, node, fd.Body)...)
		s.funcs = append(s.funcs, node)
		if id != "" {
			s.byID[id] = node
		}
	}
	// Literals may nest; process the work list to a fixed point.
	for len(lits) > 0 {
		lit := lits[0]
		lits = lits[1:]
		node := &funcNode{name: "func literal", pkg: pkg, pos: lit.Pos(), makes: map[*types.TypeName]bool{}}
		lits = append(lits, s.analyzeBody(pkg, node, lit.Body)...)
		s.funcs = append(s.funcs, node)
	}
}

// addResultTypes marks the named struct types a function returns, feeding
// guardedfield's constructor exemption.
func addResultTypes(node *funcNode, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named := namedType(res.At(i).Type()); named != nil {
			if _, isStruct := named.Underlying().(*types.Struct); isStruct {
				node.makes[named.Obj()] = true
			}
		}
	}
}

func recvString(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return recvString(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return recvString(t.X)
	}
	return "?"
}

// analyzeBody runs the held-set dataflow over one function body: build the
// CFG, iterate the lock lattice to a fixed point, then replay the reached
// blocks once to record acquisition sites, call sites, field accesses, and
// exits under the converged facts. Nested function literals are returned
// for separate summarization, not walked in place: their bodies run with
// their own (unknown) lock context.
func (s *summaries) analyzeBody(pkg *Package, node *funcNode, body *ast.BlockStmt) []*ast.FuncLit {
	c := buildCFG(body)
	lt := &lockLattice{s: s, pkg: pkg}
	in, out := fixpoint(c, lt)
	rec := &recorder{s: s, pkg: pkg, node: node}
	replayCFG(c, in, func(f fact, n ast.Node) fact {
		return lt.apply(f, n, rec)
	})
	for i, b := range c.blocks {
		if c.end[b] && in[i] != nil {
			node.exits = append(node.exits, exitSite{
				pos:  body.Rbrace,
				kind: exitEnd,
				held: out[i].(lockFact).held,
			})
		}
	}
	s.findDivergences(c, out, node)
	return rec.lits
}

// findDivergences flags CFG merge points whose reaching paths disagree on
// the effective held-lock set (held minus pending deferred unlocks): one
// path merged still holding a lock another path has already arranged to
// release — the shape of a branch that forgot its unlock.
func (s *summaries) findDivergences(c *cfg, out []fact, node *funcNode) {
	seen := map[token.Pos]bool{}
	for _, b := range c.blocks {
		if len(b.preds) < 2 {
			continue
		}
		var first map[types.Object]bool
		seenFirst := false
		var firstDesc string
		for _, p := range b.preds {
			f := out[p.idx]
			if f == nil {
				continue
			}
			eff := effectiveHeld(f.(lockFact).held)
			if !seenFirst {
				seenFirst = true
				first = eff
				firstDesc = describeEffective(f.(lockFact).held)
				continue
			}
			if !sameLockSet(first, eff) {
				pos := blockPos(b, node.pos)
				if !seen[pos] {
					seen[pos] = true
					node.diverges = append(node.diverges, divergeSite{
						pos: pos,
						a:   firstDesc,
						b:   describeEffective(f.(lockFact).held),
					})
				}
				break
			}
		}
	}
}

// effectiveHeld is the set of lock objects actually held past this point:
// those with an entry whose unlock is not already deferred. A set, not a
// multiset — union-merged alternatives carry one runtime lock under
// several acquisition sites, and genuine same-lock nesting is already a
// re-entrancy finding of its own.
func effectiveHeld(held []heldLock) map[types.Object]bool {
	m := map[types.Object]bool{}
	for _, h := range held {
		if !h.deferred {
			m[h.obj] = true
		}
	}
	return m
}

func sameLockSet(a, b map[types.Object]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// describeEffective names the effective held set for diagnostics.
func describeEffective(held []heldLock) string {
	seen := map[types.Object]bool{}
	var names []string
	for _, h := range held {
		if !h.deferred && !seen[h.obj] {
			seen[h.obj] = true
			names = append(names, h.class.name)
		}
	}
	if len(names) == 0 {
		return "no locks"
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// blockPos finds a stable source position for a block: its first node, or
// the first node of a unique successor chain (empty join blocks), falling
// back to the enclosing function's position.
func blockPos(b *block, fallback token.Pos) token.Pos {
	for i := 0; i < 10 && b != nil; i++ {
		if len(b.nodes) > 0 {
			return b.nodes[0].Pos()
		}
		if len(b.succs) != 1 {
			break
		}
		b = b.succs[0]
	}
	return fallback
}

// lockFact is the held-set dataflow fact: the classified locks held on
// every path reaching a point (a may-analysis: the union over merged
// paths), each tagged with whether its unlock is already deferred.
type lockFact struct {
	held []heldLock
}

// lockLattice runs the held-set analysis over one package's functions.
type lockLattice struct {
	s   *summaries
	pkg *Package
}

func (lt *lockLattice) entry() fact { return lockFact{} }

func (lt *lockLattice) transfer(f fact, n ast.Node) fact {
	return lt.apply(f, n, nil)
}

// join unions the held entries of two paths, keyed by (acquisition site,
// deferred flag). Alternatives that locked the same lock at different
// sites both survive; the consumers treat same-object entries as one
// runtime lock where that matters (direct unlock clears all of them).
func (lt *lockLattice) join(a, b fact) fact {
	ha, hb := a.(lockFact).held, b.(lockFact).held
	if len(hb) == 0 {
		return a
	}
	if len(ha) == 0 {
		return b
	}
	out := append([]heldLock(nil), ha...)
	for _, h := range hb {
		if !containsHeld(out, h) {
			out = append(out, h)
		}
	}
	return lockFact{held: out}
}

func (lt *lockLattice) equal(a, b fact) bool {
	ha, hb := a.(lockFact).held, b.(lockFact).held
	if len(ha) != len(hb) {
		return false
	}
	for _, h := range ha {
		if !containsHeld(hb, h) {
			return false
		}
	}
	return true
}

func containsHeld(held []heldLock, h heldLock) bool {
	for _, x := range held {
		if x.obj == h.obj && x.pos == h.pos && x.deferred == h.deferred {
			return true
		}
	}
	return false
}

// recorder collects the per-function summary during the replay pass.
type recorder struct {
	s    *summaries
	pkg  *Package
	node *funcNode
	lits []*ast.FuncLit
}

// apply advances the held set across one atomic CFG node. With rec nil it
// is the pure transfer function; with rec set it additionally records
// acquisitions, calls, field accesses, exits, and harvested literals.
func (lt *lockLattice) apply(f fact, n ast.Node, rec *recorder) fact {
	st := &lockState{lt: lt, rec: rec, held: f.(lockFact).held}
	switch s := n.(type) {
	case *ast.GoStmt:
		// The spawned call runs without the caller's locks; only its
		// argument expressions evaluate inline. Its function literal (if
		// any) is summarized separately with an empty entry context.
		if rec != nil {
			harvestLits(rec, s.Call.Fun)
		}
		for _, arg := range s.Call.Args {
			st.walk(arg, nil)
		}
	case *ast.DeferStmt:
		st.walk(s, s.Call)
	case *ast.ReturnStmt:
		// The lock state the function exits with: recorded before the
		// results evaluate (result expressions do not take locks in this
		// codebase, and an acquisition inside one would be a bug the
		// ordering checks catch on its own).
		if rec != nil {
			rec.node.exits = append(rec.node.exits, exitSite{pos: s.Pos(), kind: exitReturn, held: st.held})
		}
		st.walk(s, nil)
	case *ast.ExprStmt:
		st.walk(s, nil)
		if rec != nil && isPanicCall(s.X) {
			rec.node.exits = append(rec.node.exits, exitSite{pos: s.Pos(), kind: exitPanic, held: st.held})
		}
	default:
		st.walk(n, nil)
	}
	return lockFact{held: st.held}
}

// lockState carries the mutable held set while one node is applied. The
// incoming slice is shared with the block's fact: every mutation path
// copies first.
type lockState struct {
	lt   *lockLattice
	rec  *recorder
	held []heldLock
}

// walk visits one expression/statement subtree in evaluation order,
// classifying calls and (when recording) field accesses. deferredCall
// marks the outer call of a DeferStmt.
func (st *lockState) walk(n ast.Node, deferredCall *ast.CallExpr) {
	writes := writeTargets(n)
	ast.Inspect(n, func(nn ast.Node) bool {
		switch nn := nn.(type) {
		case *ast.FuncLit:
			if st.rec != nil {
				st.rec.lits = append(st.rec.lits, nn)
			}
			return false
		case *ast.UnaryExpr:
			if nn.Op == token.AND && st.rec != nil {
				if sel := baseSelector(nn.X); sel != nil {
					st.field(sel, fieldEscape)
				}
			}
		case *ast.CallExpr:
			st.call(nn, nn == deferredCall)
			if st.rec != nil {
				if named := builtinMakeType(st.lt.pkg, nn); named != nil {
					st.rec.node.makes[named.Obj()] = true
				}
			}
		case *ast.SelectorExpr:
			if st.rec != nil {
				kind := fieldRead
				if writes[nn] {
					kind = fieldWrite
				}
				st.field(nn, kind)
			}
		case *ast.CompositeLit:
			if st.rec != nil {
				if named := namedCompositeType(st.lt.pkg, nn); named != nil {
					st.rec.node.makes[named.Obj()] = true
				}
			}
		}
		return true
	})
}

// call classifies one call: a lock acquisition, a lock release, or an
// ordinary call recorded with the current held set.
func (st *lockState) call(call *ast.CallExpr, isDefer bool) {
	lt := st.lt
	if obj, acquire, ok := lt.s.lockOp(lt.pkg, call); ok {
		if acquire {
			if isDefer {
				return // `defer mu.Lock()` — not a real idiom; ignore
			}
			class := lt.s.locks[obj]
			if class == nil {
				return // unclassified mutex: outside the hierarchy
			}
			if st.rec != nil {
				st.rec.node.acquires = append(st.rec.node.acquires, acqSite{
					obj:   obj,
					class: class,
					pos:   call.Pos(),
					held:  st.held,
				})
			}
			st.held = append(append([]heldLock(nil), st.held...),
				heldLock{obj: obj, class: class, pos: call.Pos()})
			return
		}
		if isDefer {
			// Deferred unlock: the lock stays held (for ordering checks)
			// but its newest live acquisition is marked released-at-exit.
			for i := len(st.held) - 1; i >= 0; i-- {
				if st.held[i].obj == obj && !st.held[i].deferred {
					out := append([]heldLock(nil), st.held...)
					out[i].deferred = true
					st.held = out
					return
				}
			}
			return
		}
		// Direct unlock: clear every live acquisition of this lock —
		// merged alternative paths may carry the same runtime lock under
		// several acquisition sites. If only deferred entries remain
		// (unlock-before-relock windows), clear those instead.
		st.held = removeLock(st.held, obj)
		return
	}
	callee := staticCallee(lt.pkg, call)
	if callee == nil {
		return
	}
	if st.rec != nil {
		st.rec.node.calls = append(st.rec.node.calls, callSite{
			callee: callee,
			id:     callee.FullName(),
			pos:    call.Pos(),
			held:   st.held,
		})
	}
}

// removeLock drops held entries for obj: all non-deferred entries, or —
// when none exist — all deferred ones (a direct unlock inside a
// defer-guarded relock window).
func removeLock(held []heldLock, obj types.Object) []heldLock {
	var out []heldLock
	removed := false
	for _, h := range held {
		if h.obj == obj && !h.deferred {
			removed = true
			continue
		}
		out = append(out, h)
	}
	if removed {
		return out
	}
	out = out[:0:0]
	for _, h := range held {
		if h.obj == obj {
			continue
		}
		out = append(out, h)
	}
	return out
}

// field records one struct-field access with the current held set.
func (st *lockState) field(sel *ast.SelectorExpr, kind int) {
	info := st.lt.pkg.Info
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	fld, ok := selection.Obj().(*types.Var)
	if !ok {
		return
	}
	if named := namedType(selection.Recv()); named != nil {
		st.lt.s.owner[fld] = named.Obj()
	}
	st.rec.node.fields = append(st.rec.node.fields, fieldUse{
		obj:  fld,
		pos:  sel.Sel.Pos(),
		kind: kind,
		held: st.held,
	})
}

// harvestLits collects function literals from a subtree without applying
// any lock effects (used for `go` call functions).
func harvestLits(rec *recorder, n ast.Node) {
	ast.Inspect(n, func(nn ast.Node) bool {
		if lit, ok := nn.(*ast.FuncLit); ok {
			rec.lits = append(rec.lits, lit)
			return false
		}
		return true
	})
}

// writeTargets maps the selector expressions a node writes through: the
// base selectors of assignment LHSs (including map/slice element and
// compound assignments), IncDec operands, and delete() targets.
func writeTargets(n ast.Node) map[*ast.SelectorExpr]bool {
	var out map[*ast.SelectorExpr]bool
	mark := func(e ast.Expr) {
		if sel := baseSelector(e); sel != nil {
			if out == nil {
				out = map[*ast.SelectorExpr]bool{}
			}
			out[sel] = true
		}
	}
	switch s := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			mark(lhs)
		}
	case *ast.IncDecStmt:
		mark(s.X)
	}
	// delete(s.m, k) writes through s.m wherever the call appears.
	ast.Inspect(n, func(nn ast.Node) bool {
		call, ok := nn.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "delete" {
			mark(call.Args[0])
		}
		return true
	})
	return out
}

// baseSelector unwraps an lvalue chain (parens, indexing, dereference) to
// the selector expression it stores through, if any. `s.m[k]` and
// `*s.p` both resolve to the field selector.
func baseSelector(e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x
		default:
			return nil
		}
	}
}

// builtinMakeType resolves a make/new builtin call to the named struct
// type it allocates (the element type of a made slice, the pointee of
// new): allocating structs is constructing them, which feeds the
// guardedfield constructor exemption just like a composite literal.
func builtinMakeType(pkg *Package, call *ast.CallExpr) *types.Named {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || (id.Name != "make" && id.Name != "new") {
		return nil
	}
	if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return nil
	}
	tv, ok := pkg.Info.Types[call]
	if !ok {
		return nil
	}
	t := tv.Type
	switch u := t.Underlying().(type) {
	case *types.Slice:
		t = u.Elem()
	case *types.Pointer:
		t = u.Elem()
	default:
		return nil // made maps/chans don't construct their value type
	}
	named := namedType(t)
	if named == nil {
		return nil
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return nil
	}
	return named
}

// namedType unwraps pointers and aliases down to the named type, if any.
func namedType(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// namedCompositeType resolves a composite literal to its named struct
// type, if it has one.
func namedCompositeType(pkg *Package, lit *ast.CompositeLit) *types.Named {
	tv, ok := pkg.Info.Types[lit]
	if !ok {
		return nil
	}
	named := namedType(tv.Type)
	if named == nil {
		return nil
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return nil
	}
	return named
}

// lockOp recognizes sync.Mutex/RWMutex Lock/Unlock family calls and
// resolves the lock's identity (the field or variable object the mutex
// lives in). ok=false means the call is not a mutex operation.
func (s *summaries) lockOp(pkg *Package, call *ast.CallExpr) (obj types.Object, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	var acq bool
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		acq = true
	case "Unlock", "RUnlock":
		acq = false
	default:
		return nil, false, false
	}
	fn, isFn := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false, false
	}
	return lockIdentity(pkg, sel.X), acq, true
}

// lockIdentity resolves the expression a mutex method was invoked on to a
// stable object: a struct field var (`s.mu`) or a plain var (`mu`).
func lockIdentity(pkg *Package, expr ast.Expr) types.Object {
	switch expr := expr.(type) {
	case *ast.SelectorExpr:
		if selInfo, ok := pkg.Info.Selections[expr]; ok {
			return selInfo.Obj()
		}
		return pkg.Info.Uses[expr.Sel]
	case *ast.Ident:
		return pkg.Info.Uses[expr]
	case *ast.ParenExpr:
		return lockIdentity(pkg, expr.X)
	}
	return nil
}

// staticCallee resolves a call expression to the *types.Func it invokes,
// or nil for dynamic calls (function values, parameters, field-held
// functions like the pool's FlushFn), conversions, and builtins.
func staticCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return fn
}

// witness records how a transitive property (acquires lock X / reaches
// I/O) enters a function: through which callee, at which call site.
type witness struct {
	via    string // callee display id ("" = the property is direct)
	pos    token.Pos
	direct string // for direct sources: what exactly (lock name, callee)
}

// transitiveAcquires computes, for every function id, the set of lock
// classes the function may acquire directly or through the static calls it
// makes, with a witness chain for diagnostics.
func (s *summaries) transitiveAcquires() map[string]map[*lockClass]*witness {
	acq := map[string]map[*lockClass]*witness{}
	add := func(id string, c *lockClass, w *witness) bool {
		m := acq[id]
		if m == nil {
			m = map[*lockClass]*witness{}
			acq[id] = m
		}
		if _, ok := m[c]; ok {
			return false
		}
		m[c] = w
		return true
	}
	for _, fn := range s.funcs {
		if fn.id == "" {
			continue
		}
		for _, a := range fn.acquires {
			add(fn.id, a.class, &witness{pos: a.pos, direct: a.class.name})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range s.funcs {
			if fn.id == "" {
				continue
			}
			for _, cs := range fn.calls {
				for c := range acq[cs.id] {
					if add(fn.id, c, &witness{via: cs.id, pos: cs.pos}) {
						changed = true
					}
				}
			}
		}
	}
	return acq
}

// chain renders the witness path for id's property as "f → g → h".
func chain(wit map[string]map[*lockClass]*witness, id string, c *lockClass, display func(string) string) string {
	path := display(id)
	for i := 0; i < 10; i++ { // bounded: recursion could loop
		w := wit[id][c]
		if w == nil || w.via == "" {
			break
		}
		id = w.via
		path += " → " + display(id)
	}
	return path
}

// displayName shortens a types.Func.FullName for diagnostics:
// "(*quickstore/internal/wal.Log).Flush" → "(*wal.Log).Flush".
func displayName(full string) string {
	out := strings.ReplaceAll(full, "quickstore/internal/", "")
	return strings.ReplaceAll(out, "quickstore/", "")
}

// describeHeld names a held-lock set for diagnostics.
func describeHeld(held []heldLock) string {
	var names []string
	for _, h := range held {
		names = append(names, h.class.name)
	}
	return strings.Join(names, ", ")
}

// exitDescription renders an exit site for unlockpath diagnostics.
func (p *Program) exitDescription(e exitSite) string {
	switch e.kind {
	case exitReturn:
		return fmt.Sprintf("the return at %s", p.PosString(e.pos))
	case exitPanic:
		return fmt.Sprintf("the panic at %s", p.PosString(e.pos))
	default:
		return fmt.Sprintf("the function end at %s", p.PosString(e.pos))
	}
}
