package lint

import (
	"go/token"
	"go/types"
	"strings"
)

// snapRoots names the snapshot-read entry points: the esm server's
// snapshot-session handlers, its page-read handler (which serves snapshot
// reads, and never locks for any read), and the repl follower's
// point-in-time read path. Everything statically reachable from these
// functions must stay off the lock manager — lock-freedom for readers is the
// MVCC contract (DESIGN.md §15), and one stray Acquire reintroduces
// reader/writer convoys the whole subsystem exists to remove.
var snapRoots = map[string]map[string]bool{
	"internal/esm":  {"beginSnapshot": true, "readPages": true, "snapRead": true, "endSnapshot": true},
	"internal/repl": {"handleSnapBegin": true, "handleSnapRead": true, "snapReadPage": true},
}

// lockAcquireFuncs are the lock.Manager methods that grant locks.
var lockAcquireFuncs = map[string]bool{
	"Acquire": true, "TryAcquire": true,
}

// AnalyzerSnapRead enforces the snapshot-read lock-freedom rule: no
// function on a snapshot-read server path may call, or statically reach,
// (*lock.Manager).Acquire or TryAcquire. Dynamic calls (function values,
// the pool's FlushFn field) are outside the static call graph and are not
// followed.
func AnalyzerSnapRead() *Analyzer {
	return &Analyzer{
		Name: "snapread",
		Doc:  "flag snapshot-read paths that can reach lock.Manager acquisition: MVCC readers must never touch the lock manager",
		Run:  runSnapRead,
	}
}

func runSnapRead(prog *Program, report func(pos token.Pos, format string, args ...interface{})) {
	s := summarize(prog)
	reach := s.transitiveLockAcquire(prog)
	for _, fn := range s.funcs {
		if fn.id == "" || fn.pkg == nil || !isSnapRoot(prog, fn) {
			continue
		}
		for _, cs := range fn.calls {
			if isLockAcquire(prog, cs.callee) {
				report(cs.pos, "snapshot-read path %s calls %s: MVCC readers must never touch the lock manager",
					fn.name, displayName(cs.id))
				continue
			}
			if reach[cs.id] != nil {
				report(cs.pos, "snapshot-read path %s can reach lock acquisition (%s): MVCC readers must never touch the lock manager",
					fn.name, lockChain(reach, cs.id))
			}
		}
	}
}

// isSnapRoot reports whether fn is one of the named snapshot-read entry
// points, matched by module-relative package path and bare function name.
func isSnapRoot(prog *Program, fn *funcNode) bool {
	path := fn.pkg.Types.Path()
	for suffix, names := range snapRoots {
		if path != prog.ModulePath+"/"+suffix {
			continue
		}
		name := fn.name
		if i := strings.LastIndex(name, "."); i >= 0 {
			name = name[i+1:]
		}
		if names[name] {
			return true
		}
	}
	return false
}

// isLockAcquire reports whether fn is a lock.Manager grant method.
func isLockAcquire(prog *Program, fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == prog.ModulePath+"/internal/lock" && lockAcquireFuncs[fn.Name()]
}

// transitiveLockAcquire computes which functions can reach a lock.Manager
// grant through the static call graph, with a witness for diagnostics.
func (s *summaries) transitiveLockAcquire(prog *Program) map[string]*witness {
	reach := map[string]*witness{}
	for _, fn := range s.funcs {
		if fn.id == "" {
			continue
		}
		for _, cs := range fn.calls {
			if isLockAcquire(prog, cs.callee) {
				reach[fn.id] = &witness{pos: cs.pos, direct: displayName(cs.id)}
				break
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range s.funcs {
			if fn.id == "" || reach[fn.id] != nil {
				continue
			}
			for _, cs := range fn.calls {
				if reach[cs.id] != nil {
					reach[fn.id] = &witness{via: cs.id, pos: cs.pos}
					changed = true
					break
				}
			}
		}
	}
	return reach
}

// lockChain renders the witness path from id down to the grant call.
func lockChain(reach map[string]*witness, id string) string {
	path := displayName(id)
	for i := 0; i < 10; i++ {
		w := reach[id]
		if w == nil {
			break
		}
		if w.via == "" {
			path += " → " + w.direct
			break
		}
		id = w.via
		path += " → " + displayName(id)
	}
	return path
}
