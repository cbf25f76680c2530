package lint

import (
	"go/token"
	"go/types"
)

// ioFuncs lists the functions that perform (or force) disk and log I/O:
// page reads/writes and volume metadata operations in internal/disk, and
// the flush/force family in internal/wal. Interface methods count — a call
// through disk.Volume is I/O no matter the implementation behind it.
var ioFuncs = map[string]map[string]bool{
	"internal/disk": {
		"ReadPage": true, "WritePage": true, "Sync": true,
		"Grow": true, "Allocate": true, "Free": true,
	},
	"internal/wal": {
		"Flush": true, "FlushTo": true, "FlushCommit": true,
		"TruncateBefore": true, "Recover": true, "RedoBefore": true,
	},
}

// AnalyzerLatchIO enforces the buffer pool's rule: all disk and log I/O
// happens with no pool latch held (internal/buffer/latch.go — demand loads
// and eviction write-backs run outside the stripe latch, while the frame's
// filling or writing-back state stands in for the latch). A call made while
// a stripe latch or frame content latch is held is flagged if it is, or can
// statically reach, a disk/wal I/O function. Dynamic calls (the pool's
// FlushFn field, closures passed as parameters) are outside the static
// call graph and are not followed.
func AnalyzerLatchIO() *Analyzer {
	return &Analyzer{
		Name: "latchio",
		Doc:  "flag calls that can reach internal/disk or internal/wal I/O while a buffer-pool latch is held",
		Run:  runLatchIO,
	}
}

func runLatchIO(prog *Program, report func(pos token.Pos, format string, args ...interface{})) {
	s := summarize(prog)
	reach := s.transitiveIO(prog)
	for _, fn := range s.funcs {
		for _, cs := range fn.calls {
			var latch *heldLock
			for i := range cs.held {
				if cs.held[i].class.latch {
					latch = &cs.held[i]
					break
				}
			}
			if latch == nil {
				continue
			}
			if isIOFunc(prog, cs.callee) {
				report(cs.pos, "call to %s performs disk/wal I/O while %s is held: all I/O must run outside pool latches",
					displayName(cs.id), latch.class.name)
				continue
			}
			if w := reach[cs.id]; w != nil {
				report(cs.pos, "call to %s can reach disk/wal I/O (%s) while %s is held: all I/O must run outside pool latches",
					displayName(cs.id), ioChain(reach, cs.id), latch.class.name)
			}
		}
	}
}

// isIOFunc reports whether fn is a direct disk/wal I/O function.
func isIOFunc(prog *Program, fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	for suffix, names := range ioFuncs {
		if path == prog.ModulePath+"/"+suffix && names[fn.Name()] {
			return true
		}
	}
	return false
}

// transitiveIO computes which functions can reach an I/O call through the
// static call graph, with a witness for diagnostics.
func (s *summaries) transitiveIO(prog *Program) map[string]*witness {
	reach := map[string]*witness{}
	for _, fn := range s.funcs {
		if fn.id == "" {
			continue
		}
		for _, cs := range fn.calls {
			if isIOFunc(prog, cs.callee) {
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

// ioChain renders the witness path from id down to the I/O call.
func ioChain(reach map[string]*witness, id string) string {
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
