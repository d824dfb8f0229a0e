package main

import (
	"fmt"
	"go/ast"
	"go/token"

	"asterix/cmd/asterixlint/cfg"
)

// ruleDeferUnlock finds Lock()s with a return path that never Unlock()s:
// the classic early-return-under-mutex bug that leaves every later
// caller of the function deadlocked. The analysis is flow-sensitive over
// the CFG: a Lock generates a "held, unprotected" fact, an Unlock (or a
// `defer Unlock`, which covers every subsequent exit including panics)
// kills it, and any fact still live on a Return edge is a finding. A
// TryLock guard acquires only on its successful branch. Functions that
// hand a locked mutex to their caller by contract carry a lint:ignore
// with the contract written down.
func ruleDeferUnlock() *Rule {
	return &Rule{
		Name: "defer-unlock",
		Doc:  "every Lock must reach an Unlock (or defer Unlock) on all return paths",
		Run:  runDeferUnlock,
	}
}

func runDeferUnlock(c *Config, p *Package, report func(token.Pos, string)) {
	funcBodies(p, func(_ *ast.FuncDecl, _ *ast.FuncLit, body *ast.BlockStmt) {
		checkDeferUnlock(p, body, report)
	})
}

func checkDeferUnlock(p *Package, body *ast.BlockStmt, report func(token.Pos, string)) {
	g := cfg.New(body)
	lat := cfg.Lattice[posSet]{
		Clone: clonePosSet,
		Meet:  meetPosSet,
		Equal: equalPosSet,
		Node: func(n ast.Node, s posSet) posSet {
			if d, ok := n.(*ast.DeferStmt); ok {
				// The deferred unlock protects the rest of the
				// function: the lock is no longer at risk.
				for _, ev := range deferredUnlocks(p, d) {
					delete(s, ev.key.id)
				}
				return s
			}
			for _, ev := range lockCalls(p, n) {
				switch ev.method {
				case "Lock", "RLock":
					if _, held := s[ev.key.id]; !held {
						s[ev.key.id] = ev.pos
					}
				case "Unlock", "RUnlock":
					delete(s, ev.key.id)
				}
			}
			return s
		},
		Refine: func(blk *cfg.Block, e cfg.Edge, s posSet) posSet {
			ev, onTrue, ok := tryLockGuard(p, blk)
			if !ok {
				return s
			}
			if (onTrue && e.Kind == cfg.True) || (!onTrue && e.Kind == cfg.False) {
				if _, held := s[ev.key.id]; !held {
					s[ev.key.id] = ev.pos
				}
			}
			return s
		},
	}
	in := cfg.Forward(g, posSet{}, lat)

	// One finding per Lock site, witnessed by the first leaking return.
	reported := map[token.Pos]bool{}
	cfg.Visit(g, in, lat, nil, func(blk *cfg.Block, e cfg.Edge, out posSet) {
		if e.Kind != cfg.Return {
			return
		}
		retLine := p.Fset.Position(returnPos(blk, g)).Line
		for _, id := range sortedKeys(out) {
			pos := out[id]
			if reported[pos] {
				continue
			}
			reported[pos] = true
			report(pos, fmt.Sprintf("%s is locked here but a return path (line %d) has no Unlock; unlock on every path or use defer", shortLockID(id), retLine))
		}
	})
}

// tryLockGuard reports the TryLock event guarding blk's branch edges,
// when its last node is such a condition.
func tryLockGuard(p *Package, blk *cfg.Block) (lockEvent, bool, bool) {
	if len(blk.Nodes) == 0 {
		return lockEvent{}, false, false
	}
	cond, ok := blk.Nodes[len(blk.Nodes)-1].(ast.Expr)
	if !ok {
		return lockEvent{}, false, false
	}
	return condTryLock(p, cond)
}

// returnPos locates the return that ends blk (the closing brace for the
// implicit return).
func returnPos(blk *cfg.Block, g *cfg.Graph) token.Pos {
	if len(blk.Nodes) > 0 {
		if r, ok := blk.Nodes[len(blk.Nodes)-1].(*ast.ReturnStmt); ok {
			return r.Pos()
		}
	}
	return g.End
}

// shortLockID trims the module prefix off a lock id for readable
// messages ("asterix/internal/lsm.lifecycle.mu" → "lsm.lifecycle.mu").
func shortLockID(id string) string {
	for i := len(id) - 1; i >= 0; i-- {
		if id[i] == '/' {
			return id[i+1:]
		}
	}
	return id
}

// sortedKeys returns the posSet's ids ordered by witness position, then
// id, for deterministic reports.
func sortedKeys(s posSet) []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0; j-- {
			a, b := keys[j-1], keys[j]
			if s[a] < s[b] || (s[a] == s[b] && a <= b) {
				break
			}
			keys[j-1], keys[j] = b, a
		}
	}
	return keys
}
