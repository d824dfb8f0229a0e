package main

import (
	"fmt"
	"go/ast"
	"go/token"
)

// ruleDeferUnlock finds Lock()s with a return path that never Unlock()s:
// the classic early-return-under-mutex bug that leaves every later
// caller of the function deadlocked. It reads the held-lock pass
// (locks.go): a fact still held on a Return edge and not covered by a
// `defer Unlock` (which covers every subsequent exit, panics included)
// is a finding. Functions that hand a locked mutex to their caller by
// contract carry a lint:ignore with the contract written down.
func ruleDeferUnlock() *Rule {
	return &Rule{
		Name: "defer-unlock",
		Doc:  "every Lock must reach an Unlock (or defer Unlock) on all return paths",
		Run:  runDeferUnlock,
	}
}

func runDeferUnlock(c *Config, p *Package, report func(token.Pos, string)) {
	funcBodies(p, func(_ *ast.FuncDecl, _ *ast.FuncLit, body *ast.BlockStmt) {
		// One finding per Lock site, witnessed by the first leaking return.
		reported := map[token.Pos]bool{}
		for _, r := range heldLocks(p, body).returns {
			for _, id := range r.held.sorted() {
				f := r.held[id]
				if f.deferred || reported[f.pos] {
					continue
				}
				reported[f.pos] = true
				report(f.pos, fmt.Sprintf("%s is locked here but a return path (line %d) has no Unlock; unlock on every path or use defer",
					shortLockID(id), p.Fset.Position(r.pos).Line))
			}
		}
	})
}
