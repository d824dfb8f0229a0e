package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ruleLockHeld flags blocking operations performed while a sync.Mutex or
// sync.RWMutex is held: channel sends/receives, blocking selects, ranging
// over a channel, sync.WaitGroup.Wait, time.Sleep, and calls into the
// blocking-I/O packages (os, io, net, net/http). Blocking under a lock is
// how the executor/txn/metadata layers deadlock or collapse under
// concurrency, so the default is "don't"; the rare deliberate cases (WAL
// writes that must be ordered under the log mutex) carry a lint:ignore
// with a written reason.
//
// It reads the held-lock pass (locks.go) and checks every node reached
// with some lock held, so an early-return Unlock, a TryLock's failed
// branch and a lock taken inside a loop are all seen per path.
// sync.Cond.Wait is exempt (it requires the lock by contract), as are
// selects with a default clause (non-blocking).
func ruleLockHeld() *Rule {
	return &Rule{
		Name: "lock-held",
		Doc:  "no channel ops, Wait, or blocking I/O while a mutex is held",
		Run:  runLockHeld,
	}
}

var blockingPkgs = map[string]bool{"os": true, "io": true, "net": true, "net/http": true}

// nonBlockingFuncs are pure helpers in the blocking packages that never
// touch the disk or network.
var nonBlockingFuncs = map[string]bool{
	"os.IsNotExist": true, "os.IsExist": true, "os.IsPermission": true,
	"os.IsTimeout": true, "os.Getenv": true, "os.LookupEnv": true,
	"os.Getpid": true, "io.LimitReader": true, "io.MultiReader": true,
	"io.MultiWriter": true, "io.NopCloser": true,
}

func runLockHeld(c *Config, p *Package, report func(token.Pos, string)) {
	funcBodies(p, func(_ *ast.FuncDecl, _ *ast.FuncLit, body *ast.BlockStmt) {
		held := heldLocks(p, body).nodes
		if len(held) == 0 {
			return
		}
		// The graph keeps a select's comm clauses (an empty select is
		// its own node) and a range's operand as nodes; their findings
		// are reported at the select and the for, where they are
		// written.
		selects := map[ast.Node]*ast.SelectStmt{}
		ranges := map[ast.Node]*ast.RangeStmt{}
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SelectStmt:
				if len(st.Body.List) == 0 {
					selects[st] = st
				}
				for _, cc := range st.Body.List {
					if comm := cc.(*ast.CommClause).Comm; comm != nil {
						selects[comm] = st
					}
				}
			case *ast.RangeStmt:
				ranges[st.X] = st
			}
			return true
		})
		reported := map[token.Pos]bool{}
		for _, at := range held {
			if sel, ok := selects[at.node]; ok {
				if !hasDefaultClause(sel) && !reported[sel.Pos()] {
					reported[sel.Pos()] = true
					report(sel.Pos(), "blocking select while a mutex is held")
				}
				continue
			}
			if r, ok := ranges[at.node]; ok && isChanType(p.Info.TypeOf(r.X)) {
				report(r.Pos(), "ranging over a channel while a mutex is held")
			}
			blockingOps(p, at.node, report)
		}
	})
}

// blockingOps reports the blocking operations node n performs when it
// runs. A go statement's body runs on its own stack, and a deferred call
// runs at exit: only the deferred call's arguments are evaluated here.
func blockingOps(p *Package, n ast.Node, report func(token.Pos, string)) {
	switch st := n.(type) {
	case *ast.GoStmt:
		return
	case *ast.DeferStmt:
		for _, a := range st.Call.Args {
			blockingOps(p, a, report)
		}
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			report(x.Pos(), "channel send while a mutex is held")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				report(x.Pos(), "channel receive while a mutex is held")
			}
		case *ast.CallExpr:
			if what := blockingCall(p, x); what != "" {
				report(x.Pos(), what+" while a mutex is held")
			}
		}
		return true
	})
}

// blockingCall names the blocking callee of call, or "" when it does not
// block. sync.Cond.Wait is exempt: it requires the lock by contract.
func blockingCall(p *Package, call *ast.CallExpr) string {
	fn := calleeFunc(p.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	recv := fn.Type().(*types.Signature).Recv()
	switch {
	case pkg == "sync" && name == "Wait" && recv != nil && isPkgType(recv.Type(), "sync", "WaitGroup"):
		return "sync.WaitGroup.Wait"
	case pkg == "time" && name == "Sleep":
		return "time.Sleep"
	case blockingPkgs[pkg] && !nonBlockingFuncs[pkg+"."+name]:
		return "blocking I/O (" + pkg + "." + name + ")"
	}
	return ""
}

func hasDefaultClause(sel *ast.SelectStmt) bool {
	for _, cc := range sel.Body.List {
		if clause, ok := cc.(*ast.CommClause); ok && clause.Comm == nil {
			return true
		}
	}
	return false
}
