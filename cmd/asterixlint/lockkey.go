package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the shared lock-identity layer under the flow-sensitive
// lock rules (lock-order, defer-unlock): it classifies sync.Mutex /
// sync.RWMutex method calls and names the mutex they operate on.
//
// A lock's identity is (package, receiver type, field name) for struct
// fields — `l.mu.Lock()` in the LSM lifecycle is
// "asterix/internal/lsm.lifecycle.mu" regardless of which index is
// locked — (package, var) for
// package-level mutexes, and a function-local marker for everything
// else. Only the first two are "global": they participate in the
// repo-wide acquisition-order graph. Collapsing instances onto their
// field is the RacerD-style abstraction that makes cross-package
// ordering tractable without alias analysis; hand-over-hand locking of
// two instances of the same field is its known blind spot (see
// docs/STATIC_ANALYSIS.md).

// lockKey names one mutex.
type lockKey struct {
	id     string
	global bool
}

// lockEvent is one mutex method call found in a node.
type lockEvent struct {
	method string // Lock, RLock, Unlock, RUnlock, TryLock, TryRLock
	key    lockKey
	pos    token.Pos
}

// syncMutexMethod resolves call to a sync.Mutex/RWMutex method and the
// expression the method is invoked on ("" when it is not one).
func syncMutexMethod(info *types.Info, call *ast.CallExpr) (method string, on ast.Expr) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", nil
	}
	rt := namedType(sig.Recv().Type())
	if rt == nil || (rt.Obj().Name() != "Mutex" && rt.Obj().Name() != "RWMutex") {
		return "", nil
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return "", nil
		}
		return fn.Name(), sel.X
	}
	return "", nil
}

// isSyncMutexType reports whether t (through pointers) is sync.Mutex or
// sync.RWMutex.
func isSyncMutexType(t types.Type) bool {
	return isPkgType(t, "sync", "Mutex") || isPkgType(t, "sync", "RWMutex")
}

// classifyLock names the mutex behind expression e (the receiver of a
// mutex method call).
func classifyLock(p *Package, e ast.Expr) (lockKey, bool) {
	e = ast.Unparen(e)
	t := p.Info.TypeOf(e)
	if t != nil && !isSyncMutexType(t) {
		// Promoted method: `t.Lock()` with the mutex embedded in t's
		// struct. Name the embedded field.
		owner := namedType(t)
		if owner == nil || owner.Obj().Pkg() == nil {
			return lockKey{}, false
		}
		st, ok := owner.Underlying().(*types.Struct)
		if !ok {
			return lockKey{}, false
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Embedded() && isSyncMutexType(f.Type()) {
				return lockKey{
					id:     owner.Obj().Pkg().Path() + "." + owner.Obj().Name() + "." + f.Name(),
					global: true,
				}, true
			}
		}
		return lockKey{}, false
	}
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			owner := namedType(p.Info.TypeOf(x.X))
			if owner == nil || owner.Obj().Pkg() == nil {
				return lockKey{}, false
			}
			return lockKey{
				id:     owner.Obj().Pkg().Path() + "." + owner.Obj().Name() + "." + x.Sel.Name,
				global: true,
			}, true
		}
		// Qualified package-level var: pkg.mu.
		if v, ok := p.Info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return lockKey{id: v.Pkg().Path() + "." + v.Name(), global: true}, true
		}
	case *ast.Ident:
		obj := p.Info.Uses[x]
		if obj == nil {
			obj = p.Info.Defs[x]
		}
		if v, ok := obj.(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return lockKey{id: v.Pkg().Path() + "." + v.Name(), global: true}, true
			}
			return lockKey{id: "local:" + v.Name() + "@" + p.Fset.Position(v.Pos()).String(), global: false}, true
		}
	}
	return lockKey{}, false
}

// lockCalls finds the mutex method calls in a node, in source order,
// without entering function-literal bodies (a literal runs on its own
// stack and is analyzed as its own function).
func lockCalls(p *Package, n ast.Node) []lockEvent {
	var evs []lockEvent
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, on := syncMutexMethod(p.Info, call)
		if method == "" {
			return true
		}
		if key, ok := classifyLock(p, on); ok {
			evs = append(evs, lockEvent{method: method, key: key, pos: call.Pos()})
		}
		return true
	})
	return evs
}

// deferredUnlocks finds Unlock/RUnlock calls a defer statement schedules
// for function exit — directly (`defer mu.Unlock()`) or inside a
// deferred closure (`defer func() { ...; mu.Unlock() }()`).
func deferredUnlocks(p *Package, d *ast.DeferStmt) []lockEvent {
	var evs []lockEvent
	ast.Inspect(d.Call, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, on := syncMutexMethod(p.Info, call)
		if method != "Unlock" && method != "RUnlock" {
			return true
		}
		if key, ok := classifyLock(p, on); ok {
			evs = append(evs, lockEvent{method: method, key: key, pos: call.Pos()})
		}
		return true
	})
	return evs
}

// condTryLock inspects a branch condition for a TryLock/TryRLock guard
// and returns its lock event plus the edge polarity: acquiredOnTrue is
// false for the `if !mu.TryLock()` shape.
func condTryLock(p *Package, cond ast.Expr) (ev lockEvent, acquiredOnTrue, ok bool) {
	acquiredOnTrue = true
	e := ast.Unparen(cond)
	for {
		u, isNot := e.(*ast.UnaryExpr)
		if !isNot || u.Op != token.NOT {
			break
		}
		acquiredOnTrue = !acquiredOnTrue
		e = ast.Unparen(u.X)
	}
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return lockEvent{}, false, false
	}
	method, on := syncMutexMethod(p.Info, call)
	if method != "TryLock" && method != "TryRLock" {
		return lockEvent{}, false, false
	}
	key, classified := classifyLock(p, on)
	if !classified {
		return lockEvent{}, false, false
	}
	return lockEvent{method: method, key: key, pos: call.Pos()}, acquiredOnTrue, true
}
