package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"

	"asterix/cmd/asterixlint/cfg"
)

// This file is the one lock model under the three lock rules (lock-held,
// lock-order, defer-unlock): it classifies sync.Mutex / sync.RWMutex
// method calls, names the mutex they operate on, and runs one forward
// held-lock pass over each function body whose result all three read.
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

func (ev lockEvent) unlocks() bool { return ev.method == "Unlock" || ev.method == "RUnlock" }

// syncMutexMethod resolves call to a sync.Mutex/RWMutex method and the
// expression the method is invoked on ("" when it is not one).
func syncMutexMethod(info *types.Info, call *ast.CallExpr) (method string, on ast.Expr) {
	fn := calleeFunc(info, call)
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if fn == nil || !ok {
		return "", nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv == nil || !isSyncMutexType(recv.Type()) {
		return "", nil
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
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

// lockCalls finds the mutex method calls in a node, in source order. A
// function literal runs on its own stack and is analyzed as its own
// function, so its body is skipped — except under a defer, where a
// deferred closure's calls (`defer func() { ...; mu.Unlock() }()`) are
// what the defer schedules for function exit.
func lockCalls(p *Package, n ast.Node) []lockEvent {
	_, deferred := n.(*ast.DeferStmt)
	var evs []lockEvent
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok && !deferred {
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

// tryLockGuard finds the TryLock/TryRLock condition that ends blk and the
// edge it succeeds on: True, or False for the `if !mu.TryLock()` shape.
func tryLockGuard(p *Package, blk *cfg.Block) (lockEvent, cfg.EdgeKind, bool) {
	var cond ast.Expr
	if n := len(blk.Nodes); n > 0 {
		cond, _ = blk.Nodes[n-1].(ast.Expr)
	}
	success := cfg.True
	for {
		u, ok := ast.Unparen(cond).(*ast.UnaryExpr)
		if !ok || u.Op != token.NOT {
			break
		}
		success = cfg.True + cfg.False - success
		cond = u.X
	}
	call, ok := ast.Unparen(cond).(*ast.CallExpr)
	if !ok {
		return lockEvent{}, 0, false
	}
	if method, on := syncMutexMethod(p.Info, call); method == "TryLock" || method == "TryRLock" {
		key, ok := classifyLock(p, on)
		return lockEvent{method: method, key: key, pos: call.Pos()}, success, ok
	}
	return lockEvent{}, 0, false
}

// heldFact is one mutex held at a program point.
type heldFact struct {
	pos      token.Pos // the acquisition: the witness for diagnostics
	global   bool      // a node of the lock-order graph
	deferred bool      // a `defer Unlock` already covers every exit
}

// heldSet maps lock id → fact. Meet is union, which makes the pass a
// may-analysis: a report means "there exists a path".
type heldSet map[string]heldFact

func (s heldSet) acquire(ev lockEvent) {
	if _, held := s[ev.key.id]; !held {
		s[ev.key.id] = heldFact{pos: ev.pos, global: ev.key.global}
	}
}

// meetHeld keeps a fact undeferred if any incoming path leaves it so,
// and otherwise the earliest witness, so reports never depend on the
// solver's iteration order.
func meetHeld(dst, src heldSet) heldSet {
	for id, f := range src {
		cur, ok := dst[id]
		if !ok || (cur.deferred && !f.deferred) || (cur.deferred == f.deferred && f.pos < cur.pos) {
			dst[id] = f
		}
	}
	return dst
}

// sorted returns the ids ordered by witness position, then id.
func (s heldSet) sorted() []string {
	ids := make([]string, 0, len(s))
	for id := range s {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := s[ids[i]], s[ids[j]]
		return a.pos < b.pos || (a.pos == b.pos && ids[i] < ids[j])
	})
	return ids
}

// heldAt is the held set at one node (before it runs) or on one Return
// edge (pos is the return, or the closing brace for the implicit one).
type heldAt struct {
	node ast.Node
	pos  token.Pos
	held heldSet
}

// lockFlow is the solved held-lock pass over one function body: the
// nodes reached with some lock held, in block order, and the Return
// edges that leave one held.
type lockFlow struct {
	nodes, returns []heldAt
}

// heldLocks runs the held-lock pass over body, once per body: Lock and
// RLock add a fact, Unlock and RUnlock remove it, `defer Unlock` marks
// it deferred and keeps it held, and TryLock holds only on the edge
// where it succeeded (negation-aware).
func heldLocks(p *Package, body *ast.BlockStmt) *lockFlow {
	if f, ok := p.locks[body]; ok {
		return f
	}
	f := &lockFlow{}
	if p.locks == nil {
		p.locks = map[*ast.BlockStmt]*lockFlow{}
	}
	p.locks[body] = f
	acquires := false
	for _, ev := range lockCalls(p, body) {
		acquires = acquires || !ev.unlocks()
	}
	if !acquires {
		return f
	}
	g := cfg.New(body)
	lat := cfg.Lattice[heldSet]{
		Clone: maps.Clone[heldSet],
		Meet:  meetHeld,
		Equal: maps.Equal[heldSet, heldSet],
		Node: func(n ast.Node, s heldSet) heldSet {
			_, deferred := n.(*ast.DeferStmt)
			for _, ev := range lockCalls(p, n) {
				switch h, held := s[ev.key.id]; {
				case deferred:
					// The call runs at exit: an Unlock there covers
					// every exit, and the lock stays held until then.
					if held && ev.unlocks() {
						h.deferred = true
						s[ev.key.id] = h
					}
				case ev.unlocks():
					delete(s, ev.key.id)
				case ev.method == "Lock" || ev.method == "RLock":
					s.acquire(ev)
				}
			}
			return s
		},
		Refine: func(blk *cfg.Block, e cfg.Edge, s heldSet) heldSet {
			if ev, success, ok := tryLockGuard(p, blk); ok && e.Kind == success {
				s.acquire(ev)
			}
			return s
		},
	}
	cfg.Visit(g, cfg.Forward(g, heldSet{}, lat), lat, func(_ *cfg.Block, n ast.Node, before heldSet) {
		if len(before) > 0 {
			f.nodes = append(f.nodes, heldAt{node: n, held: before})
		}
	}, func(blk *cfg.Block, e cfg.Edge, out heldSet) {
		if e.Kind != cfg.Return || len(out) == 0 {
			return
		}
		pos := g.End
		if n := len(blk.Nodes); n > 0 {
			if r, ok := blk.Nodes[n-1].(*ast.ReturnStmt); ok {
				pos = r.Pos()
			}
		}
		f.returns = append(f.returns, heldAt{pos: pos, held: out})
	})
	return f
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
