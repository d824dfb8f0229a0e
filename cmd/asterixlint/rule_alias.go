package main

import (
	"go/ast"
	"go/token"
	"go/types"

	"asterix/cmd/asterixlint/cfg"
)

// ruleFrameAlias flags executor frames (Tuple / []Tuple values) that are
// mutated after being sent over a channel. A connector frame handed to a
// channel is owned by the consumer; appending to it, writing an element,
// or re-slicing it back to zero length reuses the backing array under the
// reader — the silent-corruption-under-concurrency class of bug from the
// paper's Section V. The fix is always the same: hand off a fresh frame
// (set the variable to nil / make a new one) or copy via the tuple.go
// helpers before sending.
//
// The analysis is flow-sensitive over the CFG: "sent" is a per-path fact,
// so a send and a mutation on mutually exclusive branches never report,
// while a send at the bottom of a loop reaches a mutation at the top
// through the back edge. Send events are a direct `ch <- x`, a call
// passing x alongside a `chan`-of-frame parameter (the connWriter send
// helpers), a call passing x through a function value (the callee is
// unknown, so assume it forwards to a consumer), and — summary-
// sensitively — a call whose resolved parameter summary says the callee
// retains x.
func ruleFrameAlias() *Rule {
	return &Rule{
		Name:   "frame-alias",
		Doc:    "frames sent over connector channels must not be mutated afterwards",
		Interp: runFrameAlias,
	}
}

func runFrameAlias(c *Config, ip *Interp, report func(token.Position, string)) {
	for _, p := range ip.Pkgs() {
		p := p
		funcBodies(p, func(_ *ast.FuncDecl, _ *ast.FuncLit, body *ast.BlockStmt) {
			fa := &frameAliasBody{
				c: c, p: p, ip: ip,
				descByPos: map[token.Pos]string{},
				reported:  map[string]bool{},
				report:    report,
			}
			fa.check(body)
		})
	}
}

type frameAliasBody struct {
	c         *Config
	p         *Package
	ip        *Interp
	descByPos map[token.Pos]string // send pos → how the frame left
	reported  map[string]bool
	report    func(token.Position, string)
}

func (fa *frameAliasBody) isTuple(t types.Type) bool {
	return isPkgType(t, fa.c.TuplePkgPath, fa.c.TupleType)
}

func (fa *frameAliasBody) isFrame(t types.Type) bool {
	if t == nil {
		return false
	}
	if fa.isTuple(t) {
		return true
	}
	if sl, ok := t.Underlying().(*types.Slice); ok {
		return fa.isTuple(sl.Elem())
	}
	return false
}

func (fa *frameAliasBody) isFrameChan(t types.Type) bool {
	ch, ok := t.Underlying().(*types.Chan)
	return ok && fa.isFrame(ch.Elem())
}

// frameObj resolves e to a frame-typed identifier's object, or nil.
func (fa *frameAliasBody) frameObj(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := fa.p.Info.Uses[id]
	if obj == nil {
		obj = fa.p.Info.Defs[id]
	}
	if obj == nil || !fa.isFrame(obj.Type()) {
		return nil
	}
	return obj
}

// key gives a frame object a stable state key: its declaration position.
func (fa *frameAliasBody) key(obj types.Object) string {
	return fa.p.Fset.Position(obj.Pos()).String()
}

type frameSend struct {
	obj  types.Object
	pos  token.Pos
	desc string
}

// sends collects the frame handoffs inside n (function literals run
// later under their own analysis and are skipped).
func (fa *frameAliasBody) sends(n ast.Node) []frameSend {
	var out []frameSend
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		switch v := x.(type) {
		case *ast.SendStmt:
			if obj := fa.frameObj(v.Value); obj != nil {
				out = append(out, frameSend{obj, v.Pos(), "sent over a channel"})
			}
		case *ast.CallExpr:
			out = append(out, fa.callSends(v)...)
		}
		return true
	})
	return out
}

// callSends classifies one call's frame arguments.
func (fa *frameAliasBody) callSends(call *ast.CallExpr) []frameSend {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := fa.p.Info.Uses[id].(*types.Builtin); isBuiltin {
			return nil // append/copy/len aliasing is the assignment classifier's job
		}
	}
	if tv, ok := fa.p.Info.Types[call.Fun]; ok && tv.IsType() {
		return nil // conversion
	}
	sig, _ := fa.p.Info.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		if u, ok := fa.p.Info.TypeOf(call.Fun).Underlying().(*types.Signature); ok {
			sig = u
		}
	}
	hasChan := false
	if sig != nil {
		for i := 0; i < sig.Params().Len(); i++ {
			if fa.isFrameChan(sig.Params().At(i).Type()) {
				hasChan = true
			}
		}
	}
	fn := calleeFunc(fa.p.Info, call)
	var out []frameSend
	for i, arg := range call.Args {
		obj := fa.frameObj(arg)
		if obj == nil {
			continue
		}
		switch {
		case hasChan:
			out = append(out, frameSend{obj, call.Pos(), "passed to a channel send helper"})
		case fn == nil:
			// Function-valued callee (connector write hooks, emit
			// closures): unknown body, assume it forwards the frame to a
			// consumer.
			out = append(out, frameSend{obj, call.Pos(), "passed through a function value"})
		default:
			// Known callee: consult its resolved parameter summary for
			// the named tuple type; "kept" means it retained the value.
			if fa.paramKept(fn, i, call, obj) {
				out = append(out, frameSend{obj, call.Pos(), "handed to " + fn.Name() + ", which retains it"})
			}
		}
	}
	return out
}

// paramKept reports whether fn's summary resolves parameter i (for
// obj's named type) as kept.
func (fa *frameAliasBody) paramKept(fn *types.Func, i int, call *ast.CallExpr, obj types.Object) bool {
	if fa.ip == nil {
		return false
	}
	n := namedType(obj.Type())
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	tkey := n.Obj().Pkg().Path() + "." + n.Obj().Name()
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params() == nil {
		return false
	}
	if call.Ellipsis.IsValid() || (sig.Variadic() && i >= sig.Params().Len()-1) || i >= sig.Params().Len() {
		return false
	}
	return fa.ip.ParamResolved(cfg.FuncID(fn), i, tkey) == ParamKept
}

func (fa *frameAliasBody) check(body *ast.BlockStmt) {
	g := cfg.New(body)
	lat := cfg.Lattice[posSet]{
		Clone: clonePosSet,
		Meet:  meetPosSet,
		Equal: equalPosSet,
		Node:  fa.transfer,
	}
	in := cfg.Forward(g, posSet{}, lat)
	cfg.Visit(g, in, lat,
		func(blk *cfg.Block, n ast.Node, before posSet) { fa.checkNode(n, before) },
		nil)
}

// transfer applies one node's effect: sends set the per-path "sent"
// fact, rebinding to a fresh value clears it, in-place growth keeps it.
// Sends apply before resets — in `buf = consume(ch, buf)` the call runs
// first, then the rebind makes buf a fresh frame again.
func (fa *frameAliasBody) transfer(n ast.Node, s posSet) posSet {
	for _, ev := range fa.sends(n) {
		fa.descByPos[ev.pos] = ev.desc
		s["s|"+fa.key(ev.obj)] = ev.pos
	}
	if as, ok := n.(*ast.AssignStmt); ok {
		for i, lhs := range as.Lhs {
			obj := fa.frameObj(lhs)
			if obj == nil {
				continue
			}
			var rhs ast.Expr
			if len(as.Rhs) == len(as.Lhs) {
				rhs = as.Rhs[i]
			} else if len(as.Rhs) == 1 {
				rhs = as.Rhs[0]
			}
			if classifyFrameRHS(fa.p, rhs, obj) == 0 {
				delete(s, "s|"+fa.key(obj))
			}
		}
	}
	return s
}

// checkNode reports mutations of frames whose "sent" fact holds on some
// path into the node.
func (fa *frameAliasBody) checkNode(n ast.Node, before posSet) {
	emit := func(obj types.Object, pos token.Pos, how string) {
		sentAt, sent := before["s|"+fa.key(obj)]
		if !sent {
			return
		}
		k := fa.key(obj) + "|" + fa.p.Fset.Position(pos).String()
		if fa.reported[k] {
			return
		}
		fa.reported[k] = true
		fa.report(fa.p.Fset.Position(pos), "frame "+obj.Name()+" was "+fa.descByPos[sentAt]+
			" and is "+how+" afterwards; the consumer aliases its backing array — hand off a fresh frame or copy it first")
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		as, ok := x.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
				if obj := fa.frameObj(ix.X); obj != nil {
					emit(obj, as.Pos(), "element written")
				}
				continue
			}
			obj := fa.frameObj(lhs)
			if obj == nil {
				continue
			}
			var rhs ast.Expr
			if len(as.Rhs) == len(as.Lhs) {
				rhs = as.Rhs[i]
			} else if len(as.Rhs) == 1 {
				rhs = as.Rhs[0]
			}
			if classifyFrameRHS(fa.p, rhs, obj) == 1 {
				emit(obj, as.Pos(), "grown or re-sliced in place")
			}
		}
		return true
	})
}

// classifyFrameRHS reports how an assignment to obj treats its backing
// array: 1 = in-place reuse (append to self, re-slice of self), 0 = fresh
// value (nil, make, literal, other expression).
func classifyFrameRHS(p *Package, rhs ast.Expr, obj types.Object) int {
	if rhs == nil {
		return 0
	}
	switch e := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" && len(e.Args) > 0 {
			if base, ok := ast.Unparen(e.Args[0]).(*ast.Ident); ok && (p.Info.Uses[base] == obj) {
				return 1
			}
		}
	case *ast.SliceExpr:
		if base, ok := ast.Unparen(e.X).(*ast.Ident); ok && p.Info.Uses[base] == obj {
			return 1
		}
	}
	return 0
}
