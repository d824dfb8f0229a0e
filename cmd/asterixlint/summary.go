package main

// Interprocedural engine: per-function summaries over the module call
// graph. Each function gets a Summary of its direct effects — allocation
// sites, blocking sites (with wait-attribution coverage) and outgoing
// call edges — and the hot-alloc and wait-attrib rules walk summaries
// from their registered roots. See docs/STATIC_ANALYSIS.md.

import (
	"go/ast"
	"go/token"
	"go/types"

	"asterix/cmd/asterixlint/cfg"
)

// FuncRef names a function or method in config registries (hot roots,
// wait roots, attribution sinks).
type FuncRef struct {
	Pkg, Recv, Func string
}

// ID renders the reference in call-graph identifier form.
func (r FuncRef) ID() string {
	if r.Recv != "" {
		return r.Pkg + ".(" + r.Recv + ")." + r.Func
	}
	return r.Pkg + "." + r.Func
}

// AllocSite is one direct allocation in a function body.
type AllocSite struct {
	P    token.Pos
	What string
}

// BlockSite is one direct potentially-blocking operation. Attributed
// means the site is covered by wait attribution: an AddWait call is
// reachable strictly ahead along forward (non-back) edges — the
// `t0 := time.Now(); <block>; tc.AddWait(kind, time.Since(t0))`
// pattern — or an AddWait-carrying defer is active at the site.
type BlockSite struct {
	P          token.Pos
	What       string
	Attributed bool
}

// EdgeFact is one outgoing call edge of the summary.
type EdgeFact struct {
	P          token.Pos
	Kind       string // static|method|interface|dynamic|external|ref
	Callees    []string
	Ext        string
	Go         bool
	Attributed bool
}

// Summary is one function's interprocedural fact sheet.
type Summary struct {
	Allocs []AllocSite
	Blocks []BlockSite
	Edges  []EdgeFact
}

// Interp is the interprocedural state handed to rules' Interp hooks.
type Interp struct {
	c    *Config
	sums map[string]*Summary
	// Suppressed is set by the Runner to its suppression table: it
	// reports whether a rule is ignored at a position. Interprocedural
	// walks treat a suppressed call edge as a cold barrier — a reasoned
	// //lint:ignore on the call line stops the descent into the callee,
	// which is how a whole cold subtree (fault probes, eviction) is
	// excluded without suppressing every deep site in it.
	Suppressed func(rule string, pos token.Pos) bool
}

// Summary returns the summary for a call-graph ID, nil if unknown.
func (ip *Interp) Summary(id string) *Summary { return ip.sums[id] }

// buildInterp computes the summary table for the loaded package set.
func buildInterp(c *Config, pkgs []*Package) *Interp {
	ip := &Interp{c: c, sums: map[string]*Summary{}}
	var gps []*cfg.GraphPackage
	pkgOf := map[*cfg.GraphPackage]*Package{}
	for _, p := range pkgs {
		gp := &cfg.GraphPackage{Path: p.Path, Files: p.Files, Pkg: p.Pkg, Info: p.Info}
		gps = append(gps, gp)
		pkgOf[gp] = p
	}
	graph := cfg.BuildCallGraph(gps)
	for _, id := range graph.IDs {
		f := graph.Funcs[id]
		ip.sums[id] = (&extractor{ip: ip, p: pkgOf[f.Pkg]}).extract(f)
	}
	return ip
}

// --- extraction ---

// unit is one function-like body: the declaration itself or a folded
// (non-go-launched) literal.
type unit struct {
	body   *ast.BlockStmt
	lit    *ast.FuncLit // nil for the declaration body
	parent *unit

	g         *cfg.Graph
	nodeOf    nodeIndex
	coverAll  map[int]bool // block index → every node covered
	coverPre  map[int]int  // block index → nodes with idx < v covered (AddWait ahead)
	coverPost map[int]int  // block index → nodes with idx >= v covered (defer active)
}

// nodeIndex locates the (block, node) containing a position.
type nodeIndex []nodeSpan

type nodeSpan struct {
	from, to token.Pos
	block    int
	idx      int
}

func (ni nodeIndex) find(p token.Pos) (int, int, bool) {
	best := -1
	for i, s := range ni {
		if s.from <= p && p < s.to {
			// Innermost (smallest) containing span wins; spans can nest
			// when a branch condition is re-listed with its statement.
			if best == -1 || (ni[best].to-ni[best].from) > (s.to-s.from) {
				best = i
			}
		}
	}
	if best == -1 {
		return 0, 0, false
	}
	return ni[best].block, ni[best].idx, true
}

// attributedAt reports whether pos (inside u) is covered by wait
// attribution, folding through enclosing units at the literal's
// definition position.
func (u *unit) attributedAt(pos token.Pos) bool {
	if b, i, ok := u.nodeOf.find(pos); ok {
		if u.coverAll[b] {
			return true
		}
		if v, ok := u.coverPre[b]; ok && i < v {
			return true
		}
		if v, ok := u.coverPost[b]; ok && i >= v {
			return true
		}
	}
	if u.lit != nil && u.parent != nil {
		return u.parent.attributedAt(u.lit.Pos())
	}
	return false
}

type extractor struct {
	ip *Interp
	p  *Package

	units []*unit
	// panicSpans are panic-argument source ranges: calls inside them are
	// error-path edges, exempt from hot-path reporting just like the
	// allocations there.
	panicSpans [][2]token.Pos

	sum *Summary
}

func (x *extractor) inPanicArg(pos token.Pos) bool {
	for _, sp := range x.panicSpans {
		if sp[0] <= pos && pos < sp[1] {
			return true
		}
	}
	return false
}

// unitAt returns the innermost unit whose body contains pos (go-launched
// literal interiors have no unit).
func (x *extractor) unitAt(pos token.Pos) *unit {
	var best *unit
	for _, u := range x.units {
		if u.body.Pos() <= pos && pos < u.body.End() {
			if best == nil || (u.body.End()-u.body.Pos()) < (best.body.End()-best.body.Pos()) {
				best = u
			}
		}
	}
	return best
}

func (x *extractor) extract(f *cfg.CGFunc) *Summary {
	x.sum = &Summary{}
	x.collectUnits(f.Decl.Body, nil, nil)
	for _, u := range x.units {
		x.scanUnit(u)
	}
	x.edges(f)
	return x.sum
}

// collectUnits gathers the declaration body and every folded literal,
// excluding literals launched by `go` (and everything inside them).
func (x *extractor) collectUnits(body *ast.BlockStmt, lit *ast.FuncLit, parent *unit) {
	u := &unit{body: body, lit: lit, parent: parent}
	x.units = append(x.units, u)
	goLits := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if l, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				goLits[l] = true
			}
		}
		return true
	})
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if l, ok := n.(*ast.FuncLit); ok {
			if !goLits[l] {
				x.collectUnits(l.Body, l, u)
			}
			return false
		}
		return true
	}
	for _, st := range body.List {
		ast.Inspect(st, walk)
	}
}

// scanUnit records the unit's direct alloc and block sites and computes
// its attribution coverage.
func (x *extractor) scanUnit(u *unit) {
	info := x.p.Info
	u.g = cfg.New(u.body)
	for _, blk := range u.g.Blocks {
		for i, n := range blk.Nodes {
			u.nodeOf = append(u.nodeOf, nodeSpan{from: n.Pos(), to: n.End(), block: blk.Index, idx: i})
		}
	}
	u.coverAll = map[int]bool{}
	u.coverPre = map[int]int{}
	u.coverPost = map[int]int{}

	type sitePoint struct {
		block, idx int
	}
	var addWaits, deferAdds []sitePoint

	// Statements whose subtree we skip when collecting alloc sites:
	// panic arguments are error paths, never hot.
	panicArgs := map[ast.Node]bool{}
	// Appends writing back to their own base are amortized growth, not
	// per-call allocation.
	selfAppend := map[*ast.CallExpr]bool{}
	// string(b) of a []byte as an operand of a comparison is compiled to a
	// compare of the bytes where they lie: no copy.
	cmpConv := map[*ast.CallExpr]bool{}
	// Selects with a default clause never block; their comm ops are
	// attempts. Selects without one block as a whole: one site at the
	// select keyword, comm ops skipped individually.
	selectComm := map[ast.Node]bool{}

	goLits := map[*ast.FuncLit]bool{}
	ast.Inspect(u.body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if l, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				goLits[l] = true
			}
		}
		return true
	})

	scan := func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncLit:
				if !goLits[v] {
					// The launched case is charged at its go statement.
					x.addAlloc(u, v.Pos(), "closure allocates")
				}
				return false
			case *ast.GoStmt:
				x.addAlloc(u, v.Pos(), "goroutine launch allocates")
				return true
			case *ast.SelectStmt:
				hasDefault := false
				for _, cc := range v.Body.List {
					if clause, ok := cc.(*ast.CommClause); ok && clause.Comm == nil {
						hasDefault = true
					}
				}
				if !hasDefault {
					x.addBlock(u, v.Pos(), "blocking select")
				}
				for _, cc := range v.Body.List {
					if clause, ok := cc.(*ast.CommClause); ok && clause.Comm != nil {
						selectComm[clause.Comm] = true
						// Sends/recvs nested inside the comm statement's
						// expressions are the guarded ops themselves.
						ast.Inspect(clause.Comm, func(m ast.Node) bool {
							switch m.(type) {
							case *ast.SendStmt:
								selectComm[m] = true
							case *ast.UnaryExpr:
								if ue, ok := m.(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
									selectComm[m] = true
								}
							}
							return true
						})
					}
				}
				return true
			case *ast.SendStmt:
				if !selectComm[v] {
					x.addBlock(u, v.Pos(), "channel send")
				}
			case *ast.UnaryExpr:
				if v.Op == token.ARROW && !selectComm[v] {
					x.addBlock(u, v.Pos(), "channel receive")
				}
				if v.Op == token.AND {
					if _, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok {
						x.addAlloc(u, v.Pos(), "&composite literal allocates")
					}
				}
			case *ast.RangeStmt:
				if tv, ok := info.Types[v.X]; ok && isChanType(tv.Type) {
					x.addBlock(u, v.X.Pos(), "range over channel")
				}
			case *ast.CompositeLit:
				if panicArgs[v] {
					return true
				}
				if tv, ok := info.Types[v]; ok {
					switch tv.Type.Underlying().(type) {
					case *types.Slice:
						x.addAlloc(u, v.Pos(), "slice literal allocates")
					case *types.Map:
						x.addAlloc(u, v.Pos(), "map literal allocates")
					}
				}
			case *ast.AssignStmt:
				for li, r := range v.Rhs {
					if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && li < len(v.Lhs) {
						if isBuiltinCall(info, call, "append") && len(call.Args) > 0 {
							base := ast.Unparen(call.Args[0])
							if se, ok := base.(*ast.SliceExpr); ok {
								base = ast.Unparen(se.X)
							}
							if types.ExprString(base) == types.ExprString(ast.Unparen(v.Lhs[li])) {
								selfAppend[call] = true
							}
						}
					}
				}
			case *ast.BinaryExpr:
				switch v.Op {
				case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
					for _, operand := range []ast.Expr{v.X, v.Y} {
						if call, ok := ast.Unparen(operand).(*ast.CallExpr); ok && len(call.Args) == 1 {
							if from := info.Types[call.Args[0]].Type; from != nil && types.Identical(from.Underlying(), types.NewSlice(types.Typ[types.Byte])) {
								cmpConv[call] = true
							}
						}
					}
				}
			case *ast.CallExpr:
				x.scanCall(u, v, panicArgs, selfAppend, cmpConv)
			}
			return true
		})
	}

	// Pre-pass: find panic arguments so allocation inside them is
	// exempt, and AddWait/defer attribution anchors.
	for _, st := range u.body.List {
		ast.Inspect(st, func(n ast.Node) bool {
			if l, ok := n.(*ast.FuncLit); ok {
				_ = l
				return false // nested units scan themselves
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin || info.Uses[id] == nil {
						for _, a := range call.Args {
							x.panicSpans = append(x.panicSpans, [2]token.Pos{a.Pos(), a.End()})
							ast.Inspect(a, func(m ast.Node) bool {
								panicArgs[m] = true
								return true
							})
						}
					}
				}
			}
			return true
		})
	}
	addWaitPoints := func(n ast.Node, intoLits bool) []token.Pos {
		var out []token.Pos
		ast.Inspect(n, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok && !intoLits {
				return false
			}
			if call, ok := m.(*ast.CallExpr); ok && x.isWaitFunc(call) {
				out = append(out, call.Pos())
			}
			return true
		})
		return out
	}
	for _, blk := range u.g.Blocks {
		for i, n := range blk.Nodes {
			if d, ok := n.(*ast.DeferStmt); ok {
				if len(addWaitPoints(d, true)) > 0 {
					deferAdds = append(deferAdds, sitePoint{blk.Index, i})
				}
				continue
			}
			if len(addWaitPoints(n, false)) > 0 {
				addWaits = append(addWaits, sitePoint{blk.Index, i})
			}
		}
	}

	// Coverage: a defer carrying AddWait covers everything at and after
	// it (the deferred attribution runs whenever the function exits); an
	// inline AddWait covers the nodes strictly ahead of it along forward
	// edges — back edges are excluded, so a site inside a loop is NOT
	// covered by an AddWait that executed on a previous iteration or in
	// an earlier loop.
	succs := make([][]int, len(u.g.Blocks))
	predsFwd := make([][]int, len(u.g.Blocks))
	for _, blk := range u.g.Blocks {
		for _, e := range blk.Succs {
			succs[blk.Index] = append(succs[blk.Index], e.To.Index)
			if e.Kind != cfg.Back {
				predsFwd[e.To.Index] = append(predsFwd[e.To.Index], blk.Index)
			}
		}
	}
	bfs := func(start int, adj [][]int) {
		seen := map[int]bool{start: true}
		queue := []int{start}
		for len(queue) > 0 {
			b := queue[0]
			queue = queue[1:]
			for _, nx := range adj[b] {
				if !seen[nx] {
					seen[nx] = true
					u.coverAll[nx] = true
					queue = append(queue, nx)
				}
			}
		}
	}
	for _, d := range deferAdds {
		if cur, ok := u.coverPost[d.block]; !ok || d.idx < cur {
			u.coverPost[d.block] = d.idx
		}
		bfs(d.block, succs)
	}
	for _, a := range addWaits {
		if cur, ok := u.coverPre[a.block]; !ok || a.idx > cur {
			u.coverPre[a.block] = a.idx
		}
		bfs(a.block, predsFwd)
	}

	for _, st := range u.body.List {
		scan(st)
	}
}

// scanCall classifies one call expression's allocation behavior.
func (x *extractor) scanCall(u *unit, call *ast.CallExpr, panicArgs map[ast.Node]bool, selfAppend, cmpConv map[*ast.CallExpr]bool) {
	info := x.p.Info
	if panicArgs[call] {
		return
	}
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				x.addAlloc(u, call.Pos(), "make allocates")
			case "new":
				x.addAlloc(u, call.Pos(), "new allocates")
			case "append":
				if !selfAppend[call] {
					x.addAlloc(u, call.Pos(), "append may grow (non-self target)")
				}
			}
			return
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: string↔[]byte/[]rune copy.
		if len(call.Args) == 1 {
			to := tv.Type.Underlying()
			from := info.Types[call.Args[0]].Type
			if from != nil {
				if isStringByteConv(to, from.Underlying()) && !cmpConv[call] {
					x.addAlloc(u, call.Pos(), "string conversion copies")
				}
			}
		}
		return
	}
	// Interface boxing at call arguments: a concrete non-pointer value
	// passed as an interface parameter heap-allocates its box.
	if tv, ok := info.Types[call.Fun]; ok {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			x.boxingAt(u, call, sig)
		}
	}
}

// boxingAt flags concrete→interface argument conversions.
func (x *extractor) boxingAt(u *unit, call *ast.CallExpr, sig *types.Signature) {
	info := x.p.Info
	params := sig.Params()
	if params == nil {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		if i < params.Len() {
			pt = params.At(i).Type()
		} else if sig.Variadic() && params.Len() > 0 {
			pt = params.At(params.Len() - 1).Type()
		}
		if pt == nil {
			continue
		}
		if sig.Variadic() && i >= params.Len()-1 {
			if sl, ok := pt.Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || types.IsInterface(at.Underlying()) {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			continue // pointer-shaped: fits the interface word
		}
		if bt, ok := at.Underlying().(*types.Basic); ok && bt.Kind() == types.UntypedNil {
			continue
		}
		x.addAlloc(u, arg.Pos(), "interface boxing allocates")
	}
}

// isWaitFunc matches calls to the configured attribution sinks
// (TaskContext.AddWait, Span.AddWait).
func (x *extractor) isWaitFunc(call *ast.CallExpr) bool {
	fn := calleeFunc(x.p.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	for _, w := range x.ip.c.WaitFuncs {
		if fn.Pkg().Path() == w.Pkg && fn.Name() == w.Func && recvMatches(fn, w.Recv) {
			return true
		}
	}
	return false
}

func (x *extractor) addAlloc(u *unit, pos token.Pos, what string) {
	x.sum.Allocs = append(x.sum.Allocs, AllocSite{P: pos, What: what})
}

// addBlock records a blocking site; coverage is computed before the
// site scan runs (and parents before their literals), so attribution is
// stamped immediately.
func (x *extractor) addBlock(u *unit, pos token.Pos, what string) {
	x.sum.Blocks = append(x.sum.Blocks, BlockSite{
		P: pos, What: what, Attributed: u.attributedAt(pos),
	})
}

// edges lifts the call graph's sites into summary facts, stamping
// attribution, and folds configured external blockers into block sites.
func (x *extractor) edges(f *cfg.CGFunc) {
	blockExt := map[string]bool{}
	for _, e := range x.ip.c.BlockExt {
		blockExt[e] = true
	}
	for _, s := range f.Calls {
		pos := s.Node.Pos()
		if x.inPanicArg(pos) {
			continue // error-path call (panic message formatting)
		}
		u := x.unitAt(pos)
		attributed := u != nil && u.attributedAt(pos)
		ef := EdgeFact{P: pos, Kind: s.Kind.String(), Go: s.Go, Attributed: attributed}
		switch s.Kind {
		case cfg.Static, cfg.Method, cfg.Ref:
			ef.Callees = []string{s.Callee}
		case cfg.Interface:
			ef.Callees = s.Callees
			ef.Ext = s.Callee
		case cfg.External:
			ef.Ext = s.Callee
		}
		x.sum.Edges = append(x.sum.Edges, ef)
		// Interface dispatch matches the blocker list by declared
		// symbol: a call through an enumerated interface method
		// (net.(Conn).Read/Write) blocks by contract no matter which
		// implementation lands — including ones outside the module,
		// which the callee walk can never reach.
		if (s.Kind == cfg.External || s.Kind == cfg.Interface) && blockExt[s.Callee] {
			x.sum.Blocks = append(x.sum.Blocks, BlockSite{
				P: pos, What: "call to " + s.Callee, Attributed: attributed,
			})
		}
	}
}

// --- small type helpers ---

// recvMatches reports whether fn's receiver type is named recv; an empty
// recv matches package-level functions only.
func recvMatches(fn *types.Func, recv string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv == "" {
		return sig.Recv() == nil
	}
	if sig.Recv() == nil {
		return false
	}
	rt := namedType(sig.Recv().Type())
	return rt != nil && rt.Obj().Name() == recv
}

func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// isStringByteConv reports a conversion that copies between string and
// []byte/[]rune.
func isStringByteConv(to, from types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isBytes := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		e, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
	}
	return (isStr(to) && isBytes(from)) || (isBytes(to) && isStr(from))
}
