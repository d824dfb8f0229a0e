package main

// Interprocedural engine: per-function summaries over the module call
// graph. Each function gets a Summary of its direct effects — allocation
// sites, blocking sites (with wait-attribution coverage), outgoing call
// edges, panic reachability, and what it does with resource-typed
// parameters — and the resource facts are resolved bottom-up over the
// call graph's SCCs. The hot-alloc and wait-attrib rules then walk
// summaries from their registered roots; the resource-leak rule consults
// resolved parameter actions instead of killing facts at every call.
//
// Summaries are position-based (file:line:col relative to the module
// root), not AST-based, which is what makes them cacheable: a cache hit
// keyed on the Go file hash set restores the whole table and skips call
// graph construction and extraction. See docs/STATIC_ANALYSIS.md.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

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

// SitePos is a serializable source position, file relative to the
// module root.
type SitePos struct {
	File string `json:"f"`
	Line int    `json:"l"`
	Col  int    `json:"c"`
}

// AllocSite is one direct allocation in a function body.
type AllocSite struct {
	P    SitePos `json:"p"`
	What string  `json:"w"`
}

// BlockSite is one direct potentially-blocking operation. Attributed
// means the site is covered by wait attribution: an AddWait call is
// reachable strictly ahead along forward (non-back) edges — the
// `t0 := time.Now(); <block>; tc.AddWait(kind, time.Since(t0))`
// pattern — or an AddWait-carrying defer is active at the site.
type BlockSite struct {
	P          SitePos `json:"p"`
	What       string  `json:"w"`
	Attributed bool    `json:"a,omitempty"`
}

// EdgeFact is one outgoing call edge of the summary.
type EdgeFact struct {
	P          SitePos  `json:"p"`
	Kind       string   `json:"k"` // static|method|interface|dynamic|external|ref
	Callees    []string `json:"c,omitempty"`
	Ext        string   `json:"x,omitempty"`
	Go         bool     `json:"g,omitempty"`
	Attributed bool     `json:"a,omitempty"`
}

// Param actions, ordered: resolution takes the strongest evidence.
const (
	// ParamNone: the function neither releases, stores, returns, nor
	// forwards the resource to anyone who does — passing a live resource
	// here leaves the caller the owner (and a leak candidate).
	ParamNone = "none"
	// ParamKept: ownership transfers (stored, returned, forwarded to an
	// unknown callee). The caller's obligation ends.
	ParamKept = "kept"
	// ParamReleased: a release is reachable from the function (possibly
	// through further calls).
	ParamReleased = "released"
)

// ParamFact records what a function does with one resource-typed
// parameter. Action is the direct (intraprocedural) evidence; Resolved
// is the fixpoint over forwarded flows.
type ParamFact struct {
	Index    int    `json:"i"`
	Type     string `json:"t"` // "pkg/path.TypeName"
	Action   string `json:"a"`
	Resolved string `json:"-"`
}

// ParamFlow records a resource parameter forwarded verbatim to a module
// callee's parameter.
type ParamFlow struct {
	Param       int    `json:"i"`
	Callee      string `json:"c"`
	CalleeParam int    `json:"j"`
}

// Summary is one function's interprocedural fact sheet.
type Summary struct {
	ID     string      `json:"id"`
	Allocs []AllocSite `json:"allocs,omitempty"`
	Blocks []BlockSite `json:"blocks,omitempty"`
	Edges  []EdgeFact  `json:"edges,omitempty"`
	Panics bool        `json:"panics,omitempty"`
	Params []ParamFact `json:"params,omitempty"`
	Flows  []ParamFlow `json:"flows,omitempty"`
}

// Interp is the interprocedural state handed to rules' Interp hooks.
type Interp struct {
	c       *Config
	fset    *token.FileSet
	modRoot string
	pkgs    []*Package
	sums    map[string]*Summary
	ids     []string // sorted
	// FromCache reports whether the summary table was restored rather
	// than computed (the -stats line surfaces it).
	FromCache bool
	// Suppressed is set by the Runner to its suppression table: it
	// reports whether a rule is ignored at a position. Interprocedural
	// walks treat a suppressed call edge as a cold barrier — a reasoned
	// //lint:ignore on the call line stops the descent into the callee,
	// which is how a whole cold subtree (fault probes, eviction) is
	// excluded without suppressing every deep site in it.
	Suppressed func(rule string, pos token.Position) bool
}

// edgeSuppressed reports whether a call edge is a suppression barrier.
func (ip *Interp) edgeSuppressed(rule string, p SitePos) bool {
	return ip.Suppressed != nil && ip.Suppressed(rule, ip.Position(p))
}

// Pkgs returns the packages under analysis.
func (ip *Interp) Pkgs() []*Package { return ip.pkgs }

// Summary returns the summary for a call-graph ID, nil if unknown.
func (ip *Interp) Summary(id string) *Summary { return ip.sums[id] }

// SummaryFor returns the summary of a resolved function object.
func (ip *Interp) SummaryFor(fn *types.Func) *Summary {
	if fn == nil {
		return nil
	}
	return ip.sums[cfg.FuncID(fn)]
}

// Position converts a summary position back to a reportable one.
func (ip *Interp) Position(p SitePos) token.Position {
	f := p.File
	if ip.modRoot != "" && !filepath.IsAbs(f) {
		f = filepath.Join(ip.modRoot, filepath.FromSlash(f))
	}
	return token.Position{Filename: f, Line: p.Line, Column: p.Col}
}

// site converts a token.Pos to a summary position.
func (ip *Interp) site(pos token.Pos) SitePos {
	p := ip.fset.Position(pos)
	f := p.Filename
	if ip.modRoot != "" {
		if rel, err := filepath.Rel(ip.modRoot, f); err == nil && !strings.HasPrefix(rel, "..") {
			f = filepath.ToSlash(rel)
		}
	}
	return SitePos{File: f, Line: p.Line, Col: p.Column}
}

// resourceTypes maps "pkg/path.TypeName" → Desc for the registered
// resource result types.
func resourceTypes(c *Config) map[string]string {
	m := map[string]string{}
	for i := range c.Resources {
		spec := &c.Resources[i]
		if spec.Type != "" {
			m[spec.Pkg+"."+spec.Type] = spec.Desc
		}
	}
	return m
}

// buildInterp computes (or restores) the summary table for the loaded
// package set.
func buildInterp(c *Config, fset *token.FileSet, modRoot, cacheDir string, pkgs []*Package) *Interp {
	ip := &Interp{c: c, fset: fset, modRoot: modRoot, pkgs: pkgs, sums: map[string]*Summary{}}
	var key string
	if cacheDir != "" {
		key = cacheKey(c, modRoot, pkgs)
		if loadSummaryCache(filepath.Join(cacheDir, key+".json"), ip) {
			ip.FromCache = true
			ip.resolveParams()
			return ip
		}
	}
	var gps []*cfg.GraphPackage
	pkgOf := map[*cfg.GraphPackage]*Package{}
	for _, p := range pkgs {
		gp := &cfg.GraphPackage{Path: p.Path, Files: p.Files, Pkg: p.Pkg, Info: p.Info}
		gps = append(gps, gp)
		pkgOf[gp] = p
	}
	graph := cfg.BuildCallGraph(gps)
	restypes := resourceTypes(c)
	for _, id := range graph.IDs {
		f := graph.Funcs[id]
		ip.sums[id] = newExtractor(ip, pkgOf[f.Pkg], restypes).extract(f)
	}
	for id := range ip.sums {
		ip.ids = append(ip.ids, id)
	}
	sort.Strings(ip.ids)
	ip.resolveParams()
	if cacheDir != "" {
		saveSummaryCache(cacheDir, key, ip)
	}
	return ip
}

// resolveParams runs the bottom-up fixpoint over parameter actions:
// direct evidence joins with the resolved actions of every callee a
// parameter is forwarded to, iterating to a fixpoint so cycles (mutual
// recursion) converge. The lattice is none < kept < released and the
// join takes the maximum, so resolution only ever strengthens.
func (ip *Interp) resolveParams() {
	rank := map[string]int{ParamNone: 0, ParamKept: 1, ParamReleased: 2}
	for _, s := range ip.sums {
		for i := range s.Params {
			s.Params[i].Resolved = s.Params[i].Action
		}
	}
	for changed := true; changed; {
		changed = false
		for _, id := range ip.ids {
			s := ip.sums[id]
			for i := range s.Params {
				p := &s.Params[i]
				best := p.Resolved
				for _, fl := range s.Flows {
					if fl.Param != p.Index {
						continue
					}
					callee := ip.sums[fl.Callee]
					if callee == nil {
						// Forwarded to a function outside the analyzed
						// set: assume ownership transfers (old blanket
						// behavior).
						if rank[ParamKept] > rank[best] {
							best = ParamKept
						}
						continue
					}
					found := false
					for j := range callee.Params {
						cp := &callee.Params[j]
						if cp.Index == fl.CalleeParam && cp.Type == p.Type {
							found = true
							if rank[cp.Resolved] > rank[best] {
								best = cp.Resolved
							}
						}
					}
					if !found && rank[ParamKept] > rank[best] {
						// The callee's parameter is not resource-tracked
						// (interface-typed, say): assume transfer.
						best = ParamKept
					}
				}
				if best != p.Resolved {
					p.Resolved = best
					changed = true
				}
			}
		}
	}
}

// ParamResolved returns the resolved action of calleeID's parameter
// index for the given resource type, or "" when the callee or the
// parameter is unknown to the engine.
func (ip *Interp) ParamResolved(calleeID string, index int, resType string) string {
	s := ip.sums[calleeID]
	if s == nil {
		return ""
	}
	for i := range s.Params {
		if s.Params[i].Index == index && s.Params[i].Type == resType {
			return s.Params[i].Resolved
		}
	}
	return ""
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
	ip       *Interp
	p        *Package
	restypes map[string]string

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

func newExtractor(ip *Interp, p *Package, restypes map[string]string) *extractor {
	return &extractor{ip: ip, p: p, restypes: restypes}
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
	x.sum = &Summary{ID: f.ID}
	x.collectUnits(f.Decl.Body, nil, nil)
	for _, u := range x.units {
		x.scanUnit(u)
	}
	x.edges(f)
	x.params(f)
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
						x.sum.Panics = true
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
	x.sum.Allocs = append(x.sum.Allocs, AllocSite{P: x.ip.site(pos), What: what})
}

// addBlock records a blocking site; coverage is computed before the
// site scan runs (and parents before their literals), so attribution is
// stamped immediately.
func (x *extractor) addBlock(u *unit, pos token.Pos, what string) {
	x.sum.Blocks = append(x.sum.Blocks, BlockSite{
		P: x.ip.site(pos), What: what, Attributed: u.attributedAt(pos),
	})
}

// edges lifts the call graph's sites into serializable facts, stamping
// attribution, and folds configured external blockers into block sites.
func (x *extractor) edges(f *cfg.CGFunc) {
	blockExt := map[string]bool{}
	for _, e := range x.ip.c.BlockExt {
		blockExt[e] = true
	}
	if x.ip.c.LockWaits {
		for _, e := range []string{
			"sync.(Mutex).Lock", "sync.(RWMutex).Lock", "sync.(RWMutex).RLock",
		} {
			blockExt[e] = true
		}
	}
	for _, s := range f.Calls {
		pos := s.Node.Pos()
		if x.inPanicArg(pos) {
			continue // error-path call (panic message formatting)
		}
		u := x.unitAt(pos)
		attributed := u != nil && u.attributedAt(pos)
		ef := EdgeFact{P: x.ip.site(pos), Kind: s.Kind.String(), Go: s.Go, Attributed: attributed}
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
				P: x.ip.site(pos), What: "call to " + s.Callee, Attributed: attributed,
			})
		}
	}
}

// params classifies what the function does with each resource-typed
// parameter.
func (x *extractor) params(f *cfg.CGFunc) {
	sig, ok := f.Fn.Type().(*types.Signature)
	if !ok || sig.Params() == nil {
		return
	}
	info := x.p.Info
	la := &leakAnalysis{c: x.ip.c, p: x.p} // reuse release matching
	for i := 0; i < sig.Params().Len(); i++ {
		pv := sig.Params().At(i)
		n := namedType(pv.Type())
		if n == nil || n.Obj().Pkg() == nil {
			continue
		}
		tkey := n.Obj().Pkg().Path() + "." + n.Obj().Name()
		if _, isRes := x.restypes[tkey]; !isRes {
			continue
		}
		fact := ParamFact{Index: i, Type: tkey, Action: ParamNone}
		x.paramScan(f.Decl.Body, info, la, pv, i, &fact)
		x.sum.Params = append(x.sum.Params, fact)
	}
}

// paramScan walks the whole body (literals included: a release inside a
// closure or goroutine still counts as may-release) looking for
// evidence. Benign uses — release target, method receiver, field read,
// comparison operand — leave the action at none.
func (x *extractor) paramScan(body *ast.BlockStmt, info *types.Info, la *leakAnalysis, pv *types.Var, index int, fact *ParamFact) {
	isParam := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		return info.Uses[id] == pv
	}
	strengthen := func(a string) {
		rank := map[string]int{ParamNone: 0, ParamKept: 1, ParamReleased: 2}
		if rank[a] > rank[fact.Action] {
			fact.Action = a
		}
	}
	skip := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if skip[n] {
			return true
		}
		switch v := n.(type) {
		case *ast.CallExpr:
			if target, isRel := la.releaseTarget(v); isRel && isParam(target) {
				strengthen(ParamReleased)
				skip[target] = true
				return true
			}
			if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok && isParam(sel.X) {
				// Method call on the resource itself: benign use.
				skip[sel.X] = true
			}
			if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok {
				if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					switch b.Name() {
					case "append":
						for ai, arg := range v.Args {
							if !isParam(arg) {
								continue
							}
							skip[ast.Unparen(arg)] = true
							if v.Ellipsis.IsValid() && ai == len(v.Args)-1 {
								continue // spread: the elements copy out
							}
							// Base or stored element: the result may alias
							// or retain the container.
							strengthen(ParamKept)
						}
					default:
						// len/cap/copy/clear/delete/min/max/...: reads of
						// the container, never retention.
						for _, arg := range v.Args {
							if isParam(arg) {
								skip[ast.Unparen(arg)] = true
							}
						}
					}
					return true
				}
			}
			fn := calleeFunc(info, v)
			for ai, arg := range v.Args {
				if !isParam(arg) {
					continue
				}
				skip[ast.Unparen(arg)] = true
				if fn == nil || fn.Pkg() == nil {
					strengthen(ParamKept) // dynamic callee: assume transfer
					continue
				}
				csig, _ := fn.Type().(*types.Signature)
				if csig == nil || (csig.Variadic() && ai >= csig.Params().Len()-1) {
					strengthen(ParamKept)
					continue
				}
				if ai >= csig.Params().Len() {
					strengthen(ParamKept)
					continue
				}
				// Forwarded verbatim: record the flow; the fixpoint
				// resolves whether the callee handles it.
				x.sum.Flows = append(x.sum.Flows, ParamFlow{
					Param: index, Callee: cfg.FuncID(fn), CalleeParam: ai,
				})
			}
		case *ast.ReturnStmt:
			for _, r := range v.Results {
				if isParam(r) {
					strengthen(ParamKept)
					skip[ast.Unparen(r)] = true
				}
			}
		case *ast.CompositeLit:
			for _, el := range v.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if isParam(e) {
					strengthen(ParamKept)
					skip[ast.Unparen(e)] = true
				}
			}
		case *ast.SendStmt:
			if isParam(v.Value) {
				strengthen(ParamKept)
				skip[ast.Unparen(v.Value)] = true
			}
		case *ast.AssignStmt:
			for _, r := range v.Rhs {
				if isParam(r) {
					strengthen(ParamKept) // aliased or stored: transfer
					skip[ast.Unparen(r)] = true
				}
			}
		case *ast.SelectorExpr:
			if isParam(v.X) {
				skip[ast.Unparen(v.X)] = true // field read: benign
			}
		case *ast.RangeStmt:
			if isParam(v.X) {
				skip[ast.Unparen(v.X)] = true // iteration reads
			}
		case *ast.IndexExpr:
			if isParam(v.X) {
				skip[ast.Unparen(v.X)] = true // element read/write
			}
		case *ast.SliceExpr:
			if isParam(v.X) {
				skip[ast.Unparen(v.X)] = true // view of the container
			}
		case *ast.BinaryExpr:
			if isParam(v.X) {
				skip[ast.Unparen(v.X)] = true
			}
			if isParam(v.Y) {
				skip[ast.Unparen(v.Y)] = true
			}
		case *ast.Ident:
			if info.Uses[v] == pv && !skip[v] {
				// Bare use in an unclassified position: conservative
				// transfer (matches the old blanket-escape behavior).
				strengthen(ParamKept)
			}
		}
		return true
	})
}

// --- small type helpers ---

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

// --- summary cache ---

const summaryCacheVersion = "asterixlint-summaries-v2"

type summaryCacheFile struct {
	Version   string     `json:"version"`
	Summaries []*Summary `json:"summaries"`
}

// cacheKey hashes the schema version, the config, and the sorted
// (path, content-hash) set of every Go file in the loaded packages: any
// source or config change misses.
func cacheKey(c *Config, modRoot string, pkgs []*Package) string {
	h := sha256.New()
	fmt.Fprintln(h, summaryCacheVersion)
	fmt.Fprintf(h, "%+v\n", *c)
	var files []string
	seen := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			name := p.Fset.Position(f.Pos()).Filename
			if !seen[name] {
				seen[name] = true
				files = append(files, name)
			}
		}
	}
	sort.Strings(files)
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintf(h, "%s unreadable\n", name)
			continue
		}
		rel := name
		if modRoot != "" {
			if r, err := filepath.Rel(modRoot, name); err == nil {
				rel = filepath.ToSlash(r)
			}
		}
		sum := sha256.Sum256(data)
		fmt.Fprintf(h, "%s %s\n", rel, hex.EncodeToString(sum[:]))
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

func loadSummaryCache(path string, ip *Interp) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	var f summaryCacheFile
	if err := json.Unmarshal(data, &f); err != nil || f.Version != summaryCacheVersion {
		return false
	}
	for _, s := range f.Summaries {
		ip.sums[s.ID] = s
		ip.ids = append(ip.ids, s.ID)
	}
	sort.Strings(ip.ids)
	return true
}

func saveSummaryCache(dir, key string, ip *Interp) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	f := summaryCacheFile{Version: summaryCacheVersion}
	for _, id := range ip.ids {
		f.Summaries = append(f.Summaries, ip.sums[id])
	}
	data, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return
	}
	tmp := filepath.Join(dir, key+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	//lint:ignore err-discard the summary cache is best-effort: a failed rename just means the next run rebuilds summaries from source
	_ = os.Rename(tmp, filepath.Join(dir, key+".json"))
}
