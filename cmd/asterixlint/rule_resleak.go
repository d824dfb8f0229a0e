package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"

	"asterix/cmd/asterixlint/cfg"
)

// ruleResourceLeak tracks values of registered acquire/release pairs —
// memory-governor grants, buffer-cache page pins, LSM component
// reference snapshots, transactions, opened files — through the CFG and
// reports any path on which an acquired value reaches a return (or an
// explicit panic) without its release. The lattice is a may-analysis
// over acquisition sites: an acquire generates the fact, a matching
// release (directly, nested in any expression, or scheduled by defer —
// which also covers panic paths) kills it, and the standard Go
// error-contract is modeled branch-sensitively: after `v, err :=
// acquire()`, the `err != nil` branch kills the fact, because the
// acquire functions return a nil resource with a non-nil error.
//
// Ownership transfers end tracking instead of reporting: returning the
// value, storing it into a field/map/global, or capturing it in a
// closure all assume the new owner releases it. Passing the value to
// another function used to be a blanket transfer too; it now consults
// the callee's interprocedural parameter summary — a helper proven to
// neither release, store, return, nor forward the resource (action
// "none") leaves the caller the owner, so the fact survives the call
// and a missing release downstream is a finding. Unknown callees keep
// the old conservative transfer.
func ruleResourceLeak() *Rule {
	return &Rule{
		Name:   "resource-leak",
		Doc:    "acquired resources (grants, pins, component refs, txns, files) must be released on every path",
		Interp: runResourceLeak,
	}
}

// ResourceSpec registers one acquire function whose result must reach a
// release. Recv is empty for package-level functions; Result indexes the
// resource among the call's results. Type names the resource's named
// type within Pkg — it is what lets the interprocedural engine classify
// resource-typed parameters of helper functions; specs whose resource
// has no named type (a slice, say) leave it empty and keep the old
// blanket ownership-transfer behavior at call sites.
type ResourceSpec struct {
	Pkg, Recv, Func string
	Result          int
	Type            string
	Desc            string
	Releases        []ReleaseSpec
}

// ReleaseSpec is one call that releases a resource: the resource sits in
// argument Arg, or is the method receiver when Arg is -1.
type ReleaseSpec struct {
	Pkg, Recv, Func string
	Arg             int
}

func runResourceLeak(c *Config, ip *Interp, report func(token.Pos, string)) {
	if len(c.Resources) == 0 {
		return
	}
	for _, p := range ip.Pkgs() {
		p := p
		funcBodies(p, func(_ *ast.FuncDecl, _ *ast.FuncLit, body *ast.BlockStmt) {
			a := newLeakAnalysis(c, p, report)
			a.ip = ip
			a.check(body)
		})
	}
}

// leakSite is one tracked acquisition.
type leakSite struct {
	id   string // stable per-function id (position string)
	pos  token.Pos
	spec *ResourceSpec
	obj  types.Object // variable holding the resource (nil if discarded)
	err  types.Object // companion error result, when assigned
	via  string       // helper the value survived through (summary "none")
}

type leakAnalysis struct {
	c      *Config
	p      *Package
	ip     *Interp // nil in unit tests that exercise the lattice directly
	report func(token.Pos, string)

	sites   map[string]*leakSite // id → site
	byNode  map[ast.Node][]*leakSite
	byObj   map[types.Object]*leakSite
	errObjs map[types.Object][]*leakSite
}

func newLeakAnalysis(c *Config, p *Package, report func(token.Pos, string)) *leakAnalysis {
	return &leakAnalysis{
		c: c, p: p, report: report,
		sites:   map[string]*leakSite{},
		byNode:  map[ast.Node][]*leakSite{},
		byObj:   map[types.Object]*leakSite{},
		errObjs: map[types.Object][]*leakSite{},
	}
}

// acquireSpec matches a call against the registered acquire functions.
func (a *leakAnalysis) acquireSpec(call *ast.CallExpr) *ResourceSpec {
	fn := calleeFunc(a.p.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	for i := range a.c.Resources {
		spec := &a.c.Resources[i]
		if fn.Pkg().Path() != spec.Pkg || fn.Name() != spec.Func {
			continue
		}
		if !recvMatches(fn, spec.Recv) {
			continue
		}
		return spec
	}
	return nil
}

// releaseTarget resolves call as a release and returns the expression
// holding the released resource.
func (a *leakAnalysis) releaseTarget(call *ast.CallExpr) (ast.Expr, bool) {
	fn := calleeFunc(a.p.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return nil, false
	}
	for i := range a.c.Resources {
		for _, rel := range a.c.Resources[i].Releases {
			if fn.Pkg().Path() != rel.Pkg || fn.Name() != rel.Func || !recvMatches(fn, rel.Recv) {
				continue
			}
			if rel.Arg == -1 {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					return sel.X, true
				}
				return nil, false
			}
			if rel.Arg < len(call.Args) {
				return call.Args[rel.Arg], true
			}
			return nil, false
		}
	}
	return nil, false
}

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

func (a *leakAnalysis) objOf(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := a.p.Info.Uses[id]; obj != nil {
		return obj
	}
	return a.p.Info.Defs[id]
}

// collect registers every acquisition in the graph's nodes, attaching
// sites to their generating node.
func (a *leakAnalysis) collect(g *cfg.Graph) {
	newSite := func(n ast.Node, call *ast.CallExpr, spec *ResourceSpec, obj, errObj types.Object) {
		s := &leakSite{
			id:   a.p.Fset.Position(call.Pos()).String(),
			pos:  call.Pos(),
			spec: spec,
			obj:  obj,
			err:  errObj,
		}
		a.sites[s.id] = s
		a.byNode[n] = append(a.byNode[n], s)
		if obj != nil {
			a.byObj[obj] = s
		}
		if errObj != nil {
			a.errObjs[errObj] = append(a.errObjs[errObj], s)
		}
	}
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Rhs) != 1 {
					continue
				}
				call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
				if !ok {
					continue
				}
				spec := a.acquireSpec(call)
				if spec == nil {
					continue
				}
				var obj, errObj types.Object
				discarded := false
				if spec.Result < len(st.Lhs) {
					lhs := ast.Unparen(st.Lhs[spec.Result])
					if id, isIdent := lhs.(*ast.Ident); isIdent {
						if id.Name == "_" {
							discarded = true
						} else {
							obj = a.objOf(id)
						}
					} else {
						continue // stored straight into a field/slot: owner escapes
					}
				}
				for i, l := range st.Lhs {
					if i == spec.Result {
						continue
					}
					if id, isIdent := ast.Unparen(l).(*ast.Ident); isIdent && id.Name != "_" {
						o := a.objOf(id)
						if o != nil && isErrorType(o.Type()) {
							errObj = o
						}
					}
				}
				if discarded {
					a.report(call.Pos(), fmt.Sprintf("%s from %s is discarded with _: it can never be released", spec.Desc, spec.Func))
					continue
				}
				if obj == nil {
					continue
				}
				newSite(n, call, spec, obj, errObj)
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
					if spec := a.acquireSpec(call); spec != nil {
						a.report(call.Pos(), fmt.Sprintf("%s from %s is discarded: the result must be kept and released", spec.Desc, spec.Func))
					}
				}
			}
		}
	}
}

func (a *leakAnalysis) check(body *ast.BlockStmt) {
	g := cfg.New(body)
	a.collect(g)
	if len(a.sites) == 0 {
		return
	}
	lat := cfg.Lattice[posSet]{
		Clone: clonePosSet,
		Meet:  meetPosSet,
		Equal: equalPosSet,
		Node:  a.transfer,
		Refine: func(blk *cfg.Block, e cfg.Edge, s posSet) posSet {
			return a.refine(blk, e, s)
		},
	}
	in := cfg.Forward(g, posSet{}, lat)

	reported := map[string]bool{}
	cfg.Visit(g, in, lat, nil, func(blk *cfg.Block, e cfg.Edge, out posSet) {
		if e.Kind != cfg.Return && e.Kind != cfg.Panic {
			return
		}
		exit := p_returnWord(e.Kind)
		line := a.p.Fset.Position(returnPos(blk, g)).Line
		if e.Kind == cfg.Panic && len(blk.Nodes) > 0 {
			line = a.p.Fset.Position(blk.Nodes[len(blk.Nodes)-1].Pos()).Line
		}
		for _, id := range sortedKeys(out) {
			if reported[id] {
				continue
			}
			reported[id] = true
			s := a.sites[id]
			rel := releaseNames(s.spec)
			msg := fmt.Sprintf("%s acquired here does not reach %s on the path that %ss at line %d",
				s.spec.Desc, rel, exit, line)
			if s.via != "" {
				msg += fmt.Sprintf(" (passing it to %s does not discharge it: that helper neither releases nor keeps it)", s.via)
			}
			a.report(s.pos, msg)
		}
	})
}

func p_returnWord(k cfg.EdgeKind) string {
	if k == cfg.Panic {
		return "panic"
	}
	return "return"
}

func releaseNames(spec *ResourceSpec) string {
	switch len(spec.Releases) {
	case 0:
		return "a release"
	case 1:
		return spec.Releases[0].Func
	default:
		s := spec.Releases[0].Func
		for _, r := range spec.Releases[1:] {
			s += "/" + r.Func
		}
		return s
	}
}

// transfer is the per-node gen/kill function.
func (a *leakAnalysis) transfer(n ast.Node, s posSet) posSet {
	// Kills first: releases anywhere in the node (including nested in
	// errors.Join(...) and inside deferred closures).
	a.applyReleases(n, s)
	// Escapes: uses that transfer ownership end tracking. The audit
	// mode keeps tracking through escapes, trading precision for
	// recall: it overwhelms CI with false positives but is the right
	// lens for a manual leak hunt (every site it lists is a path where
	// release depends on some other function doing its job).
	if os.Getenv("ASTERIXLINT_AUDIT_NOESCAPE") == "" {
		a.applyEscapes(n, s)
	}
	// Gen last: the acquisition's own statement tracks its site (and an
	// overwrite of the same variable drops the old site).
	for _, site := range a.byNode[n] {
		for id, other := range a.sites {
			if other.obj == site.obj && id != site.id {
				delete(s, id)
			}
		}
		s[site.id] = site.pos
	}
	// A plain reassignment of a tracked variable ends tracking of the
	// old value (the common `f.Close(); f, err = os.Open(next)` loop
	// shape re-gens a new site instead).
	if as, ok := n.(*ast.AssignStmt); ok && len(a.byNode[n]) == 0 {
		for _, l := range as.Lhs {
			if obj := a.objOf(l); obj != nil {
				if site, tracked := a.byObj[obj]; tracked {
					delete(s, site.id)
				}
			}
		}
	}
	return s
}

func (a *leakAnalysis) applyReleases(n ast.Node, s posSet) {
	ast.Inspect(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if target, isRel := a.releaseTarget(call); isRel {
			if obj := a.objOf(target); obj != nil {
				if site, tracked := a.byObj[obj]; tracked {
					delete(s, site.id)
				}
			}
		}
		return true
	})
}

// applyEscapes kills sites whose variable is used in an
// ownership-transferring position within n. Benign uses — the receiver
// of a method call, a comparison operand, a field read, the variable's
// own reassignment target — do not escape.
func (a *leakAnalysis) applyEscapes(n ast.Node, s posSet) {
	live := func(e ast.Expr) *leakSite {
		obj := a.objOf(e)
		if obj == nil {
			return nil
		}
		site, ok := a.byObj[obj]
		if !ok {
			return nil
		}
		if _, isLive := s[site.id]; !isLive {
			return nil
		}
		return site
	}
	kill := func(e ast.Expr) {
		if site := live(e); site != nil {
			delete(s, site.id)
		}
	}
	var scan func(x ast.Node)
	scanExpr := func(e ast.Expr) { scan(e) }
	scan = func(x ast.Node) {
		switch v := x.(type) {
		case nil:
			return
		case *ast.Ident:
			kill(v) // bare use in an unhandled context: assume escape
		case *ast.ParenExpr:
			scanExpr(v.X)
		case *ast.SelectorExpr:
			if live(v.X) != nil {
				return // field/method read off the resource: benign
			}
			scanExpr(v.X)
		case *ast.BinaryExpr:
			// Comparisons against the handle (v != nil) are benign.
			if live(v.X) == nil {
				scanExpr(v.X)
			}
			if live(v.Y) == nil {
				scanExpr(v.Y)
			}
		case *ast.CallExpr:
			if target, isRel := a.releaseTarget(v); isRel {
				// Already applied as a kill; the resource position and
				// receiver are benign, other arguments scan as usual.
				for _, arg := range v.Args {
					if arg != target {
						scanExpr(arg)
					}
				}
				return
			}
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok && live(sel.X) != nil {
				// Method call on the resource (f.Read, gr.Grow): the
				// receiver is benign; arguments may still escape.
				for _, arg := range v.Args {
					scanExpr(arg)
				}
				return
			}
			scanExpr(v.Fun)
			fn := calleeFunc(a.p.Info, v)
			for i, arg := range v.Args {
				site := live(arg)
				if site == nil {
					scanExpr(arg)
					continue
				}
				// Interprocedural: a live resource handed to an analyzed
				// module callee consults its resolved parameter action. A
				// "none" verdict means the helper neither releases, stores,
				// returns, nor forwards the value — the caller is still the
				// owner, so the fact survives the call. Every other verdict
				// (released, kept, or the callee/param being unknown) ends
				// tracking as before.
				if a.ip != nil && fn != nil && site.spec.Type != "" && !v.Ellipsis.IsValid() {
					if sig, ok := fn.Type().(*types.Signature); ok &&
						!(sig.Variadic() && i >= sig.Params().Len()-1) && i < sig.Params().Len() {
						tkey := site.spec.Pkg + "." + site.spec.Type
						if a.ip.ParamResolved(cfg.FuncID(fn), i, tkey) == ParamNone {
							site.via = fn.Name()
							continue
						}
					}
				}
				delete(s, site.id)
			}
		case *ast.AssignStmt:
			for _, l := range v.Lhs {
				switch lt := ast.Unparen(l).(type) {
				case *ast.Ident:
					// Reassignment target: handled by transfer.
				case *ast.SelectorExpr:
					if live(lt.X) == nil {
						scanExpr(lt.X)
					}
					// o.field = x: writing a field of the resource is
					// benign; x scans below via Rhs.
				default:
					scan(l)
				}
			}
			for _, r := range v.Rhs {
				scanExpr(r)
			}
		case *ast.FuncLit:
			// Closure capture: any tracked variable referenced inside
			// escapes to the closure's lifetime.
			ast.Inspect(v.Body, func(y ast.Node) bool {
				if id, ok := y.(*ast.Ident); ok {
					kill(id)
				}
				return true
			})
		default:
			if x == nil {
				return
			}
			// Generic traversal: walk children through ast.Inspect one
			// level at a time is awkward, so fall back to a full walk
			// that re-dispatches on the interesting node kinds.
			ast.Inspect(x, func(y ast.Node) bool {
				if y == x {
					return true
				}
				switch y.(type) {
				case *ast.Ident, *ast.ParenExpr, *ast.SelectorExpr, *ast.BinaryExpr,
					*ast.CallExpr, *ast.AssignStmt, *ast.FuncLit:
					scan(y)
					return false
				}
				return true
			})
		}
	}
	scan(n)
}

// refine kills facts along branches that prove them dead: the Go
// error contract (`v, err := acquire(); if err != nil` means v is nil on
// the error branch) and explicit nil checks of the resource itself.
func (a *leakAnalysis) refine(blk *cfg.Block, e cfg.Edge, s posSet) posSet {
	if len(blk.Nodes) == 0 || (e.Kind != cfg.True && e.Kind != cfg.False) {
		return s
	}
	cond, ok := blk.Nodes[len(blk.Nodes)-1].(ast.Expr)
	if !ok {
		return s
	}
	// Error-predicate guards: `if os.IsNotExist(err)` (or errors.Is on
	// err) being true implies err != nil, which implies the companion
	// resource is nil on that branch — nothing to release.
	if call, isCall := ast.Unparen(cond).(*ast.CallExpr); isCall && e.Kind == cfg.True {
		if fn := calleeFunc(a.p.Info, call); fn != nil && errPredicateFunc(fn) && len(call.Args) >= 1 {
			if obj := a.objOf(call.Args[0]); obj != nil {
				if sites, isErr := a.errObjs[obj]; isErr {
					for _, site := range sites {
						delete(s, site.id)
					}
				}
			}
		}
		return s
	}
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return s
	}
	var other ast.Expr
	if isNilIdent(bin.Y) {
		other = bin.X
	} else if isNilIdent(bin.X) {
		other = bin.Y
	} else {
		return s
	}
	obj := a.objOf(other)
	if obj == nil {
		return s
	}
	// On which edge is `other` known nil?
	nilOnTrue := bin.Op == token.EQL
	onNilEdge := (nilOnTrue && e.Kind == cfg.True) || (!nilOnTrue && e.Kind == cfg.False)
	if sites, isErr := a.errObjs[obj]; isErr {
		// err non-nil ⇒ resource nil ⇒ nothing to release on that edge.
		errEdge := !onNilEdge
		if errEdge {
			for _, site := range sites {
				delete(s, site.id)
			}
		}
		return s
	}
	if site, tracked := a.byObj[obj]; tracked && onNilEdge {
		delete(s, site.id) // resource proven nil: nothing to release
	}
	return s
}

// errPredicateFunc matches the error predicates whose truth implies a
// non-nil error argument: os.IsNotExist and friends, and errors.Is
// (errors.Is(nil, target) is false for any non-nil target and the nil
// target is never used to gate a cleanup path).
func errPredicateFunc(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "os":
		switch fn.Name() {
		case "IsNotExist", "IsExist", "IsPermission", "IsTimeout":
			return true
		}
	case "errors":
		return fn.Name() == "Is" || fn.Name() == "As"
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// sortSiteIDs orders site ids deterministically (they are position
// strings, so lexical order tracks source order closely enough).
func sortSiteIDs(ids []string) { sort.Strings(ids) }
