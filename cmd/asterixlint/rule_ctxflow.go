package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"

	"asterix/cmd/asterixlint/cfg"
)

// ruleCtxFlow enforces context threading: a function that receives a
// context.Context must pass that context (or one derived from it through
// context.WithCancel/WithTimeout/WithValue/...) into the context-taking
// calls it makes — including those launched in goroutines or wrapped in
// closures. Minting a fresh root with context.Background() or
// context.TODO() inside such a function "launders" the caller's
// deadline and cancellation away: the query-lifecycle tracing and the
// admission-control timeouts both stop propagating at that point.
//
// The derived set is computed flow-sensitively on the CFG, so
// reassigning the parameter (`ctx = context.Background()`) poisons only
// the uses downstream of the assignment, and re-deriving
// (`ctx = context.WithValue(parent, k, v)`) restores it. Function
// literals that declare their own context parameter are independent
// units; literals without one inherit the enclosing function's facts at
// the point the literal appears.
func ruleCtxFlow() *Rule {
	return &Rule{
		Name: "ctx-flow",
		Doc:  "functions with a ctx parameter must thread it (or a derived ctx) into context-taking calls",
		Run:  runCtxFlow,
	}
}

func runCtxFlow(c *Config, p *Package, report func(token.Pos, string)) {
	funcBodies(p, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
		var ft *ast.FuncType
		var name string
		switch {
		case decl != nil:
			ft = decl.Type
			name = decl.Name.Name
		case lit != nil:
			ft = lit.Type
			name = "func literal"
		}
		params := ctxParams(p, ft)
		if len(params) == 0 {
			return
		}
		checkCtxFlow(p, name, params, body, report)
	})
}

// ctxParams returns the objects of ft's context.Context parameters.
func ctxParams(p *Package, ft *ast.FuncType) []types.Object {
	var objs []types.Object
	if ft == nil || ft.Params == nil {
		return nil
	}
	for _, f := range ft.Params.List {
		for _, nm := range f.Names {
			if nm.Name == "_" {
				continue
			}
			if obj := p.Info.Defs[nm]; obj != nil && isContextType(obj.Type()) {
				objs = append(objs, obj)
			}
		}
	}
	return objs
}

func checkCtxFlow(p *Package, fname string, params []types.Object, body *ast.BlockStmt, report func(token.Pos, string)) {
	g := cfg.New(body)

	objID := func(obj types.Object) string { return p.Fset.Position(obj.Pos()).String() }

	entry := posSet{}
	for _, obj := range params {
		entry[objID(obj)] = obj.Pos()
	}

	// derivesFrom reports whether expr mentions any currently-derived
	// variable — `context.WithTimeout(ctx, d)` derives, `context.
	// Background()` does not. Package/function idents are not variables
	// and never match.
	derivesFrom := func(expr ast.Expr, s posSet) bool {
		found := false
		ast.Inspect(expr, func(x ast.Node) bool {
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.Info.Uses[id]
			if obj == nil {
				return true
			}
			if _, ok := obj.(*types.Var); !ok {
				return true
			}
			if _, derived := s[objID(obj)]; derived {
				found = true
			}
			return true
		})
		return found
	}

	transfer := func(n ast.Node, s posSet) posSet {
		applyCtxAssign := func(lhs []ast.Expr, rhs []ast.Expr) {
			for i, l := range lhs {
				id, ok := ast.Unparen(l).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := p.Info.Defs[id]
				if obj == nil {
					obj = p.Info.Uses[id]
				}
				if obj == nil || !isContextType(obj.Type()) {
					continue
				}
				// n:1 assignments (ctx2, cancel := WithTimeout(...))
				// share the single rhs; otherwise pair positionally.
				var r ast.Expr
				if len(rhs) == 1 {
					r = rhs[0]
				} else if i < len(rhs) {
					r = rhs[i]
				}
				if r != nil && derivesFrom(r, s) {
					s[objID(obj)] = obj.Pos()
				} else {
					delete(s, objID(obj))
				}
			}
		}
		ast.Inspect(n, func(x ast.Node) bool {
			switch st := x.(type) {
			case *ast.FuncLit:
				// A literal with its own ctx param is its own unit; one
				// without inherits — but its body runs later, so its
				// assignments do not flow into this function's facts.
				return false
			case *ast.AssignStmt:
				applyCtxAssign(st.Lhs, st.Rhs)
			case *ast.DeclStmt:
				if gd, ok := st.Decl.(*ast.GenDecl); ok {
					for _, spec := range gd.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
							lhs := make([]ast.Expr, len(vs.Names))
							for i, nm := range vs.Names {
								lhs[i] = nm
							}
							applyCtxAssign(lhs, vs.Values)
						}
					}
				}
			}
			return true
		})
		return s
	}

	lat := cfg.Lattice[posSet]{
		Clone: maps.Clone[posSet],
		Meet:  meetPosSet,
		Equal: maps.Equal[posSet, posSet],
		Node:  transfer,
	}
	in := cfg.Forward(g, entry, lat)

	reported := map[token.Pos]bool{}
	once := func(pos token.Pos, msg string) {
		if !reported[pos] {
			reported[pos] = true
			report(pos, msg)
		}
	}

	// scanUses walks one node's expressions with the derived state
	// `before`, entering literals without their own ctx param.
	var scanUses func(n ast.Node, before posSet)
	scanUses = func(n ast.Node, before posSet) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch v := x.(type) {
			case *ast.FuncLit:
				if len(ctxParams(p, v.Type)) > 0 {
					return false // its own analysis unit
				}
				return true // inherits the enclosing facts
			case *ast.CallExpr:
				if name, ok := ctxRootCall(p.Info, v); ok {
					once(v.Pos(), fmt.Sprintf("%s receives a ctx parameter but mints a fresh root with context.%s; thread the caller's ctx (or derive via context.With*)", fname, name))
					return true
				}
				// A call whose ctx-typed argument is a known-underived
				// local launders cancellation just as surely.
				for _, arg := range v.Args {
					id, ok := ast.Unparen(arg).(*ast.Ident)
					if !ok {
						continue
					}
					obj := p.Info.Uses[id]
					if obj == nil {
						continue
					}
					if _, isVar := obj.(*types.Var); !isVar || !isContextType(obj.Type()) {
						continue
					}
					if obj.Parent() != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
						continue // package-level context var: out of scope here
					}
					if _, derived := before[objID(obj)]; !derived {
						once(arg.Pos(), fmt.Sprintf("%s passes context %q which is not derived from its ctx parameter; cancellation will not propagate", fname, id.Name))
					}
				}
			}
			return true
		})
	}

	cfg.Visit(g, in, lat, func(blk *cfg.Block, n ast.Node, before posSet) {
		// Evaluate uses against the state before the node, but let the
		// node's own assignments apply first for compound statements
		// like `ctx := context.Background(); use(ctx)` split across
		// nodes — the CFG gives one statement per node, so `before` is
		// exact for everything inside n except n's own lhs, and an
		// expression never uses its own assignment's result.
		scanUses(n, before)
	}, nil)
}

// ctxRootCall matches context.Background() / context.TODO().
func ctxRootCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name(), true
	}
	return "", false
}
