package main

import (
	"go/ast"
	"go/token"
)

// funcBodies visits every function body in the package — declarations
// and function literals — each of which is one unit of intraprocedural
// flow analysis. Literals are visited after their enclosing function,
// outermost first.
func funcBodies(p *Package, visit func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					visit(fn, nil, fn.Body)
				}
			case *ast.FuncLit:
				visit(nil, fn, fn.Body)
			}
			return true
		})
	}
}

// posSet is ctx-flow's lattice state: fact id → position that generated
// it (the witness for diagnostics). Meet is set union — a fact holds at a
// merge if it holds on any incoming path — which makes it a
// may-analysis: a report means "there exists a path".
type posSet map[string]token.Pos

func meetPosSet(dst, src posSet) posSet {
	for k, v := range src {
		if cur, ok := dst[k]; !ok || v < cur {
			dst[k] = v // keep the earliest witness for determinism
		}
	}
	return dst
}
