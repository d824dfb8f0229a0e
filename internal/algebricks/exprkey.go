package algebricks

import "asterix/internal/sqlpp"

// SubstituteByKey replaces each subexpression whose key is in repl by the
// mapped expression (outermost match wins), in every scope of e; used to
// rewrite group-key expressions to their key variables after grouping, and
// expressions of a DISTINCT block's items to the result's fields.
func SubstituteByKey(e sqlpp.Expr, repl map[string]sqlpp.Expr) sqlpp.Expr {
	return substitute(e, len(repl), func(x sqlpp.Expr) (sqlpp.Expr, bool) {
		r, ok := repl[ExprKey(x)]
		return r, ok
	})
}

// SubstituteVars replaces each name bound to a key of m by the mapped
// expression, in every scope of e: a SELECT alias by its item's expression,
// a WITH variable by its value.
func SubstituteVars(e sqlpp.Expr, m map[*sqlpp.Binding]sqlpp.Expr) sqlpp.Expr {
	return substitute(e, len(m), func(x sqlpp.Expr) (sqlpp.Expr, bool) {
		v, ok := x.(*sqlpp.VarRef)
		if !ok || v.Binding == nil {
			return nil, false
		}
		r, ok := m[v.Binding]
		return r, ok
	})
}

// substitute replaces each subexpression that match maps, entering every
// scope: the binder's unique names keep an inner declaration from capturing
// what is moved in. A block it changes gets its correlation recomputed.
func substitute(e sqlpp.Expr, n int, match func(sqlpp.Expr) (sqlpp.Expr, bool)) sqlpp.Expr {
	if n == 0 {
		return e
	}
	if r, ok := match(e); ok {
		return r
	}
	out := sqlpp.RewriteScopes(e, func(c sqlpp.Expr) sqlpp.Expr { return substitute(c, n, match) })
	if b, ok := out.(*sqlpp.SelectExpr); ok && out != e {
		b.Correlation = correlation(b)
	}
	return out
}
