package algebricks

import (
	"fmt"
	"maps"

	"asterix/internal/sqlpp"
)

// AggRef is one SQL-style aggregate occurrence extracted from a grouped
// query's SELECT/HAVING/ORDER expressions and replaced by a variable
// reference; the group-by operator computes it.
type AggRef struct {
	Var      string
	Fn       string // count, sum, min, max, avg, array_agg
	Arg      sqlpp.Expr
	Star     bool // COUNT(*)
	Distinct bool
}

// ExtractAggregates rewrites aggregate calls in e into variables,
// appending their definitions to aggs. A call that repeats one already in
// aggs (COUNT(*) selected and ordered by) reuses its variable, so the
// group-by computes each distinct aggregate once. What sqlpp's scope rule
// makes opaque — nested blocks, EXISTS, quantifier bodies — is left
// untouched: its aggregates belong to it.
func ExtractAggregates(e sqlpp.Expr, gen *int, aggs *[]AggRef) sqlpp.Expr {
	var rw func(sqlpp.Expr) sqlpp.Expr
	rw = func(e sqlpp.Expr) sqlpp.Expr {
		x, ok := e.(*sqlpp.Call)
		if !ok || !IsAggregateFn(x.Fn) {
			return sqlpp.Rewrite(e, rw)
		}
		ref := AggRef{Fn: x.Fn, Distinct: x.Distinct}
		if len(x.Args) == 0 {
			ref.Star = true
		} else {
			ref.Arg = x.Args[0]
		}
		for _, a := range *aggs {
			if a.Fn == ref.Fn && a.Distinct == ref.Distinct && a.Star == ref.Star &&
				(ref.Star || ExprKey(a.Arg) == ExprKey(ref.Arg)) {
				return &sqlpp.VarRef{Name: a.Var}
			}
		}
		*gen++
		ref.Var = fmt.Sprintf("$agg%d", *gen)
		*aggs = append(*aggs, ref)
		return &sqlpp.VarRef{Name: ref.Var}
	}
	return rw(e)
}

// HasAggregates reports whether the expression contains a SQL aggregate
// call at this block's level.
func HasAggregates(e sqlpp.Expr) bool {
	var aggs []AggRef
	gen := 0
	ExtractAggregates(e, &gen, &aggs)
	return len(aggs) > 0
}

// SubstituteVars rewrites VarRefs per the mapping (used to inline SELECT
// aliases into ORDER BY and to rewrite quantifier rewrites).
func SubstituteVars(e sqlpp.Expr, mapping map[string]sqlpp.Expr) sqlpp.Expr {
	switch x := e.(type) {
	case *sqlpp.VarRef:
		if r, ok := mapping[x.Name]; ok {
			return r
		}
	case *sqlpp.QuantifiedExpr:
		// The body binds Var, which shadows the mapping's entry of that name.
		inner := make(map[string]sqlpp.Expr, len(mapping))
		for k, v := range mapping {
			if k != x.Var {
				inner[k] = v
			}
		}
		q := *x
		q.In, q.Satisfies = SubstituteVars(x.In, mapping), SubstituteVars(x.Satisfies, inner)
		return &q
	case *sqlpp.ExistsExpr:
		// EXISTS binds nothing: its operand reads the enclosing scope.
		return &sqlpp.ExistsExpr{X: SubstituteVars(x.X, mapping), Negate: x.Negate}
	}
	return sqlpp.Rewrite(e, func(c sqlpp.Expr) sqlpp.Expr { return SubstituteVars(c, mapping) })
}

// FreeVars collects variable names referenced by e that are not bound
// within it (nested scopes subtracted approximately: quantifier vars and
// nested SELECT aliases are treated as bound).
func FreeVars(e sqlpp.Expr, out map[string]bool) {
	switch x := e.(type) {
	case *sqlpp.VarRef:
		out[x.Name] = true
	case *sqlpp.QuantifiedExpr:
		inner := map[string]bool{}
		FreeVars(x.Satisfies, inner)
		delete(inner, x.Var)
		maps.Copy(out, inner)
	case *sqlpp.ExistsExpr:
		FreeVars(x.X, out)
	case *sqlpp.UnionExpr:
		for _, b := range x.Blocks {
			FreeVars(b, out)
		}
	case *sqlpp.SelectExpr:
		freeVarsOfBlock(x, out)
	}
	var buf [4]sqlpp.Expr
	for _, c := range sqlpp.Children(e, buf[:0]) {
		FreeVars(c, out)
	}
}

// freeVarsOfBlock adds to out what a SELECT block reads of the enclosing
// scope: every name its clauses read, minus the names the block binds.
func freeVarsOfBlock(x *sqlpp.SelectExpr, out map[string]bool) {
	inner := map[string]bool{}
	bound := map[string]bool{}
	for _, w := range x.With {
		FreeVars(w.Expr, inner)
		bound[w.Var] = true
	}
	for _, ft := range x.From {
		FreeVars(ft.Expr, inner)
		bound[ft.Alias] = true
		for _, l := range ft.Links {
			FreeVars(l.Expr, inner)
			bound[l.Alias] = true
			FreeVars(l.On, inner)
		}
	}
	for _, lc := range x.Lets {
		FreeVars(lc.Expr, inner)
		bound[lc.Var] = true
	}
	FreeVars(x.Where, inner)
	for _, gk := range x.GroupBy {
		FreeVars(gk.Expr, inner)
		bound[gk.Alias] = true
	}
	if x.GroupAs != "" {
		bound[x.GroupAs] = true
	}
	FreeVars(x.Having, inner)
	FreeVars(x.Select.Value, inner)
	for _, it := range x.Select.Items {
		FreeVars(it.Expr, inner)
	}
	for _, oi := range x.OrderBy {
		FreeVars(oi.Expr, inner)
	}
	FreeVars(x.Limit, inner)
	FreeVars(x.Offset, inner)
	for k := range inner {
		if !bound[k] {
			out[k] = true
		}
	}
}
