package algebricks

import (
	"fmt"

	"asterix/internal/sqlpp"
)

// AggRef is one SQL-style aggregate occurrence extracted from a grouped
// query's SELECT/HAVING/ORDER expressions and replaced by a variable
// reference; the group-by operator computes it.
type AggRef struct {
	Var      string
	Fn       string // a name in sqlpp.Aggregates
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
		if !ok || !sqlpp.IsAggregate(x.Fn) {
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

// groupBlock, for the translator and the interpreter alike, rewrites a
// SELECT block's output expressions — its projection proj, its HAVING and
// its ORDER BY — for grouping, and returns them with the aggregates it
// extracted. SELECT aliases are inlined into ORDER BY, and the aggregates of
// proj and HAVING become variables. The block groups if it has a GROUP BY
// or that finds one; then the aggregates of ORDER BY become variables too —
// numbered once across the three, so that the ones the grouping binds line
// up — and each group key becomes its variable, in nested scopes too. The
// aliases are rewritten so before they are inlined, since a nested block of
// ORDER BY, whose aggregates are its own, reads them as they are.
func groupBlock(sel *sqlpp.SelectExpr, proj sqlpp.Expr) (sqlpp.Expr, sqlpp.Expr, []sqlpp.Expr, []AggRef) {
	var aliases map[*sqlpp.Binding]sqlpp.Expr
	if len(sel.OrderBy) > 0 { // only ORDER BY reads an alias
		aliases = map[*sqlpp.Binding]sqlpp.Expr{}
		decls := declared(sel, sqlpp.BindAlias)
		for _, item := range sel.Select.Items {
			if item.Alias != "" { // the binder declared one alias per such item, in order
				aliases[decls[0]], decls = item.Expr, decls[1:]
			}
		}
	}
	var aggs []AggRef
	gen, having := 0, sel.Having
	if proj = ExtractAggregates(proj, &gen, &aggs); having != nil {
		having = ExtractAggregates(having, &gen, &aggs)
	}
	order := make([]sqlpp.Expr, len(sel.OrderBy))
	if len(sel.GroupBy) == 0 && len(aggs) == 0 {
		for i, oi := range sel.OrderBy {
			order[i] = SubstituteVars(oi.Expr, aliases)
		}
		return proj, having, order, nil
	}
	repl := map[string]sqlpp.Expr{}
	for i, d := range declared(sel, sqlpp.BindGroupKey) {
		repl[ExprKey(sel.GroupBy[i].Expr)] = &sqlpp.VarRef{Name: d.Name, Binding: d}
	}
	if proj = SubstituteByKey(proj, repl); having != nil {
		having = SubstituteByKey(having, repl)
	}
	for d, e := range aliases {
		aliases[d] = SubstituteByKey(ExtractAggregates(e, &gen, &aggs), repl)
	}
	for i, oi := range sel.OrderBy {
		order[i] = SubstituteByKey(ExtractAggregates(SubstituteVars(oi.Expr, aliases), &gen, &aggs), repl)
	}
	return proj, having, order, aggs
}

// FreeVars adds to out each name e reads that it does not bind itself,
// mapped to true for a variable and false for a dataset: a nested block
// reads its correlation list, a quantifier's body all but its variable.
func FreeVars(e sqlpp.Expr, out map[string]bool) {
	switch x := e.(type) {
	case *sqlpp.VarRef:
		out[x.Name] = out[x.Name] || x.Binding == nil || x.Binding.Kind != sqlpp.BindDataset
	case *sqlpp.SelectExpr:
		for _, bd := range x.Correlation {
			out[bd.Name] = out[bd.Name] || bd.Kind != sqlpp.BindDataset
		}
	case *sqlpp.QuantifiedExpr:
		inner := map[string]bool{}
		FreeVars(x.Satisfies, inner)
		delete(inner, x.Var)
		for k, v := range inner {
			out[k] = out[k] || v
		}
	case *sqlpp.ExistsExpr:
		FreeVars(x.X, out)
	case *sqlpp.UnionExpr:
		for _, b := range x.Blocks {
			FreeVars(b, out)
		}
	}
	var buf [4]sqlpp.Expr
	for _, c := range sqlpp.Children(e, buf[:0]) {
		FreeVars(c, out)
	}
}
