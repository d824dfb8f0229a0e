package algebricks

import (
	"fmt"
	"maps"
	"sort"

	"asterix/internal/adm"
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
// up — and each group key becomes its variable. The aliases are rewritten
// so before they are inlined, since a nested block of ORDER BY, which the
// rewrites do not enter, reads them as they are.
func groupBlock(sel *sqlpp.SelectExpr, proj sqlpp.Expr) (sqlpp.Expr, sqlpp.Expr, []sqlpp.Expr, []AggRef) {
	aliases := map[string]sqlpp.Expr{}
	for _, item := range sel.Select.Items {
		if item.Alias != "" {
			aliases[item.Alias] = item.Expr
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
	repl := groupKeyRewrites(sel)
	if proj = SubstituteByKey(proj, repl); having != nil {
		having = SubstituteByKey(having, repl)
	}
	for name, e := range aliases {
		aliases[name] = SubstituteByKey(ExtractAggregates(e, &gen, &aggs), repl)
	}
	for i, oi := range sel.OrderBy {
		order[i] = SubstituteByKey(ExtractAggregates(SubstituteVars(oi.Expr, aliases), &gen, &aggs), repl)
	}
	return proj, having, order, aggs
}

// SubstituteVars rewrites VarRefs per the mapping (used to inline SELECT
// aliases into ORDER BY and to rewrite quantifier rewrites). A nested
// block that reads mapped names it does not bind itself gets them as WITH
// bindings, which it evaluates before its own clauses: the first, $outer,
// holds every mapped expression, evaluated in the enclosing scope, and
// each name then reads its field.
func SubstituteVars(e sqlpp.Expr, mapping map[string]sqlpp.Expr) sqlpp.Expr {
	switch x := e.(type) {
	case *sqlpp.SelectExpr:
		free := map[string]bool{}
		freeVarsOfBlock(x, free)
		var names []string
		for name := range free {
			if _, ok := mapping[name]; ok {
				names = append(names, name)
			}
		}
		if len(names) == 0 {
			return x
		}
		sort.Strings(names)
		outer, b := &sqlpp.ObjectConstructor{}, *x
		b.With = []sqlpp.LetClause{{Var: "$outer", Expr: outer}}
		for _, name := range names {
			outer.Fields = append(outer.Fields, sqlpp.ObjectField{Name: &sqlpp.Literal{Value: adm.String(name)}, Value: mapping[name]})
			b.With = append(b.With, sqlpp.LetClause{Var: name, Expr: &sqlpp.FieldAccess{Base: &sqlpp.VarRef{Name: "$outer"}, Field: name}})
		}
		b.With = append(b.With, x.With...)
		return &b
	case *sqlpp.UnionExpr:
		u := &sqlpp.UnionExpr{Blocks: make([]sqlpp.Expr, len(x.Blocks))}
		for i, b := range x.Blocks {
			u.Blocks[i] = SubstituteVars(b, mapping)
		}
		return u
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
		// Evaluated in the enclosing scope, after the earlier WITHs only.
		with := map[string]bool{}
		FreeVars(w.Expr, with)
		maps.DeleteFunc(with, func(k string, _ bool) bool { return bound[k] })
		maps.Copy(out, with)
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
