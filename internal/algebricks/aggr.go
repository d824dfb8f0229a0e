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
	Fn       string // count, sum, min, max, avg, array_agg
	Arg      sqlpp.Expr
	Star     bool // COUNT(*)
	Distinct bool
}

// ExtractAggregates rewrites aggregate calls in e into variables,
// appending their definitions to aggs. A call that repeats one already in
// aggs (COUNT(*) selected and ordered by) reuses its variable, so the
// group-by computes each distinct aggregate once. Nested SELECT blocks are
// left untouched (their aggregates belong to them).
func ExtractAggregates(e sqlpp.Expr, gen *int, aggs *[]AggRef) sqlpp.Expr {
	switch x := e.(type) {
	case *sqlpp.Call:
		if IsAggregateFn(x.Fn) {
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
		out := &sqlpp.Call{Fn: x.Fn, Distinct: x.Distinct}
		for _, a := range x.Args {
			out.Args = append(out.Args, ExtractAggregates(a, gen, aggs))
		}
		return out
	case *sqlpp.FieldAccess:
		return &sqlpp.FieldAccess{Base: ExtractAggregates(x.Base, gen, aggs), Field: x.Field}
	case *sqlpp.IndexAccess:
		return &sqlpp.IndexAccess{
			Base:  ExtractAggregates(x.Base, gen, aggs),
			Index: ExtractAggregates(x.Index, gen, aggs),
		}
	case *sqlpp.Unary:
		return &sqlpp.Unary{Op: x.Op, X: ExtractAggregates(x.X, gen, aggs)}
	case *sqlpp.Binary:
		return &sqlpp.Binary{Op: x.Op,
			L: ExtractAggregates(x.L, gen, aggs),
			R: ExtractAggregates(x.R, gen, aggs)}
	case *sqlpp.IsExpr:
		return &sqlpp.IsExpr{X: ExtractAggregates(x.X, gen, aggs), What: x.What, Negate: x.Negate}
	case *sqlpp.Between:
		return &sqlpp.Between{
			X:      ExtractAggregates(x.X, gen, aggs),
			Lo:     ExtractAggregates(x.Lo, gen, aggs),
			Hi:     ExtractAggregates(x.Hi, gen, aggs),
			Negate: x.Negate,
		}
	case *sqlpp.InExpr:
		return &sqlpp.InExpr{
			X:      ExtractAggregates(x.X, gen, aggs),
			Coll:   ExtractAggregates(x.Coll, gen, aggs),
			Negate: x.Negate,
		}
	case *sqlpp.CaseExpr:
		out := &sqlpp.CaseExpr{}
		if x.Operand != nil {
			out.Operand = ExtractAggregates(x.Operand, gen, aggs)
		}
		for _, wt := range x.Whens {
			out.Whens = append(out.Whens, sqlpp.WhenThen{
				When: ExtractAggregates(wt.When, gen, aggs),
				Then: ExtractAggregates(wt.Then, gen, aggs),
			})
		}
		if x.Else != nil {
			out.Else = ExtractAggregates(x.Else, gen, aggs)
		}
		return out
	case *sqlpp.ObjectConstructor:
		out := &sqlpp.ObjectConstructor{}
		for _, f := range x.Fields {
			out.Fields = append(out.Fields, sqlpp.ObjectField{
				Name:  ExtractAggregates(f.Name, gen, aggs),
				Value: ExtractAggregates(f.Value, gen, aggs),
			})
		}
		return out
	case *sqlpp.ArrayConstructor:
		out := &sqlpp.ArrayConstructor{}
		for _, el := range x.Elems {
			out.Elems = append(out.Elems, ExtractAggregates(el, gen, aggs))
		}
		return out
	case *sqlpp.MultisetConstructor:
		out := &sqlpp.MultisetConstructor{}
		for _, el := range x.Elems {
			out.Elems = append(out.Elems, ExtractAggregates(el, gen, aggs))
		}
		return out
	case *sqlpp.QuantifiedExpr:
		return &sqlpp.QuantifiedExpr{
			Some: x.Some, Var: x.Var,
			In:        ExtractAggregates(x.In, gen, aggs),
			Satisfies: x.Satisfies, // quantifier body has its own scope
		}
	default:
		return e
	}
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
		return x
	case *sqlpp.FieldAccess:
		return &sqlpp.FieldAccess{Base: SubstituteVars(x.Base, mapping), Field: x.Field}
	case *sqlpp.IndexAccess:
		return &sqlpp.IndexAccess{Base: SubstituteVars(x.Base, mapping), Index: SubstituteVars(x.Index, mapping)}
	case *sqlpp.Call:
		out := &sqlpp.Call{Fn: x.Fn, Distinct: x.Distinct}
		for _, a := range x.Args {
			out.Args = append(out.Args, SubstituteVars(a, mapping))
		}
		return out
	case *sqlpp.Unary:
		return &sqlpp.Unary{Op: x.Op, X: SubstituteVars(x.X, mapping)}
	case *sqlpp.Binary:
		return &sqlpp.Binary{Op: x.Op, L: SubstituteVars(x.L, mapping), R: SubstituteVars(x.R, mapping)}
	case *sqlpp.IsExpr:
		return &sqlpp.IsExpr{X: SubstituteVars(x.X, mapping), What: x.What, Negate: x.Negate}
	case *sqlpp.Between:
		return &sqlpp.Between{X: SubstituteVars(x.X, mapping), Lo: SubstituteVars(x.Lo, mapping), Hi: SubstituteVars(x.Hi, mapping), Negate: x.Negate}
	case *sqlpp.InExpr:
		return &sqlpp.InExpr{X: SubstituteVars(x.X, mapping), Coll: SubstituteVars(x.Coll, mapping), Negate: x.Negate}
	case *sqlpp.CaseExpr:
		out := &sqlpp.CaseExpr{}
		if x.Operand != nil {
			out.Operand = SubstituteVars(x.Operand, mapping)
		}
		for _, wt := range x.Whens {
			out.Whens = append(out.Whens, sqlpp.WhenThen{
				When: SubstituteVars(wt.When, mapping),
				Then: SubstituteVars(wt.Then, mapping),
			})
		}
		if x.Else != nil {
			out.Else = SubstituteVars(x.Else, mapping)
		}
		return out
	case *sqlpp.ObjectConstructor:
		out := &sqlpp.ObjectConstructor{}
		for _, f := range x.Fields {
			out.Fields = append(out.Fields, sqlpp.ObjectField{
				Name:  SubstituteVars(f.Name, mapping),
				Value: SubstituteVars(f.Value, mapping),
			})
		}
		return out
	case *sqlpp.ArrayConstructor:
		out := &sqlpp.ArrayConstructor{}
		for _, el := range x.Elems {
			out.Elems = append(out.Elems, SubstituteVars(el, mapping))
		}
		return out
	case *sqlpp.MultisetConstructor:
		out := &sqlpp.MultisetConstructor{}
		for _, el := range x.Elems {
			out.Elems = append(out.Elems, SubstituteVars(el, mapping))
		}
		return out
	case *sqlpp.QuantifiedExpr:
		inner := make(map[string]sqlpp.Expr, len(mapping))
		for k, v := range mapping {
			if k != x.Var {
				inner[k] = v
			}
		}
		return &sqlpp.QuantifiedExpr{Some: x.Some, Var: x.Var,
			In: SubstituteVars(x.In, mapping), Satisfies: SubstituteVars(x.Satisfies, inner)}
	case *sqlpp.ExistsExpr:
		return &sqlpp.ExistsExpr{X: SubstituteVars(x.X, mapping), Negate: x.Negate}
	default:
		return e
	}
}

// FreeVars collects variable names referenced by e that are not bound
// within it (nested scopes subtracted approximately: quantifier vars and
// nested SELECT aliases are treated as bound).
func FreeVars(e sqlpp.Expr, out map[string]bool) {
	switch x := e.(type) {
	case *sqlpp.VarRef:
		out[x.Name] = true
	case *sqlpp.FieldAccess:
		FreeVars(x.Base, out)
	case *sqlpp.IndexAccess:
		FreeVars(x.Base, out)
		FreeVars(x.Index, out)
	case *sqlpp.Call:
		for _, a := range x.Args {
			FreeVars(a, out)
		}
	case *sqlpp.Unary:
		FreeVars(x.X, out)
	case *sqlpp.Binary:
		FreeVars(x.L, out)
		FreeVars(x.R, out)
	case *sqlpp.IsExpr:
		FreeVars(x.X, out)
	case *sqlpp.Between:
		FreeVars(x.X, out)
		FreeVars(x.Lo, out)
		FreeVars(x.Hi, out)
	case *sqlpp.InExpr:
		FreeVars(x.X, out)
		FreeVars(x.Coll, out)
	case *sqlpp.CaseExpr:
		if x.Operand != nil {
			FreeVars(x.Operand, out)
		}
		for _, wt := range x.Whens {
			FreeVars(wt.When, out)
			FreeVars(wt.Then, out)
		}
		if x.Else != nil {
			FreeVars(x.Else, out)
		}
	case *sqlpp.ObjectConstructor:
		for _, f := range x.Fields {
			FreeVars(f.Name, out)
			FreeVars(f.Value, out)
		}
	case *sqlpp.ArrayConstructor:
		for _, el := range x.Elems {
			FreeVars(el, out)
		}
	case *sqlpp.MultisetConstructor:
		for _, el := range x.Elems {
			FreeVars(el, out)
		}
	case *sqlpp.QuantifiedExpr:
		FreeVars(x.In, out)
		inner := map[string]bool{}
		FreeVars(x.Satisfies, inner)
		delete(inner, x.Var)
		for k := range inner {
			out[k] = true
		}
	case *sqlpp.ExistsExpr:
		FreeVars(x.X, out)
	case *sqlpp.SelectExpr:
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
				if l.On != nil {
					FreeVars(l.On, inner)
				}
			}
		}
		for _, lc := range x.Lets {
			FreeVars(lc.Expr, inner)
			bound[lc.Var] = true
		}
		if x.Where != nil {
			FreeVars(x.Where, inner)
		}
		for _, gk := range x.GroupBy {
			FreeVars(gk.Expr, inner)
			bound[gk.Alias] = true
		}
		if x.GroupAs != "" {
			bound[x.GroupAs] = true
		}
		if x.Having != nil {
			FreeVars(x.Having, inner)
		}
		if x.Select.Value != nil {
			FreeVars(x.Select.Value, inner)
		}
		for _, it := range x.Select.Items {
			FreeVars(it.Expr, inner)
		}
		for _, oi := range x.OrderBy {
			FreeVars(oi.Expr, inner)
		}
		if x.Limit != nil {
			FreeVars(x.Limit, inner)
		}
		if x.Offset != nil {
			FreeVars(x.Offset, inner)
		}
		for k := range inner {
			if !bound[k] {
				out[k] = true
			}
		}
	}
}
