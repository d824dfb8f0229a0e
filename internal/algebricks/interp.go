package algebricks

import (
	"sort"

	"asterix/internal/adm"
	"asterix/internal/sqlpp"
)

// interpRow is one binding tuple during serial interpretation.
type interpRow struct {
	env  *Env
	vars []string // row variables in binding order (for GROUP AS / *)
}

// interpretSelect executes a nested SELECT block serially against outer
// bindings (the subplan path; top-level queries go through job
// generation).
func (ev *Evaluator) interpretSelect(sel *sqlpp.SelectExpr, outer *Env) ([]adm.Value, error) {
	base := NewEnv(outer, nil, nil)
	for _, w := range sel.With {
		v, err := ev.Eval(w.Expr, base)
		if err != nil {
			return nil, err
		}
		base.Bind(w.Var, v)
	}

	rows := []interpRow{{env: NewEnv(base, nil, nil)}}

	bindCollection := func(in []interpRow, expr sqlpp.Expr, alias string) ([]interpRow, error) {
		var out []interpRow
		for _, row := range in {
			coll, err := ev.Eval(expr, row.env)
			if err != nil {
				return nil, err
			}
			elems, ok := asCollection(coll)
			if !ok {
				continue // non-collection sources bind nothing
			}
			for _, el := range elems {
				env := NewEnv(row.env, []string{alias}, []adm.Value{el})
				out = append(out, interpRow{env: env, vars: append(append([]string(nil), row.vars...), alias)})
			}
		}
		return out, nil
	}

	for _, ft := range sel.From {
		var err error
		rows, err = bindCollection(rows, ft.Expr, ft.Alias)
		if err != nil {
			return nil, err
		}
		for _, link := range ft.Links {
			if !link.IsJoin {
				// UNNEST.
				rows, err = bindCollection(rows, link.Expr, link.Alias)
				if err != nil {
					return nil, err
				}
				continue
			}
			var joined []interpRow
			for _, row := range rows {
				coll, err := ev.Eval(link.Expr, row.env)
				if err != nil {
					return nil, err
				}
				elems, _ := asCollection(coll)
				matched := false
				for _, el := range elems {
					env := NewEnv(row.env, []string{link.Alias}, []adm.Value{el})
					ok, err := ev.truthyExpr(link.On, env)
					if err != nil {
						return nil, err
					}
					if ok {
						matched = true
						joined = append(joined, interpRow{env: env, vars: append(append([]string(nil), row.vars...), link.Alias)})
					}
				}
				if !matched && link.Kind == sqlpp.JoinLeftOuter {
					env := NewEnv(row.env, []string{link.Alias}, []adm.Value{adm.Missing})
					joined = append(joined, interpRow{env: env, vars: append(append([]string(nil), row.vars...), link.Alias)})
				}
			}
			rows = joined
		}
	}

	for _, lc := range sel.Lets {
		for i := range rows {
			v, err := ev.Eval(lc.Expr, rows[i].env)
			if err != nil {
				return nil, err
			}
			rows[i].env.Bind(lc.Var, v)
			rows[i].vars = append(rows[i].vars, lc.Var)
		}
	}

	if sel.Where != nil {
		var kept []interpRow
		for _, row := range rows {
			ok, err := ev.truthyExpr(sel.Where, row.env)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, row)
			}
		}
		rows = kept
	}

	// Grouping (explicit GROUP BY, or implicit global aggregation).
	// Aggregate extraction uses one shared counter across SELECT, HAVING,
	// and ORDER BY so the $agg variables bound by grouping line up with
	// the rewritten expressions used below.
	implicitAgg := len(sel.GroupBy) == 0 && ev.selectHasAggregates(sel)
	grouping := len(sel.GroupBy) > 0 || implicitAgg

	aliasMap := map[string]sqlpp.Expr{}
	for _, item := range sel.Select.Items {
		if item.Alias != "" {
			aliasMap[item.Alias] = item.Expr
		}
	}
	projExpr := ev.projectionExpr(sel)
	havingExpr := sel.Having
	orderExprs := make([]sqlpp.Expr, len(sel.OrderBy))
	for i, oi := range sel.OrderBy {
		orderExprs[i] = SubstituteVars(oi.Expr, aliasMap)
	}
	if grouping {
		gen := 0
		var aggs []AggRef
		repl := groupKeyRewrites(sel)
		projExpr = SubstituteByKey(ExtractAggregates(projExpr, &gen, &aggs), repl)
		if havingExpr != nil {
			havingExpr = SubstituteByKey(ExtractAggregates(havingExpr, &gen, &aggs), repl)
		}
		for i := range orderExprs {
			orderExprs[i] = SubstituteByKey(ExtractAggregates(orderExprs[i], &gen, &aggs), repl)
		}
		grouped, err := ev.interpretGroup(sel, aggs, rows, base)
		if err != nil {
			return nil, err
		}
		rows = grouped
	}

	if havingExpr != nil {
		var kept []interpRow
		for _, row := range rows {
			ok, err := ev.truthyExpr(havingExpr, row.env)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, row)
			}
		}
		rows = kept
	}

	type outRow struct {
		keys  []adm.Value
		value adm.Value
	}
	isStar := false
	if c, ok := projExpr.(*sqlpp.Call); ok && c.Fn == "$star" {
		isStar = true
	}
	var outs []outRow
	for _, row := range rows {
		var v adm.Value
		var err error
		if isStar {
			o := adm.NewObject()
			for _, name := range row.vars {
				if val, ok := row.env.Lookup(name); ok && val.Kind() != adm.KindMissing {
					o.Set(name, val)
				}
			}
			v = o
		} else {
			v, err = ev.Eval(projExpr, row.env)
			if err != nil {
				return nil, err
			}
		}
		var keys []adm.Value
		for _, oe := range orderExprs {
			kv, err := ev.Eval(oe, row.env)
			if err != nil {
				return nil, err
			}
			keys = append(keys, kv)
		}
		outs = append(outs, outRow{keys: keys, value: v})
	}

	if len(sel.OrderBy) > 0 {
		sort.SliceStable(outs, func(i, j int) bool {
			for k, oi := range sel.OrderBy {
				c := adm.Compare(outs[i].keys[k], outs[j].keys[k])
				if oi.Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
	}

	var result []adm.Value
	for _, o := range outs {
		result = append(result, o.value)
	}
	if sel.Select.Distinct {
		result = dedupe(result)
	}
	// OFFSET/LIMIT.
	if sel.Offset != nil {
		v, err := ev.Eval(sel.Offset, base)
		if err != nil {
			return nil, err
		}
		if n, ok := adm.AsInt(v); ok && n > 0 {
			if int(n) >= len(result) {
				result = nil
			} else {
				result = result[n:]
			}
		}
	}
	if sel.Limit != nil {
		v, err := ev.Eval(sel.Limit, base)
		if err != nil {
			return nil, err
		}
		if n, ok := adm.AsInt(v); ok && n >= 0 && int(n) < len(result) {
			result = result[:n]
		}
	}
	return result, nil
}

// selectHasAggregates reports whether the block's SELECT/HAVING/ORDER
// expressions contain SQL aggregates (triggering implicit grouping).
func (ev *Evaluator) selectHasAggregates(sel *sqlpp.SelectExpr) bool {
	if sel.Select.Value != nil && HasAggregates(sel.Select.Value) {
		return true
	}
	for _, it := range sel.Select.Items {
		if HasAggregates(it.Expr) {
			return true
		}
	}
	if sel.Having != nil && HasAggregates(sel.Having) {
		return true
	}
	return false
}

// projectionExpr builds the single output expression of the block.
func (ev *Evaluator) projectionExpr(sel *sqlpp.SelectExpr) sqlpp.Expr {
	if sel.Select.Value != nil {
		return sel.Select.Value
	}
	if sel.Select.Star {
		// {* } expands to an object of all from-term/let variables; the
		// interpreter and jobgen provide $star support via a marker call.
		return &sqlpp.Call{Fn: "$star"}
	}
	obj := &sqlpp.ObjectConstructor{}
	for _, it := range sel.Select.Items {
		obj.Fields = append(obj.Fields, sqlpp.ObjectField{
			Name:  &sqlpp.Literal{Value: adm.String(it.Alias)},
			Value: it.Expr,
		})
	}
	return obj
}

// interpretGroup groups rows and produces one row per group with: group
// keys, GROUP AS binding, and the variables of aggs, the aggregates
// extracted from the block's SELECT, HAVING and ORDER BY.
func (ev *Evaluator) interpretGroup(sel *sqlpp.SelectExpr, aggs []AggRef, rows []interpRow, base *Env) ([]interpRow, error) {
	type groupState struct {
		keys []adm.Value
		rows []interpRow
	}
	groups := map[uint64][]*groupState{}
	var order []*groupState
	for _, row := range rows {
		keys := make([]adm.Value, len(sel.GroupBy))
		var h uint64 = 1469598103934665603
		for i, gk := range sel.GroupBy {
			v, err := ev.Eval(gk.Expr, row.env)
			if err != nil {
				return nil, err
			}
			keys[i] = v
			h = h*1099511628211 ^ adm.Hash64(v)
		}
		var g *groupState
		for _, cand := range groups[h] {
			same := true
			for i := range keys {
				if adm.Compare(cand.keys[i], keys[i]) != 0 {
					same = false
					break
				}
			}
			if same {
				g = cand
				break
			}
		}
		if g == nil {
			g = &groupState{keys: keys}
			groups[h] = append(groups[h], g)
			order = append(order, g)
		}
		g.rows = append(g.rows, row)
	}
	// Implicit aggregation over an empty input still yields one group.
	if len(sel.GroupBy) == 0 && len(order) == 0 {
		order = append(order, &groupState{})
	}

	var out []interpRow
	for _, g := range order {
		env := NewEnv(base, nil, nil)
		var vars []string
		for i, gk := range sel.GroupBy {
			env.Bind(gk.Alias, g.keys[i])
			vars = append(vars, gk.Alias)
		}
		if sel.GroupAs != "" {
			var coll adm.Array
			for _, row := range g.rows {
				o := adm.NewObject()
				for _, v := range row.vars {
					if val, ok := row.env.Lookup(v); ok {
						o.Set(v, val)
					}
				}
				coll = append(coll, o)
			}
			env.Bind(sel.GroupAs, coll)
			vars = append(vars, sel.GroupAs)
		}
		for _, a := range aggs {
			var vals []adm.Value
			for _, row := range g.rows {
				if a.Star {
					vals = append(vals, adm.Int64(1))
					continue
				}
				v, err := ev.Eval(a.Arg, row.env)
				if err != nil {
					return nil, err
				}
				vals = append(vals, v)
			}
			if a.Distinct {
				vals = dedupe(vals)
			}
			fn := a.Fn
			if a.Star {
				fn = "count"
			}
			v, err := foldAggregate(fn, vals)
			if err != nil {
				return nil, err
			}
			env.Bind(a.Var, v)
			vars = append(vars, a.Var)
		}
		out = append(out, interpRow{env: env, vars: vars})
	}
	return out, nil
}

// truthyExpr evaluates e and applies SQL boolean semantics.
func (ev *Evaluator) truthyExpr(e sqlpp.Expr, env *Env) (bool, error) {
	v, err := ev.Eval(e, env)
	if err != nil {
		return false, err
	}
	b, known := adm.Truthy(v)
	return known && b, nil
}
