package algebricks

import (
	"slices"
	"sort"

	"asterix/internal/adm"
	"asterix/internal/hyracks"
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

	projExpr, havingExpr, orderExprs, aggs := groupBlock(sel, projectionFor(sel))
	if len(sel.GroupBy) > 0 || len(aggs) > 0 {
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
		env   *Env // what the ORDER BY keys are evaluated in
		keys  []adm.Value
		value adm.Value
	}
	var outs []outRow
	for _, row := range rows {
		v, err := ev.Eval(projExpr, row.env)
		if err != nil {
			return nil, err
		}
		outs = append(outs, outRow{env: row.env, value: v})
	}
	if sel.Select.Distinct {
		// As in a plan: drop duplicates, then order what is left by its
		// value, with the statement's scope but not the block's.
		for i, oi := range sel.OrderBy {
			var err error
			if orderExprs[i], err = rebaseOnResult(oi.Expr, sel); err != nil {
				return nil, err
			}
		}
		sort.Slice(outs, func(i, j int) bool { return adm.Compare(outs[i].value, outs[j].value) < 0 })
		outs = slices.CompactFunc(outs, func(a, b outRow) bool { return adm.Compare(a.value, b.value) == 0 })
		for i, o := range outs {
			outs[i].env = NewEnv(base, []string{ResultVar}, []adm.Value{o.value})
		}
	}
	for i := range outs {
		for _, oe := range orderExprs {
			kv, err := ev.Eval(oe, outs[i].env)
			if err != nil {
				return nil, err
			}
			outs[i].keys = append(outs[i].keys, kv)
		}
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
	limit, offset, err := ev.limitOffset(sel, base)
	if err != nil {
		return nil, err
	}
	result = result[min(offset, int64(len(result))):]
	if limit >= 0 && limit < int64(len(result)) {
		result = result[:limit]
	}
	return result, nil
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
			spec, err := aggSpecFor(a, 0)
			if err != nil {
				return nil, err
			}
			v, err := hyracks.Fold(spec, vals)
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
