package algebricks

import (
	"slices"
	"sort"

	"asterix/internal/adm"
	"asterix/internal/hyracks"
	"asterix/internal/sqlpp"
)

// interpretSelect executes a nested SELECT block serially against outer
// bindings (the subplan path; top-level queries go through job
// generation). Each row is the Env of one binding tuple.
func (ev *Evaluator) interpretSelect(sel *sqlpp.SelectExpr, outer *Env) ([]adm.Value, error) {
	base := NewEnv(outer, nil, nil)
	for _, w := range sel.With {
		v, err := ev.Eval(w.Expr, base)
		if err != nil {
			return nil, err
		}
		base.Bind(w.Var, v)
	}

	rows := []*Env{NewEnv(base, nil, nil)}

	// bind extends each row by every element of expr's collection that
	// satisfies on (nil: every element), a LEFT JOIN's row without one by
	// missing.
	bind := func(in []*Env, expr sqlpp.Expr, alias string, on sqlpp.Expr, leftOuter bool) ([]*Env, error) {
		var out []*Env
		for _, row := range in {
			coll, err := ev.Eval(expr, row)
			if err != nil {
				return nil, err
			}
			elems, _ := asCollection(coll)
			matched := false
			for _, el := range elems {
				env := NewEnv(row, []string{alias}, []adm.Value{el})
				ok := on == nil
				if !ok {
					if ok, err = ev.truthyExpr(on, env); err != nil {
						return nil, err
					}
				}
				if ok {
					matched = true
					out = append(out, env)
				}
			}
			if !matched && leftOuter {
				out = append(out, NewEnv(row, []string{alias}, []adm.Value{adm.Missing}))
			}
		}
		return out, nil
	}

	var err error
	for _, ft := range sel.From {
		if rows, err = bind(rows, ft.Expr, ft.Alias, nil, false); err != nil {
			return nil, err
		}
		for _, link := range ft.Links {
			if rows, err = bind(rows, link.Expr, link.Alias, link.On, link.Kind == sqlpp.JoinLeftOuter); err != nil {
				return nil, err
			}
		}
	}

	for _, lc := range sel.Lets {
		for _, row := range rows {
			v, err := ev.Eval(lc.Expr, row)
			if err != nil {
				return nil, err
			}
			row.Bind(lc.Var, v)
		}
	}

	if rows, err = ev.filter(rows, sel.Where); err != nil {
		return nil, err
	}

	projExpr, havingExpr, orderExprs, aggs := groupBlock(sel, projectionFor(sel))
	if len(sel.GroupBy) > 0 || len(aggs) > 0 {
		if rows, err = ev.interpretGroup(sel, aggs, rows, base); err != nil {
			return nil, err
		}
	}

	if rows, err = ev.filter(rows, havingExpr); err != nil {
		return nil, err
	}

	type outRow struct {
		env   *Env // what the ORDER BY keys are evaluated in
		keys  []adm.Value
		value adm.Value
	}
	var outs []outRow
	for _, row := range rows {
		v, err := ev.Eval(projExpr, row)
		if err != nil {
			return nil, err
		}
		outs = append(outs, outRow{env: row, value: v})
	}
	if sel.Select.Distinct {
		// As in a plan: drop duplicates, then order what is left by its
		// value, with the statement's scope but not the block's.
		for i, oi := range sel.OrderBy {
			orderExprs[i] = rebaseOnResult(oi.Expr, sel)
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
func (ev *Evaluator) interpretGroup(sel *sqlpp.SelectExpr, aggs []AggRef, rows []*Env, base *Env) ([]*Env, error) {
	type groupState struct {
		keys []adm.Value
		rows []*Env
	}
	groups := map[uint64][]*groupState{}
	var order []*groupState
	for _, row := range rows {
		keys := make([]adm.Value, len(sel.GroupBy))
		var h uint64 = 1469598103934665603
		for i, gk := range sel.GroupBy {
			v, err := ev.Eval(gk.Expr, row)
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

	held := rowVars(sel) // what a GROUP AS element holds
	var out []*Env
	for _, g := range order {
		env := NewEnv(base, nil, nil)
		for i, gk := range sel.GroupBy {
			env.Bind(gk.Alias, g.keys[i])
		}
		if sel.GroupAs != "" {
			var coll adm.Array
			for _, row := range g.rows {
				o := adm.NewObject()
				for _, d := range held {
					if val, ok := row.Lookup(d.Name); ok {
						o.Set(userName(d.Name), val)
					}
				}
				coll = append(coll, o)
			}
			env.Bind(sel.GroupAs, coll)
		}
		for _, a := range aggs {
			var vals []adm.Value
			for _, row := range g.rows {
				if a.Star {
					vals = append(vals, adm.Int64(1))
					continue
				}
				v, err := ev.Eval(a.Arg, row)
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
		}
		out = append(out, env)
	}
	return out, nil
}

// filter keeps the rows cond is true on, all of them without a cond.
func (ev *Evaluator) filter(rows []*Env, cond sqlpp.Expr) ([]*Env, error) {
	if cond == nil {
		return rows, nil
	}
	var kept []*Env
	for _, row := range rows {
		ok, err := ev.truthyExpr(cond, row)
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, row)
		}
	}
	return kept, nil
}

// truthyExpr evaluates e and applies SQL boolean semantics.
func (ev *Evaluator) truthyExpr(e sqlpp.Expr, env *Env) (bool, error) {
	v, err := ev.Eval(e, env)
	return err == nil && truthOf(v) == tTrue, err
}
