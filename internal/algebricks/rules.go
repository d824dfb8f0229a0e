package algebricks

import (
	"slices"
	"sort"

	"asterix/internal/adm"
	"asterix/internal/sqlpp"
)

// DefaultRules returns the standard rule pipeline in application order:
// normalization first (constant folding), then predicate motion, then the
// structural rules (join ordering, physical join/access-path selection),
// and finally the cleanup rules that shrink tuples.
func DefaultRules() []Rule {
	return []Rule{
		{Name: "constant-fold", Apply: ruleConstantFold},
		{Name: "quantifier-to-semijoin", Apply: ruleQuantifierToSemijoin},
		{Name: "push-select-down", Apply: rulePushSelectDown},
		{Name: "push-select-through-join", Apply: rulePushSelectThroughJoin},
		{Name: "order-joins-greedily", Apply: ruleOrderJoinsGreedily},
		{Name: "recognize-hash-join", Apply: ruleRecognizeHashJoin},
		{Name: "push-aggregate-into-join", Apply: rulePushAggregateIntoJoin},
		{Name: "introduce-index-search", Apply: ruleIntroduceIndexSearch},
		{Name: "push-select-into-scan", Apply: rulePushSelectIntoScan},
		{Name: "push-limit-into-scan", Apply: rulePushLimitIntoScan},
		{Name: "push-limit-into-order", Apply: rulePushLimitIntoOrder},
		{Name: "result-after-order", Apply: ruleResultAfterOrder},
		{Name: "prune-columns", Apply: rulePruneColumns},
		{Name: "eliminate-redundant-project", Apply: ruleEliminateRedundantProject},
	}
}

// --- shared predicate helpers ---

// conjuncts flattens a conjunction (recursing through nested/parenthesized
// ANDs on both sides).
func conjuncts(e sqlpp.Expr) []sqlpp.Expr {
	if b, ok := e.(*sqlpp.Binary); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []sqlpp.Expr{e}
}

func conjoin(es []sqlpp.Expr) sqlpp.Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &sqlpp.Binary{Op: "AND", L: out, R: e}
	}
	return out
}

// usesOnly reports whether e's free variables (minus dataset names) are a
// subset of vars.
func (tr *Translator) usesOnly(e sqlpp.Expr, vars []string) bool {
	free := map[string]bool{}
	FreeVars(e, free)
	allowed := map[string]bool{}
	for _, v := range vars {
		allowed[v] = true
	}
	for v := range free {
		if allowed[v] {
			continue
		}
		if tr.Catalog != nil {
			if _, ok := tr.Catalog.Resolve(v); ok {
				continue
			}
		}
		return false
	}
	return true
}

// referencesAny reports whether e references at least one of vars. A key
// expression must actually depend on its join side: a constant passes
// usesOnly vacuously but makes a useless (single-partition) hash key.
func referencesAny(e sqlpp.Expr, vars []string) bool {
	free := map[string]bool{}
	FreeVars(e, free)
	for _, v := range vars {
		if free[v] {
			return true
		}
	}
	return false
}

// isConstant reports whether e references no variables at all (safe to
// evaluate at plan time).
func (tr *Translator) isConstant(e sqlpp.Expr) bool {
	free := map[string]bool{}
	FreeVars(e, free)
	return len(free) == 0
}

// containsSubquery reports whether e contains a nested SELECT, EXISTS, or
// quantifier — subtrees the constant folder must not evaluate at plan
// time (they may scan datasets).
func containsSubquery(e sqlpp.Expr) bool {
	switch e.(type) {
	case *sqlpp.SelectExpr, *sqlpp.UnionExpr, *sqlpp.ExistsExpr, *sqlpp.QuantifiedExpr:
		return true
	}
	var buf [4]sqlpp.Expr
	for _, c := range sqlpp.Children(e, buf[:0]) {
		if containsSubquery(c) {
			return true
		}
	}
	return false
}

// constValue evaluates a constant expression at plan time.
func (tr *Translator) constValue(e sqlpp.Expr) (adm.Value, error) {
	return tr.Ev.Eval(e, NewEnv(nil, nil, nil))
}

// --- rule: constant-fold ---

// foldConst replaces each largest constant subexpression — one that reads
// no variable and holds no subquery, EXISTS or quantifier — with its value,
// bottom-up, copying the nodes it changes, and reports whether e is
// constant. A constant subexpression whose evaluation fails is left as it
// is (its own constant parts folded), so runtime semantics are preserved.
func (tr *Translator) foldConst(e sqlpp.Expr) (sqlpp.Expr, bool) {
	constant := true
	switch e.(type) {
	case *sqlpp.Literal:
		return e, true
	case nil, *sqlpp.VarRef, *sqlpp.SelectExpr, *sqlpp.UnionExpr, *sqlpp.ExistsExpr, *sqlpp.QuantifiedExpr:
		constant = false
	}
	out := sqlpp.Rewrite(e, func(c sqlpp.Expr) sqlpp.Expr {
		c, ok := tr.foldConst(c)
		constant = constant && ok
		return c
	})
	if constant {
		if v, err := tr.constValue(out); err == nil {
			return &sqlpp.Literal{Value: v}, true
		}
	}
	return out, constant
}

func isTrueLiteral(e sqlpp.Expr) bool {
	l, ok := e.(*sqlpp.Literal)
	return ok && l.Value.Kind() == adm.KindBoolean && bool(l.Value.(adm.Boolean))
}

func ruleConstantFold(tr *Translator, plan Op) (Op, int) {
	return sweep(plan, func(op Op) (Op, bool) {
		changed := false
		fold := func(e sqlpp.Expr) sqlpp.Expr {
			ne, _ := tr.foldConst(e)
			changed = changed || ne != e
			return ne
		}
		switch o := op.(type) {
		case *SelectOp:
			o.Cond = fold(o.Cond)
			// Drop conjuncts folded to TRUE; drop the filter entirely when
			// nothing remains.
			cs := conjuncts(o.Cond)
			var kept []sqlpp.Expr
			for _, c := range cs {
				if !isTrueLiteral(c) {
					kept = append(kept, c)
				}
			}
			if len(kept) == 0 {
				return o.In, true
			}
			if len(kept) < len(cs) {
				o.Cond = conjoin(kept)
				changed = true
			}
		case *AssignOp:
			o.Expr = fold(o.Expr)
		case *UnnestOp:
			o.Expr = fold(o.Expr)
		case *JoinOp:
			if o.On != nil {
				o.On = fold(o.On)
			}
		case *ResultOp:
			o.Expr = fold(o.Expr)
		case *OrderOp:
			for i := range o.Items {
				o.Items[i].Expr = fold(o.Items[i].Expr)
			}
		case *GroupOp:
			for i := range o.Keys {
				o.Keys[i].Expr = fold(o.Keys[i].Expr)
			}
			for i := range o.Aggs {
				if o.Aggs[i].Arg != nil {
					o.Aggs[i].Arg = fold(o.Aggs[i].Arg)
				}
			}
		}
		return op, changed
	})
}

// --- rule: quantifier-to-semijoin ---

// SOME x IN <dataset> SATISFIES pred becomes a (hash) semi join against
// the dataset.
func ruleQuantifierToSemijoin(tr *Translator, plan Op) (Op, int) {
	return sweep(plan, func(op Op) (Op, bool) {
		sel, ok := op.(*SelectOp)
		if !ok {
			return op, false
		}
		cs := conjuncts(sel.Cond)
		for i, c := range cs {
			q, ok := c.(*sqlpp.QuantifiedExpr)
			if !ok || !q.Some {
				continue
			}
			ds, ok := q.In.(*sqlpp.VarRef)
			if !ok || tr.Catalog == nil {
				continue
			}
			if _, isDS := tr.Catalog.Resolve(ds.Name); !isDS {
				continue
			}
			// The satisfies predicate may reference the quantified var and
			// outer scope only.
			if !tr.usesOnly(q.Satisfies, append(append([]string{}, sel.In.Schema()...), q.Var)) {
				continue
			}
			rest := append(append([]sqlpp.Expr{}, cs[:i]...), cs[i+1:]...)
			join := &JoinOp{
				L:    sel.In,
				R:    &ScanOp{Dataset: ds.Name, Var: q.Var},
				Kind: JoinSemi,
				On:   q.Satisfies,
			}
			var out Op = join
			if len(rest) > 0 {
				out = &SelectOp{In: out, Cond: conjoin(rest)}
			}
			return out, true
		}
		return op, false
	})
}

// --- rule: push-select-down ---

// Push selections below assigns and unnests that do not define the
// referenced variables (both are 1:1 or expanding on rows they keep, so a
// filter on pre-existing columns commutes).
func rulePushSelectDown(tr *Translator, plan Op) (Op, int) {
	return sweep(plan, func(op Op) (Op, bool) {
		sel, ok := op.(*SelectOp)
		if !ok {
			return op, false
		}
		var defVar string
		var setChild func(Op)
		var child Op
		switch in := sel.In.(type) {
		case *AssignOp:
			defVar, child = in.Var, in.In
			setChild = func(c Op) { in.In = c }
		case *UnnestOp:
			defVar, child = in.Var, in.In
			setChild = func(c Op) { in.In = c }
		default:
			return op, false
		}
		var below, above []sqlpp.Expr
		for _, c := range conjuncts(sel.Cond) {
			free := map[string]bool{}
			FreeVars(c, free)
			if !free[defVar] {
				below = append(below, c)
			} else {
				above = append(above, c)
			}
		}
		if len(below) == 0 {
			return op, false
		}
		setChild(&SelectOp{In: child, Cond: conjoin(below)})
		if len(above) == 0 {
			return sel.In, true
		}
		sel.Cond = conjoin(above)
		return sel, true
	})
}

// --- rule: push-select-through-join ---

// Distribute a filter above a join: single-side conjuncts move below the
// join (into the preserved side only, for outer/semi joins), and for inner
// joins the remaining cross-side conjuncts fold into the join condition
// (enabling hash-join recognition).
func rulePushSelectThroughJoin(tr *Translator, plan Op) (Op, int) {
	return sweep(plan, func(op Op) (Op, bool) {
		sel, ok := op.(*SelectOp)
		if !ok {
			return op, false
		}
		j, ok := sel.In.(*JoinOp)
		if !ok {
			return op, false
		}
		cs := conjuncts(sel.Cond)
		switch j.Kind {
		case JoinInner:
			var toL, toR, keep []sqlpp.Expr
			for _, c := range cs {
				switch {
				case tr.usesOnly(c, j.L.Schema()):
					toL = append(toL, c)
				case tr.usesOnly(c, j.R.Schema()):
					toR = append(toR, c)
				default:
					keep = append(keep, c)
				}
			}
			// Folding into the join condition is only safe before key
			// extraction: afterwards On is the per-pair residual and stays
			// equivalent too, but there is nothing left to recognize.
			foldOK := len(j.LeftKeys) == 0
			if len(toL) == 0 && len(toR) == 0 && (len(keep) == 0 || !foldOK) {
				return op, false
			}
			if len(toL) > 0 {
				j.L = &SelectOp{In: j.L, Cond: conjoin(toL)}
			}
			if len(toR) > 0 {
				j.R = &SelectOp{In: j.R, Cond: conjoin(toR)}
			}
			if len(keep) > 0 && foldOK {
				if j.On != nil {
					keep = append(conjuncts(j.On), keep...)
				}
				j.On = conjoin(keep)
				return j, true
			}
			if len(keep) == 0 {
				return j, true
			}
			sel.Cond = conjoin(keep)
			return sel, true
		case JoinLeftOuter, JoinSemi:
			// Only the preserved (left) side can absorb filters: for a
			// left-outer join, pushing right-side filters would turn pad
			// rows into matches (or vice versa); for a semi join the output
			// schema is the left side anyway.
			var toL, keep []sqlpp.Expr
			for _, c := range cs {
				if tr.usesOnly(c, j.L.Schema()) && referencesAny(c, j.L.Schema()) {
					toL = append(toL, c)
				} else {
					keep = append(keep, c)
				}
			}
			if len(toL) == 0 {
				return op, false
			}
			j.L = &SelectOp{In: j.L, Cond: conjoin(toL)}
			if len(keep) == 0 {
				return j, true
			}
			sel.Cond = conjoin(keep)
			return sel, true
		}
		return op, false
	})
}

// --- rule: recognize-hash-join ---

// Extract equi-join keys from a join condition, adding assigns for the
// key expressions beneath each side. Handles straight and commuted
// equalities and AND-nested conjunctions (conjuncts flattens nesting);
// equalities against constants or spanning both sides stay in the
// residual predicate.
func ruleRecognizeHashJoin(tr *Translator, plan Op) (Op, int) {
	return sweep(plan, func(op Op) (Op, bool) {
		j, ok := op.(*JoinOp)
		if !ok || len(j.LeftKeys) > 0 || j.On == nil {
			return op, false
		}
		return j, tr.recognizeHashJoin(j)
	})
}

func (tr *Translator) recognizeHashJoin(j *JoinOp) bool {
	cs := conjuncts(j.On)
	lSchema, rSchema := j.L.Schema(), j.R.Schema()
	var lExprs, rExprs []sqlpp.Expr
	var residual []sqlpp.Expr
	for _, c := range cs {
		b, ok := c.(*sqlpp.Binary)
		if !ok || b.Op != "=" {
			residual = append(residual, c)
			continue
		}
		// Each key expression must use only — and at least one of — its
		// side's variables: a constant "key" would degenerate into a
		// single-partition cross join.
		switch {
		case tr.usesOnly(b.L, lSchema) && referencesAny(b.L, lSchema) &&
			tr.usesOnly(b.R, rSchema) && referencesAny(b.R, rSchema):
			lExprs = append(lExprs, b.L)
			rExprs = append(rExprs, b.R)
		case tr.usesOnly(b.L, rSchema) && referencesAny(b.L, rSchema) &&
			tr.usesOnly(b.R, lSchema) && referencesAny(b.R, lSchema):
			lExprs = append(lExprs, b.R)
			rExprs = append(rExprs, b.L)
		default:
			residual = append(residual, c)
		}
	}
	if len(lExprs) == 0 {
		return false
	}
	// Residual conjuncts ride along: the hash join checks them on each
	// key-matching pair (required for correct outer/semi semantics; for
	// inner joins it is equivalent to a post-join filter).
	for i := range lExprs {
		lv := tr.freshVar("jkl")
		rv := tr.freshVar("jkr")
		j.L = &AssignOp{In: j.L, Var: lv, Expr: lExprs[i]}
		j.R = &AssignOp{In: j.R, Var: rv, Expr: rExprs[i]}
		j.LeftKeys = append(j.LeftKeys, lv)
		j.RightKeys = append(j.RightKeys, rv)
	}
	j.On = conjoin(residual) // post-join residual filter
	return true
}

// --- rule: push-aggregate-into-join ---

// A group-by directly on an inner hash join whose keys read one side (the
// grouping side) and whose aggregates are mergeable ones over the other is
// split the local/global way inside the join (a groupjoin): the grouping
// side is the build side, each build row aggregates the probe rows it
// matches, and the group-by merges the partials per key.
func rulePushAggregateIntoJoin(tr *Translator, plan Op) (Op, int) {
	return sweep(plan, func(op Op) (Op, bool) {
		g, ok := op.(*GroupOp)
		if !ok || g.Merge || g.GroupAs != "" || len(g.Aggs) == 0 {
			return op, false
		}
		j, ok := g.In.(*JoinOp)
		if !ok || j.Kind != JoinInner || len(j.LeftKeys) == 0 || j.Aggs != nil {
			return op, false
		}
		if !tr.groupsOver(g, j.R.Schema(), j.L.Schema()) {
			// An inner join commutes, but the grouping side is swapped in as
			// the build side only as the one side of a one-to-many join: as the
			// many side it makes a larger table and saves the join no rows.
			if !tr.groupsOver(g, j.L.Schema(), j.R.Schema()) || !tr.keysArePrimary(j.L, j.LeftKeys) {
				return op, false
			}
			j.L, j.R = j.R, j.L
			j.LeftKeys, j.RightKeys = j.RightKeys, j.LeftKeys
		}
		// Each argument becomes a probe-side column; the group-by reads the
		// partial under the aggregate's own variable.
		probe := j.L.Schema()
		for i, a := range g.Aggs {
			if vr, ok := a.Arg.(*sqlpp.VarRef); !a.Star && (!ok || indexOf(probe, vr.Name) < 0) {
				v := tr.freshVar("jag")
				j.L = &AssignOp{In: j.L, Var: v, Expr: a.Arg}
				a.Arg = &sqlpp.VarRef{Name: v}
			}
			j.Aggs = append(j.Aggs, a)
			g.Aggs[i].Star, g.Aggs[i].Arg = false, &sqlpp.VarRef{Name: a.Var}
		}
		g.Merge = true
		return g, true
	})
}

// groupsOver reports whether g can aggregate inside a join whose build side
// binds grouping and whose probe side binds other: every key reads only
// grouping, and every aggregate is COUNT(*) or a non-DISTINCT count, sum, min,
// max or avg of a field path on other, which cannot fail on any probe row.
func (tr *Translator) groupsOver(g *GroupOp, grouping, other []string) bool {
	for _, k := range g.Keys {
		if !tr.usesOnly(k.Expr, grouping) {
			return false
		}
	}
	for _, a := range g.Aggs {
		if a.Distinct || a.Fn == "array_agg" || !a.Star && !fieldPath(a.Arg, other) {
			return false
		}
	}
	return true
}

// keysArePrimary reports whether side scans a dataset through assigns and
// selects only and its join keys, assigned on the way, read its whole
// primary key: each key value names at most one row of side.
func (tr *Translator) keysArePrimary(side Op, keys []string) bool {
	if tr.Catalog == nil {
		return false
	}
	exprs := map[string]sqlpp.Expr{}
	for {
		switch o := side.(type) {
		case *AssignOp:
			exprs[o.Var], side = o.Expr, o.In
			continue
		case *SelectOp:
			side = o.In
			continue
		case *ScanOp:
			read := map[string]bool{}
			for _, k := range keys {
				if f, ok := recField(exprs[k], o.Var); ok {
					read[f] = true
				}
			}
			for f := range read {
				if idx, ok := tr.Catalog.ResolveIndex(o.Dataset, f); ok && idx.Kind() == "PRIMARY" {
					return !slices.ContainsFunc(idx.KeyFields(), func(pk string) bool { return !read[pk] })
				}
			}
		}
		return false
	}
}

// recField returns f when e is rec.f.
func recField(e sqlpp.Expr, rec string) (string, bool) {
	if fa, ok := e.(*sqlpp.FieldAccess); ok {
		if vr, ok := fa.Base.(*sqlpp.VarRef); ok && vr.Name == rec {
			return fa.Field, true
		}
	}
	return "", false
}

// fieldPath reports whether e is one of vars or a chain of field accesses on
// one of them.
func fieldPath(e sqlpp.Expr, vars []string) bool {
	if vr, ok := e.(*sqlpp.VarRef); ok {
		return indexOf(vars, vr.Name) >= 0
	}
	fa, ok := e.(*sqlpp.FieldAccess)
	return ok && fieldPath(fa.Base, vars)
}

// --- rule: introduce-index-search ---

func ruleIntroduceIndexSearch(tr *Translator, plan Op) (Op, int) {
	return sweep(plan, func(op Op) (Op, bool) {
		sel, ok := op.(*SelectOp)
		if !ok {
			return op, false
		}
		scan, ok := sel.In.(*ScanOp)
		if !ok {
			return op, false
		}
		if out, c := tr.introduceIndex(sel, scan); c {
			return out, true
		}
		return op, false
	})
}

// rangeBound is the sargable constraint the conjuncts of one predicate
// put on one field: constant bounds, nil = unbounded on that side.
type rangeBound struct {
	lo, hi       sqlpp.Expr
	loInc, hiInc bool
}

// isEq reports whether the bound came from an equality conjunct.
func (rb *rangeBound) isEq() bool {
	return rb.lo != nil && rb.lo == rb.hi && rb.loInc && rb.hiInc
}

// isKeyConstant reports whether e is a constant an ordered index can be
// probed with: it evaluates at plan time to a non-null scalar that
// adm.EncodeKey accepts. Anything else (arrays, objects, rectangles,
// null, missing) stays with the residual filter, which gives it the
// comparison semantics a scan would.
func (tr *Translator) isKeyConstant(e sqlpp.Expr) bool {
	if !tr.isConstant(e) || containsSubquery(e) {
		return false
	}
	v, err := tr.constValue(e)
	if err != nil || v.Kind() <= adm.KindNull {
		return false
	}
	_, err = adm.EncodeKey(nil, v)
	return err == nil
}

// collectBounds gathers, per field of scanVar, the bounds that conjuncts
// of the form `var.field op constant` (either operand order) impose, and
// the fields in first-conjunct order so access-path choice is
// deterministic. It serves every ordered index kind, primary and
// secondary.
func (tr *Translator) collectBounds(cs []sqlpp.Expr, fieldOf func(sqlpp.Expr) (string, bool)) (map[string]*rangeBound, []string) {
	bounds := map[string]*rangeBound{}
	var fieldOrder []string
	for _, c := range cs {
		b, ok := c.(*sqlpp.Binary)
		if !ok {
			continue
		}
		var field string
		var valExpr sqlpp.Expr
		op := b.Op
		if f, ok := fieldOf(b.L); ok && tr.isKeyConstant(b.R) {
			field, valExpr = f, b.R
		} else if f, ok := fieldOf(b.R); ok && tr.isKeyConstant(b.L) {
			field, valExpr = f, b.L
			// Flip the comparison.
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
		} else {
			continue
		}
		switch op {
		case "=", "<", "<=", ">", ">=":
		default:
			continue
		}
		rb := bounds[field]
		if rb == nil {
			rb = &rangeBound{}
			bounds[field] = rb
			fieldOrder = append(fieldOrder, field)
		}
		switch op {
		case "=":
			rb.lo, rb.hi, rb.loInc, rb.hiInc = valExpr, valExpr, true, true
		case "<":
			rb.hi, rb.hiInc = valExpr, false
		case "<=":
			rb.hi, rb.hiInc = valExpr, true
		case ">":
			rb.lo, rb.loInc = valExpr, false
		case ">=":
			rb.lo, rb.loInc = valExpr, true
		}
	}
	return bounds, fieldOrder
}

// primaryBounds turns per-field bounds into bounds on the primary key
// (k1..kn): equality on a leading run of key fields, then optionally a
// range on the next one. Bounds on a single-field key are the constants
// themselves; on a composite key they are array constructors over the
// constrained prefix. point reports equality on the full key.
func primaryBounds(key []string, bounds map[string]*rangeBound) (rb rangeBound, point, ok bool) {
	var eq []sqlpp.Expr
	for _, f := range key {
		b := bounds[f]
		if b == nil || !b.isEq() {
			break
		}
		eq = append(eq, b.lo)
	}
	tuple := func(prefix []sqlpp.Expr, last sqlpp.Expr) sqlpp.Expr {
		if last != nil {
			prefix = append(prefix[:len(prefix):len(prefix)], last)
		}
		switch {
		case len(prefix) == 0:
			return nil
		case len(key) == 1:
			return prefix[0]
		}
		return &sqlpp.ArrayConstructor{Elems: prefix}
	}
	if len(eq) == len(key) {
		k := tuple(eq, nil)
		return rangeBound{lo: k, hi: k, loInc: true, hiInc: true}, true, true
	}
	rb = rangeBound{loInc: true, hiInc: true}
	var lo, hi sqlpp.Expr
	if b := bounds[key[len(eq)]]; b != nil {
		if lo = b.lo; lo != nil {
			rb.loInc = b.loInc
		}
		if hi = b.hi; hi != nil {
			rb.hiInc = b.hiInc
		}
	}
	rb.lo, rb.hi = tuple(eq, lo), tuple(eq, hi)
	return rb, false, rb.lo != nil || rb.hi != nil
}

// introduceIndex replaces Scan+Select with an index search when a
// conjunct is sargable on an indexed field or on the primary key.
func (tr *Translator) introduceIndex(sel *SelectOp, scan *ScanOp) (Op, bool) {
	if tr.Catalog == nil {
		return nil, false
	}
	cs := conjuncts(sel.Cond)

	fieldOf := func(e sqlpp.Expr) (string, bool) { return recField(e, scan.Var) }

	// Ordered indexes (PRIMARY, BTREE): the first bounded field with a
	// usable index wins, except that equality on the full primary key —
	// one record on one partition — beats any earlier candidate. The full
	// predicate stays as a residual filter: the index delivers a
	// superset-safe candidate set, and re-checking keeps open-type edge
	// cases (non-comparable values) correct.
	bounds, fieldOrder := tr.collectBounds(cs, fieldOf)
	var best *IndexSearchOp
	for _, field := range fieldOrder {
		idx, ok := tr.Catalog.ResolveIndex(scan.Dataset, field)
		if !ok {
			continue
		}
		rb, point := *bounds[field], false
		switch idx.Kind() {
		case "BTREE":
			// Only value-ordered indexes take range predicates (the
			// curve/grid variants are driven through spatial preds).
		case "PRIMARY":
			if rb, point, ok = primaryBounds(idx.KeyFields(), bounds); !ok {
				continue
			}
		default:
			continue
		}
		if best == nil || point {
			best = &IndexSearchOp{
				Dataset: scan.Dataset, Var: scan.Var, Field: field, Kind: idx.Kind(),
				Lo: rb.lo, Hi: rb.hi, LoInc: rb.loInc, HiInc: rb.hiInc, Filter: scan.Filter,
			}
		}
		if point {
			break
		}
	}
	if best != nil {
		return &SelectOp{In: best, Cond: sel.Cond}, true
	}

	// RTREE: spatial_intersect(field, <const rect>).
	for _, c := range cs {
		call, ok := c.(*sqlpp.Call)
		if !ok || call.Fn != "spatial_intersect" || len(call.Args) != 2 {
			continue
		}
		var field string
		var rectExpr sqlpp.Expr
		if f, ok := fieldOf(call.Args[0]); ok && tr.isConstant(call.Args[1]) {
			field, rectExpr = f, call.Args[1]
		} else if f, ok := fieldOf(call.Args[1]); ok && tr.isConstant(call.Args[0]) {
			field, rectExpr = f, call.Args[0]
		} else {
			continue
		}
		idx, ok := tr.Catalog.ResolveIndex(scan.Dataset, field)
		if !ok {
			continue
		}
		switch idx.Kind() {
		case "RTREE", "ZORDER", "HILBERT", "GRID":
			is := &IndexSearchOp{
				Dataset: scan.Dataset, Var: scan.Var, Field: field,
				Kind: idx.Kind(), Rect: rectExpr, Filter: scan.Filter,
			}
			return &SelectOp{In: is, Cond: sel.Cond}, true
		}
	}

	// KEYWORD: ftcontains(field, <const token>).
	for _, c := range cs {
		call, ok := c.(*sqlpp.Call)
		if !ok || call.Fn != "ftcontains" || len(call.Args) != 2 {
			continue
		}
		f, ok := fieldOf(call.Args[0])
		if !ok || !tr.isConstant(call.Args[1]) {
			continue
		}
		idx, ok := tr.Catalog.ResolveIndex(scan.Dataset, f)
		if !ok || idx.Kind() != "KEYWORD" {
			continue
		}
		is := &IndexSearchOp{
			Dataset: scan.Dataset, Var: scan.Var, Field: f,
			Kind: "KEYWORD", Token: call.Args[1], Filter: scan.Filter,
		}
		return &SelectOp{In: is, Cond: sel.Cond}, true
	}
	return nil, false
}

// --- rule: push-select-into-scan ---

// A filter directly on a leaf moves into it, conjunct by conjunct: the leaf
// then decodes what the conjunct reads, applies it, and neither decodes the
// rest of a rejected record nor builds a tuple for it. A conjunct moves
// when it reads nothing but the leaf's variable and holds no subquery,
// EXISTS or quantifier (those scan datasets and bind variables per row);
// the others stay in the select. The residual that introduce-index-search
// leaves above an index search is such a filter, so this rule runs after
// it — and before push-limit-into-scan, which can then cap a leaf whose
// filter used to stand in its way: the cap counts the rows emitted.
func rulePushSelectIntoScan(tr *Translator, plan Op) (Op, int) {
	return sweep(plan, func(op Op) (Op, bool) {
		sel, ok := op.(*SelectOp)
		if !ok {
			return op, false
		}
		var v string
		var filter *sqlpp.Expr
		switch leaf := sel.In.(type) {
		case *ScanOp:
			v, filter = leaf.Var, &leaf.Filter
		case *IndexSearchOp:
			v, filter = leaf.Var, &leaf.Filter
		default:
			return op, false
		}
		var moved, kept []sqlpp.Expr
		if *filter != nil {
			moved = conjuncts(*filter)
		}
		n := len(moved)
		for _, c := range conjuncts(sel.Cond) {
			free := map[string]bool{}
			FreeVars(c, free)
			if delete(free, v); len(free) == 0 && !containsSubquery(c) {
				moved = append(moved, c)
			} else {
				kept = append(kept, c)
			}
		}
		if len(moved) == n {
			return op, false
		}
		*filter = conjoin(moved)
		if len(kept) == 0 {
			return sel.In, true
		}
		sel.Cond = conjoin(kept)
		return sel, true
	})
}

// --- rules: push-limit-into-scan, push-limit-into-order ---

// pushLimit hands each LIMIT's bound to the operator it sits on: walking
// down through row-preserving 1:1 operators only (assign/result/project —
// anything that filters, groups or multiplies rows ends the walk), the
// operator reached needs to produce at most limit+offset tuples. bound
// returns where that operator keeps such a cap, nil if it takes none. The
// LimitOp stays and still enforces the exact global bound.
func pushLimit(plan Op, bound func(Op) *int64) (Op, int) {
	return sweep(plan, func(op Op) (Op, bool) {
		l, ok := op.(*LimitOp)
		if !ok || l.Limit < 0 {
			return op, false
		}
		target := l.Limit + l.Offset
		if target <= 0 {
			return op, false
		}
		cur := l.In
		for {
			switch x := cur.(type) {
			case *AssignOp:
				cur = x.In
				continue
			case *ResultOp:
				cur = x.In
				continue
			case *ProjectOp:
				cur = x.In
				continue
			}
			if b := bound(cur); b != nil && (*b == 0 || *b > target) {
				*b = target
				return op, true
			}
			return op, false
		}
	})
}

// Cap leaf scans under a LIMIT: each scan partition emits at most
// limit+offset tuples.
func rulePushLimitIntoScan(tr *Translator, plan Op) (Op, int) {
	return pushLimit(plan, func(op Op) *int64 {
		switch x := op.(type) {
		case *ScanOp:
			return &x.MaxTuples
		case *IndexSearchOp:
			return &x.MaxTuples
		}
		return nil
	})
}

// Bound a sort under a LIMIT: ORDER BY … LIMIT k keeps the first
// limit+offset tuples per partition instead of sorting, buffering and
// shipping its whole input to a limit that drops the rest.
func rulePushLimitIntoOrder(tr *Translator, plan Op) (Op, int) {
	return pushLimit(plan, func(op Op) *int64 {
		if x, ok := op.(*OrderOp); ok {
			return &x.Limit
		}
		return nil
	})
}

// --- rule: result-after-order ---

// Project after a bounded sort: an ORDER BY … LIMIT k directly above the
// projection whose keys do not read the projected value trades places with
// it, so the result is built for the k survivors and the sort moves tuples
// without the result column. An unbounded sort keeps the projection below:
// it passes every row on, and below it the projection runs on every
// partition where above it would run on the one task behind the merge.
func ruleResultAfterOrder(tr *Translator, plan Op) (Op, int) {
	return sweep(plan, func(op Op) (Op, bool) {
		ord, ok := op.(*OrderOp)
		if !ok || ord.Limit <= 0 {
			return op, false
		}
		res, ok := ord.In.(*ResultOp)
		if !ok {
			return op, false
		}
		for _, it := range ord.Items {
			if referencesAny(it.Expr, []string{ResultVar}) {
				return op, false
			}
		}
		ord.In, res.In = res.In, ord
		return res, true
	})
}

// --- rule: prune-columns ---

// Propagate required columns top-down: drop assigns nobody reads, narrow
// join inputs with projects so exchanges move minimal tuples, and tell
// each leaf which fields of its record the plan reads so it materializes
// only those.
func rulePruneColumns(tr *Translator, plan Op) (Op, int) {
	hits := 0
	var need needs
	if indexOf(plan.Schema(), ResultVar) >= 0 {
		// Downstream (result sink) only reads the result column.
		need.set(ResultVar, nil)
	} else {
		for _, v := range plan.Schema() {
			need.set(v, nil)
		}
	}
	out := pruneOp(plan, need, &hits)
	return out, hits
}

// needs is what the operators above read of each column: an absent column
// is dead, one with nil fields is read whole, otherwise only the listed
// first-step fields (v.f) of it are read. A short slice, not a map: plans
// bind a handful of columns and every operator copies its requirement.
// Field lists are never appended to in place, so copies may share them.
type needs []colNeed

type colNeed struct {
	col    string
	fields []string
}

func (n needs) get(v string) (fields []string, ok bool) {
	for _, c := range n {
		if c.col == v {
			return c.fields, true
		}
	}
	return nil, false
}

func (n needs) has(v string) bool {
	_, ok := n.get(v)
	return ok
}

// set records what is read of v: nil for the whole value.
func (n *needs) set(v string, fields []string) {
	for i := range *n {
		if (*n)[i].col == v {
			(*n)[i].fields = fields
			return
		}
	}
	*n = append(*n, colNeed{v, fields})
}

func (n *needs) field(v, f string) {
	if fs, ok := n.get(v); !ok || (fs != nil && !slices.Contains(fs, f)) {
		n.set(v, append(fs[:len(fs):len(fs)], f))
	}
}

// addUses records how e reads the columns in schema. `v.f` reads one field
// of column v; every other occurrence of v — bare, indexed, passed to a
// function, or anywhere inside a subquery, UNION, EXISTS or quantifier,
// whose scopes are not tracked here — reads it whole.
func (n *needs) addUses(e sqlpp.Expr, schema []string) {
	switch x := e.(type) {
	case *sqlpp.VarRef:
		if indexOf(schema, x.Name) >= 0 {
			n.set(x.Name, nil)
		}
	case *sqlpp.FieldAccess:
		if vr, ok := x.Base.(*sqlpp.VarRef); !ok {
			n.addUses(x.Base, schema)
		} else if indexOf(schema, vr.Name) >= 0 {
			n.field(vr.Name, x.Field)
		}
	case *sqlpp.SelectExpr, *sqlpp.UnionExpr, *sqlpp.ExistsExpr, *sqlpp.QuantifiedExpr:
		free := map[string]bool{}
		FreeVars(e, free)
		for _, v := range schema {
			if free[v] {
				n.set(v, nil)
			}
		}
	default:
		var buf [4]sqlpp.Expr
		for _, c := range sqlpp.Children(e, buf[:0]) {
			n.addUses(c, schema)
		}
	}
}

// with returns a copy of n, minus column drop (the one the operator itself
// binds, "" for none), that also covers what e reads of schema.
func (n needs) with(e sqlpp.Expr, schema []string, drop string) needs {
	out := make(needs, 0, len(n)+2)
	for _, c := range n {
		if c.col != drop {
			out = append(out, c)
		}
	}
	out.addUses(e, schema)
	return out
}

// only returns a copy of n restricted to cols.
func (n needs) only(cols []string) needs {
	out := make(needs, 0, len(n)+2)
	for _, c := range n {
		if indexOf(cols, c.col) >= 0 {
			out = append(out, c)
		}
	}
	return out
}

// leafFields is the field list a leaf binding v gets under need — what the
// plan above reads plus what the leaf's own filter does: nil when the
// record is read whole, otherwise the sorted fields read of it (none when
// only its existence matters). It counts a hit when that changes cur.
func leafFields(cur []string, need needs, v string, hits *int) []string {
	var want []string
	if fs, ok := need.get(v); !ok || fs != nil {
		want = append(make([]string, 0, len(fs)), fs...)
		sort.Strings(want)
	}
	if (cur == nil) != (want == nil) || !sameStrings(cur, want) {
		*hits++
	}
	return want
}

func pruneOp(op Op, need needs, hits *int) Op {
	switch o := op.(type) {
	case *ScanOp:
		o.Fields = leafFields(o.Fields, need.with(o.Filter, o.Schema(), ""), o.Var, hits)
		return o
	case *IndexSearchOp:
		o.Fields = leafFields(o.Fields, need.with(o.Filter, o.Schema(), ""), o.Var, hits)
		return o
	case *SelectOp:
		o.In = pruneOp(o.In, need.with(o.Cond, o.In.Schema(), ""), hits)
		return o
	case *AssignOp:
		if !need.has(o.Var) {
			// Dead assign: nobody downstream reads the column.
			*hits++
			return pruneOp(o.In, need, hits)
		}
		o.In = pruneOp(o.In, need.with(o.Expr, o.In.Schema(), o.Var), hits)
		return o
	case *UnnestOp:
		// The unnest shapes cardinality even when its variable is dead;
		// only the requirement set shrinks.
		o.In = pruneOp(o.In, need.with(o.Expr, o.In.Schema(), o.Var), hits)
		return o
	case *ProjectOp:
		var cols []string
		for _, c := range o.Cols {
			if need.has(c) {
				cols = append(cols, c)
			}
		}
		if len(cols) < len(o.Cols) {
			o.Cols = cols
			*hits++
		}
		o.In = pruneOp(o.In, need.only(o.Cols), hits)
		return o
	case *JoinOp:
		lSchema, rSchema := o.L.Schema(), o.R.Schema()
		needL, needR := need.only(lSchema), need.only(rSchema)
		if o.On != nil {
			needL.addUses(o.On, lSchema)
			needR.addUses(o.On, rSchema)
		}
		for _, a := range o.Aggs {
			needL.addUses(a.Arg, lSchema)
		}
		for _, k := range o.LeftKeys {
			needL.set(k, nil)
		}
		for _, k := range o.RightKeys {
			needR.set(k, nil)
		}
		o.L = maybeProject(pruneOp(o.L, needL, hits), needL, hits)
		o.R = maybeProject(pruneOp(o.R, needR, hits), needR, hits)
		return o
	case *GroupOp:
		var n needs
		inSchema := o.In.Schema()
		for _, k := range o.Keys {
			n.addUses(k.Expr, inSchema)
		}
		for _, a := range o.Aggs {
			n.addUses(a.Arg, inSchema)
		}
		if o.GroupAs != "" {
			// GROUP AS materializes every row variable.
			for _, v := range o.RowVars {
				n.set(v, nil)
			}
		}
		o.In = pruneOp(o.In, n, hits)
		return o
	case *ResultOp:
		o.In = pruneOp(o.In, need.with(o.Expr, o.In.Schema(), ResultVar), hits)
		return o
	case *DistinctOp:
		o.In = pruneOp(o.In, needs{{col: ResultVar}}, hits)
		return o
	case *OrderOp:
		n := need.with(nil, nil, "")
		for _, it := range o.Items {
			n.addUses(it.Expr, o.In.Schema())
		}
		o.In = pruneOp(o.In, n, hits)
		return o
	case *LimitOp:
		o.In = pruneOp(o.In, need, hits)
		return o
	case *UnionAllOp:
		for i := range o.Ins {
			o.Ins[i] = pruneOp(o.Ins[i], needs{{col: ResultVar}}, hits)
		}
		return o
	default:
		return op
	}
}

// maybeProject narrows child to the needed columns when it produces more,
// keeping schema order. Children that are already projects were narrowed
// in place by pruneOp.
func maybeProject(child Op, need needs, hits *int) Op {
	if _, ok := child.(*ProjectOp); ok {
		return child
	}
	schema := child.Schema()
	var cols []string
	for _, v := range schema {
		if need.has(v) {
			cols = append(cols, v)
		}
	}
	if len(cols) == len(schema) {
		return child
	}
	*hits++
	return &ProjectOp{In: child, Cols: cols}
}

// --- rule: eliminate-redundant-project ---

func ruleEliminateRedundantProject(tr *Translator, plan Op) (Op, int) {
	return sweep(plan, func(op Op) (Op, bool) {
		p, ok := op.(*ProjectOp)
		if !ok {
			return op, false
		}
		// Collapse stacked projects (the outer column set is a subset of
		// the inner by construction).
		if inner, ok := p.In.(*ProjectOp); ok {
			p.In = inner.In
			return p, true
		}
		// An identity project is noise.
		if sameStrings(p.Cols, p.In.Schema()) {
			return p.In, true
		}
		return op, false
	})
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
