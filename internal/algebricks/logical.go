package algebricks

import (
	"fmt"
	"slices"
	"strings"

	"asterix/internal/adm"
	"asterix/internal/sqlpp"
)

// Op is a logical operator. Each op produces tuples whose columns are
// named variables (Schema).
type Op interface {
	Schema() []string
	Inputs() []Op
	String() string
}

// EtsOp is the empty-tuple source: one tuple, no columns (the leaf under
// constant FROM terms).
type EtsOp struct{}

// ScanOp is a full dataset scan binding each record to Var.
type ScanOp struct {
	Dataset string
	Var     string
	// MaxTuples caps the number of tuples each partition emits (0 = no
	// cap), set by the push-limit rule.
	MaxTuples int64
	// Fields lists, sorted, the only first-level fields of the record the
	// plan reads (nil = the whole record), set by the column-pruning rule;
	// the leaf emits one column per field and materializes nothing else.
	Fields []string
	// Filter, set by the push-select rule, is a predicate over
	// Var alone that the leaf applies itself: a record it does not hold for
	// is never emitted, nor decoded beyond the fields Filter reads.
	Filter sqlpp.Expr
}

// IndexKind names the access paths an IndexSearchOp can use.
type IndexKind string

// IndexSearchOp replaces a scan when a sargable conjunct of its Filter
// matches an index. PRIMARY searches the primary index itself — a point
// lookup on the owning partition for equality on the full key, a bounded
// scan otherwise; a secondary index is searched and the qualifying records
// fetched (pk-sorted, per [26]). Either way the scan's whole Filter becomes
// the search's, and the leaf re-checks it on what the search delivers.
type IndexSearchOp struct {
	Dataset string
	Var     string
	Field   string // indexed field (PRIMARY: the leading key field)
	Kind    string // PRIMARY, BTREE, RTREE, KEYWORD, ...

	// PRIMARY/BTREE bounds (constant expressions; nil = unbounded). On a
	// composite primary key they are array constructors over a leading
	// prefix of the key.
	Lo, Hi       sqlpp.Expr
	LoInc, HiInc bool
	// RTREE query rectangle (constant expression).
	Rect sqlpp.Expr
	// KEYWORD token (constant expression).
	Token sqlpp.Expr
	// MaxTuples caps the number of tuples each partition emits (0 = no
	// cap), set by the push-limit rule.
	MaxTuples int64
	// Fields and Filter are ScanOp's, for the fetched records.
	Fields []string
	Filter sqlpp.Expr
}

// SelectOp filters tuples by a predicate.
type SelectOp struct {
	In   Op
	Cond sqlpp.Expr
}

// AssignOp appends a computed column.
type AssignOp struct {
	In   Op
	Var  string
	Expr sqlpp.Expr
}

// UnnestOp appends a column iterating a (possibly correlated) collection
// expression; tuples whose collection is empty or non-collection are
// dropped.
type UnnestOp struct {
	In   Op
	Var  string
	Expr sqlpp.Expr
}

// JoinKind for logical joins.
type JoinKind int

// Logical join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeftOuter
	JoinSemi
)

// JoinOp joins two independent subplans. After rule application, equi
// joins carry key variable lists (columns appended by assigns beneath).
type JoinOp struct {
	L, R Op
	Kind JoinKind
	On   sqlpp.Expr // nil = cross product
	// Hash-join keys (variable names present in L/R schemas), set by the
	// join-recognition rule.
	LeftKeys, RightKeys []string
	// Aggs (push-aggregate-into-join) makes an inner hash join emit each R
	// row that matches once, with a partial state per aggregate over the L
	// rows it matched: the schema is R's plus the aggregates' variables.
	Aggs []AggRef
	// ordered marks joins already placed by the greedy join-ordering rule
	// so the rule does not restructure the same cluster twice.
	ordered bool
}

// ProjectOp narrows the tuple to the named columns (in the given order),
// inserted by the column-pruning rule.
type ProjectOp struct {
	In   Op
	Cols []string
}

// GroupKeyDef is one grouping key.
type GroupKeyDef struct {
	Var  string
	Expr sqlpp.Expr
}

// GroupOp groups by keys, computing extracted aggregates and optionally a
// GROUP AS collection of the input row variables. Output schema: key vars,
// aggregate vars, then GroupAs (if any).
type GroupOp struct {
	In      Op
	Keys    []GroupKeyDef
	Aggs    []AggRef
	GroupAs string
	RowVars []string // the row variables a GROUP AS element holds
	// Merge is set when the input carries each aggregate's partial state
	// (an aggregating join below computed it): the group-by merges its
	// argument, the partial, instead of stepping over rows.
	Merge bool
}

// ResultOp appends the final projection value as column "$result".
type ResultOp struct {
	In   Op
	Expr sqlpp.Expr
}

// DistinctOp removes duplicate $result values.
type DistinctOp struct{ In Op }

// OrderDef is one sort item.
type OrderDef struct {
	Expr sqlpp.Expr
	Desc bool
}

// OrderOp sorts tuples.
type OrderOp struct {
	In    Op
	Items []OrderDef
	// Limit bounds the sort to its first Limit tuples (0 = all), set by the
	// push-limit rule; the LimitOp above keeps the exact bound.
	Limit int64
}

// LimitOp applies limit/offset (constants; -1 = none).
type LimitOp struct {
	In            Op
	Limit, Offset int64
}

// UnionAllOp concatenates the $result streams of its inputs (bag union).
type UnionAllOp struct{ Ins []Op }

// Schema implements Op.
func (o *UnionAllOp) Schema() []string { return []string{ResultVar} }

// Inputs implements Op.
func (o *UnionAllOp) Inputs() []Op { return o.Ins }
func (o *UnionAllOp) String() string {
	return fmt.Sprintf("union-all(%d)", len(o.Ins))
}

// ResultVar is the column name of the projected result value.
const ResultVar = "$result"

func (*EtsOp) Schema() []string    { return nil }
func (*EtsOp) Inputs() []Op        { return nil }
func (o *EtsOp) String() string    { return "ets" }
func (o *ScanOp) Schema() []string { return []string{o.Var} }
func (o *ScanOp) Inputs() []Op     { return nil }
func (o *ScanOp) String() string {
	s := fmt.Sprintf("scan(%s as %s)", o.Dataset, o.Var)
	return s + leafString(o.MaxTuples, o.Fields, o.Filter)
}

// leafString renders what a leaf does beyond reading: its cap, field list
// and filter, for plan text.
func leafString(maxTuples int64, fields []string, filter sqlpp.Expr) string {
	s := ""
	if maxTuples > 0 {
		s += fmt.Sprintf(" limit=%d", maxTuples)
	}
	if fields != nil {
		s += " fields=[" + strings.Join(fields, ", ") + "]"
	}
	if filter != nil {
		s += " filter=" + ExprString(filter)
	}
	return s
}

func (o *IndexSearchOp) Schema() []string { return []string{o.Var} }
func (o *IndexSearchOp) Inputs() []Op     { return nil }
func (o *IndexSearchOp) String() string {
	s := fmt.Sprintf("index-search(%s.%s %s as %s)", o.Dataset, o.Field, o.Kind, o.Var)
	if o.Lo != nil || o.Hi != nil {
		lo, hi := "-inf", "+inf"
		lb, hb := "(", ")"
		if o.Lo != nil {
			lo = ExprString(o.Lo)
			if o.LoInc {
				lb = "["
			}
		}
		if o.Hi != nil {
			hi = ExprString(o.Hi)
			if o.HiInc {
				hb = "]"
			}
		}
		s += fmt.Sprintf(" range=%s%s..%s%s", lb, lo, hi, hb)
	}
	if o.Rect != nil {
		s += " rect=" + ExprString(o.Rect)
	}
	if o.Token != nil {
		s += " token=" + ExprString(o.Token)
	}
	return s + leafString(o.MaxTuples, o.Fields, o.Filter)
}

func (o *SelectOp) Schema() []string { return o.In.Schema() }
func (o *SelectOp) Inputs() []Op     { return []Op{o.In} }
func (o *SelectOp) String() string   { return "select " + ExprString(o.Cond) }

func (o *AssignOp) Schema() []string { return append(append([]string{}, o.In.Schema()...), o.Var) }
func (o *AssignOp) Inputs() []Op     { return []Op{o.In} }
func (o *AssignOp) String() string   { return "assign " + o.Var + " := " + ExprString(o.Expr) }

func (o *UnnestOp) Schema() []string { return append(append([]string{}, o.In.Schema()...), o.Var) }
func (o *UnnestOp) Inputs() []Op     { return []Op{o.In} }
func (o *UnnestOp) String() string   { return "unnest " + o.Var + " := " + ExprString(o.Expr) }

func (o *ProjectOp) Schema() []string { return append([]string{}, o.Cols...) }
func (o *ProjectOp) Inputs() []Op     { return []Op{o.In} }
func (o *ProjectOp) String() string   { return "project [" + strings.Join(o.Cols, ", ") + "]" }

func (o *JoinOp) Schema() []string {
	if o.Kind == JoinSemi {
		return o.L.Schema()
	}
	if o.Aggs != nil {
		s := append([]string{}, o.R.Schema()...)
		for _, a := range o.Aggs {
			s = append(s, a.Var)
		}
		return s
	}
	return append(append([]string{}, o.L.Schema()...), o.R.Schema()...)
}
func (o *JoinOp) Inputs() []Op { return []Op{o.L, o.R} }
func (o *JoinOp) String() string {
	kinds := map[JoinKind]string{JoinInner: "inner", JoinLeftOuter: "left-outer", JoinSemi: "semi"}
	how := "nested-loop"
	if len(o.LeftKeys) > 0 {
		how = "hash"
	}
	s := fmt.Sprintf("join[%s,%s]", kinds[o.Kind], how)
	if len(o.LeftKeys) > 0 {
		pairs := make([]string, len(o.LeftKeys))
		for i := range o.LeftKeys {
			pairs[i] = o.LeftKeys[i] + "=" + o.RightKeys[i]
		}
		s += " keys=[" + strings.Join(pairs, ", ") + "]"
	}
	if o.On != nil {
		s += " on=" + ExprString(o.On)
	}
	if o.Aggs != nil {
		parts := make([]string, len(o.Aggs))
		for i, a := range o.Aggs {
			parts[i] = aggString(a)
		}
		s += " aggs=[" + strings.Join(parts, ", ") + "]"
	}
	return s
}

// aggString renders one aggregate for plan text: var:=fn(arg).
func aggString(a AggRef) string {
	arg := "*"
	if !a.Star {
		arg = ExprString(a.Arg)
	}
	return fmt.Sprintf("%s:=%s(%s)", a.Var, a.Fn, arg)
}

func (o *GroupOp) Schema() []string {
	var s []string
	for _, k := range o.Keys {
		s = append(s, k.Var)
	}
	for _, a := range o.Aggs {
		s = append(s, a.Var)
	}
	if o.GroupAs != "" {
		s = append(s, o.GroupAs)
	}
	return s
}
func (o *GroupOp) Inputs() []Op { return []Op{o.In} }
func (o *GroupOp) String() string {
	var parts []string
	for _, k := range o.Keys {
		parts = append(parts, k.Var+":="+ExprString(k.Expr))
	}
	for _, a := range o.Aggs {
		parts = append(parts, aggString(a))
	}
	s := fmt.Sprintf("group-by(%d keys, %d aggs)", len(o.Keys), len(o.Aggs))
	if o.Merge {
		s += " merge"
	}
	if len(parts) > 0 {
		s += " [" + strings.Join(parts, ", ") + "]"
	}
	if o.GroupAs != "" {
		s += " as " + o.GroupAs
	}
	return s
}

func (o *ResultOp) Schema() []string { return append(append([]string{}, o.In.Schema()...), ResultVar) }
func (o *ResultOp) Inputs() []Op     { return []Op{o.In} }
func (o *ResultOp) String() string   { return "result " + ExprString(o.Expr) }

func (o *DistinctOp) Schema() []string { return []string{ResultVar} }
func (o *DistinctOp) Inputs() []Op     { return []Op{o.In} }
func (o *DistinctOp) String() string   { return "distinct" }

func (o *OrderOp) Schema() []string { return o.In.Schema() }
func (o *OrderOp) Inputs() []Op     { return []Op{o.In} }
func (o *OrderOp) String() string {
	items := make([]string, len(o.Items))
	for i, it := range o.Items {
		items[i] = ExprString(it.Expr)
		if it.Desc {
			items[i] += " desc"
		}
	}
	s := fmt.Sprintf("order(%s)", strings.Join(items, ", "))
	if o.Limit > 0 {
		s += fmt.Sprintf(" limit=%d", o.Limit)
	}
	return s
}

func (o *LimitOp) Schema() []string { return o.In.Schema() }
func (o *LimitOp) Inputs() []Op     { return []Op{o.In} }
func (o *LimitOp) String() string   { return fmt.Sprintf("limit(%d,%d)", o.Limit, o.Offset) }

// PlanString renders a plan tree for tests and EXPLAIN.
func PlanString(op Op) string {
	var sb strings.Builder
	var walk func(Op, int)
	walk = func(o Op, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(o.String())
		sb.WriteByte('\n')
		for _, in := range o.Inputs() {
			walk(in, depth+1)
		}
	}
	walk(op, 0)
	return sb.String()
}

// Translator lowers the AST to a logical plan.
type Translator struct {
	Ev      *Evaluator
	Catalog Catalog
	varGen  int
}

func (tr *Translator) freshVar(prefix string) string {
	tr.varGen++
	return fmt.Sprintf("$%s%d", prefix, tr.varGen)
}

// TranslateQuery lowers a top-level query body: a SELECT block or a
// UNION ALL chain of them.
func (tr *Translator) TranslateQuery(body sqlpp.Expr) (Op, error) {
	switch x := body.(type) {
	case *sqlpp.SelectExpr:
		return tr.Translate(x)
	case *sqlpp.UnionExpr:
		u := &UnionAllOp{}
		for _, b := range x.Blocks {
			sel, ok := b.(*sqlpp.SelectExpr)
			if !ok {
				return nil, fmt.Errorf("UNION ALL branches must be SELECT blocks")
			}
			in, err := tr.Translate(sel)
			if err != nil {
				return nil, err
			}
			u.Ins = append(u.Ins, in)
		}
		return u, nil
	}
	return nil, fmt.Errorf("unsupported query body %T", body)
}

// Translate lowers a top-level SELECT block.
func (tr *Translator) Translate(sel *sqlpp.SelectExpr) (Op, error) {
	var plan Op = &EtsOp{}

	// WITH bindings evaluate once per statement (constant w.r.t. the
	// data being scanned).
	baseEnv, consts := NewEnv(nil, nil, nil), map[*sqlpp.Binding]sqlpp.Expr{}
	for i, d := range declared(sel, sqlpp.BindWith) {
		w := sel.With[i]
		v, err := tr.Ev.Eval(w.Expr, baseEnv)
		if err != nil {
			return nil, fmt.Errorf("WITH %s: %w", w.Var, err)
		}
		baseEnv.Bind(w.Var, v)
		consts[d] = &sqlpp.Literal{Value: v}
		plan = &AssignOp{In: plan, Var: w.Var, Expr: consts[d]}
	}

	for _, ft := range sel.From {
		var err error
		plan, err = tr.addFromTerm(plan, ft)
		if err != nil {
			return nil, err
		}
	}
	for _, lc := range sel.Lets {
		plan = &AssignOp{In: plan, Var: lc.Var, Expr: lc.Expr}
	}
	if sel.Where != nil {
		plan = &SelectOp{In: plan, Cond: sel.Where}
	}

	projExpr, havingExpr, orderExprs, aggs := groupBlock(sel, projectionFor(sel))
	if len(sel.GroupBy) > 0 || len(aggs) > 0 {
		// Dead GROUP AS elimination: materializing each group's rows is
		// expensive; skip it when no post-group expression reads the
		// binding (AQL's with-variables often compile this way).
		groupAs := sel.GroupAs
		if groupAs != "" {
			used := map[string]bool{}
			for _, e := range append([]sqlpp.Expr{projExpr, havingExpr}, orderExprs...) {
				FreeVars(e, used)
			}
			for _, a := range aggs {
				FreeVars(a.Arg, used)
			}
			if !used[groupAs] {
				groupAs = ""
			}
		}
		g := &GroupOp{In: plan, Aggs: aggs, GroupAs: groupAs}
		for _, d := range rowVars(sel) {
			g.RowVars = append(g.RowVars, d.Name)
		}
		for _, gk := range sel.GroupBy {
			g.Keys = append(g.Keys, GroupKeyDef{Var: gk.Alias, Expr: gk.Expr})
		}
		plan = g
	}
	if havingExpr != nil {
		plan = &SelectOp{In: plan, Cond: havingExpr}
	}

	plan = &ResultOp{In: plan, Expr: projExpr}

	if sel.Select.Distinct {
		plan = &DistinctOp{In: plan}
		// Order expressions after DISTINCT can only see the result value
		// and the statement's WITH constants.
		for i, oi := range sel.OrderBy {
			orderExprs[i] = SubstituteVars(rebaseOnResult(oi.Expr, sel), consts)
		}
	}
	if len(orderExprs) > 0 {
		o := &OrderOp{In: plan}
		for i, oe := range orderExprs {
			o.Items = append(o.Items, OrderDef{Expr: oe, Desc: sel.OrderBy[i].Desc})
		}
		plan = o
	}
	if sel.Limit != nil || sel.Offset != nil {
		limit, offset, err := tr.Ev.limitOffset(sel, baseEnv)
		if err != nil {
			return nil, err
		}
		plan = &LimitOp{In: plan, Limit: limit, Offset: offset}
	}
	return plan, nil
}

// limitOffset evaluates sel's LIMIT and OFFSET in env, for the translator
// and the interpreter alike; limit is -1 without a LIMIT.
func (ev *Evaluator) limitOffset(sel *sqlpp.SelectExpr, env *Env) (limit, offset int64, err error) {
	eval := func(clause string, e sqlpp.Expr, n *int64) {
		if e == nil || err != nil {
			return
		}
		v, evalErr := ev.Eval(e, env)
		if err = evalErr; err == nil {
			var ok bool
			if *n, ok = adm.AsInt(v); !ok || *n < 0 {
				err = fmt.Errorf("%s must be a non-negative integer", clause)
			}
		}
	}
	limit = -1
	eval("LIMIT", sel.Limit, &limit)
	eval("OFFSET", sel.Offset, &offset)
	return limit, offset, err
}

// projectionFor builds the final projection expression. SELECT * is an
// object of the variables starVars says it projects, so the translator and
// the interpreter project the same fields.
func projectionFor(sel *sqlpp.SelectExpr) sqlpp.Expr {
	if sel.Select.Value != nil {
		return sel.Select.Value
	}
	obj := &sqlpp.ObjectConstructor{}
	if sel.Select.Star {
		for _, d := range starVars(sel) {
			obj.Fields = append(obj.Fields, sqlpp.ObjectField{
				Name:  &sqlpp.Literal{Value: adm.String(userName(d.Name))},
				Value: &sqlpp.VarRef{Name: d.Name, Binding: d},
			})
		}
		return obj
	}
	for _, it := range sel.Select.Items {
		obj.Fields = append(obj.Fields, sqlpp.ObjectField{
			Name:  &sqlpp.Literal{Value: adm.String(it.Alias)},
			Value: it.Expr,
		})
	}
	return obj
}

// starVars returns, in declaration order, the variables SELECT * projects:
// the WITH variables and then, if the block has a GROUP BY, its keys and
// GROUP AS, else its FROM, JOIN, UNNEST and LET variables.
func starVars(sel *sqlpp.SelectExpr) []*sqlpp.Binding {
	if len(sel.GroupBy) > 0 {
		return slices.Concat(declared(sel, sqlpp.BindWith), declared(sel, sqlpp.BindGroupKey), declared(sel, sqlpp.BindGroupAs))
	}
	return slices.Concat(declared(sel, sqlpp.BindWith), rowVars(sel))
}

// rebaseOnResult rewrites an ORDER BY expression of sel used above DISTINCT
// to read the projected result: a SELECT item's expression or alias becomes
// its field, under SELECT * each variable the star projects its field, and
// the SELECT VALUE expression the result itself. The binder rejects an
// ORDER BY that reads any other variable of the block.
func rebaseOnResult(e sqlpp.Expr, sel *sqlpp.SelectExpr) sqlpp.Expr {
	result := &sqlpp.VarRef{Name: ResultVar}
	items, fields := map[string]sqlpp.Expr{}, map[*sqlpp.Binding]sqlpp.Expr{}
	if sel.Select.Value != nil {
		items[ExprKey(sel.Select.Value)] = result
	}
	for _, item := range sel.Select.Items {
		items[ExprKey(item.Expr)] = &sqlpp.FieldAccess{Base: result, Field: item.Alias}
	}
	named := declared(sel, sqlpp.BindAlias) // the items' names, or under SELECT * the variables
	if sel.Select.Star {
		named = starVars(sel)
	}
	for _, d := range named {
		fields[d] = &sqlpp.FieldAccess{Base: result, Field: userName(d.Name)}
	}
	return SubstituteVars(SubstituteByKey(e, items), fields)
}

// addFromTerm extends the plan with one FROM term and its join/unnest
// links.
func (tr *Translator) addFromTerm(plan Op, ft sqlpp.FromTerm) (Op, error) {
	plan = tr.addSource(plan, ft.Expr, ft.Alias)
	for _, link := range ft.Links {
		switch {
		case !link.IsJoin: // UNNEST (correlated by nature)
			plan = &UnnestOp{In: plan, Var: link.Alias, Expr: link.Expr}
		case tr.usesOnly(link.Expr, nil): // a right side that reads no variable
			kind := JoinInner
			if link.Kind == sqlpp.JoinLeftOuter {
				kind = JoinLeftOuter
			}
			plan = &JoinOp{L: plan, R: tr.addSource(&EtsOp{}, link.Expr, link.Alias), Kind: kind, On: link.On}
		case link.Kind == sqlpp.JoinLeftOuter:
			return nil, fmt.Errorf("LEFT JOIN with correlated right side is not supported")
		default: // a correlated inner join: unnest + filter
			plan = &SelectOp{In: tr.addSource(plan, link.Expr, link.Alias), Cond: link.On}
		}
	}
	return plan, nil
}

// isDataset reports whether e names a dataset.
func isDataset(e sqlpp.Expr) bool {
	vr, ok := e.(*sqlpp.VarRef)
	return ok && vr.Binding != nil && vr.Binding.Kind == sqlpp.BindDataset
}

// addSource extends the current plan with a data source: an independent
// source becomes a cross join; a correlated expression becomes an unnest.
func (tr *Translator) addSource(plan Op, e sqlpp.Expr, alias string) Op {
	if isDataset(e) {
		scan := &ScanOp{Dataset: e.(*sqlpp.VarRef).Name, Var: alias}
		if isEts(plan) {
			return scan
		}
		return &JoinOp{L: plan, R: scan, Kind: JoinInner}
	}
	// Correlated with the current plan?
	free := map[string]bool{}
	FreeVars(e, free)
	correlated := false
	for _, v := range plan.Schema() {
		if free[v] {
			correlated = true
			break
		}
	}
	if correlated || isEts(plan) {
		return &UnnestOp{In: plan, Var: alias, Expr: e}
	}
	rhs := &UnnestOp{In: &EtsOp{}, Var: alias, Expr: e}
	return &JoinOp{L: plan, R: rhs, Kind: JoinInner}
}

// isEts reports whether op is the empty tuple source. A chain of assigns
// over it is a single-tuple source too, but joining one is harmless.
func isEts(op Op) bool {
	_, ok := op.(*EtsOp)
	return ok
}
