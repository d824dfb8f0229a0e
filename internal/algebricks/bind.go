package algebricks

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"asterix/internal/sqlpp"
)

// Bind resolves every name of a statement body once, in place, between parse
// and translation: each VarRef gets the Binding that declares it, each block
// its Decls and Correlation, and a name nothing declares fails here, before a
// row is read; so does a call of a function the table does not hold, or with
// an argument count it does not take. Binding a bound body again changes
// nothing.
//
// Scope, as both engines evaluate a block: WITH items, FROM terms, JOINs,
// UNNESTs and LETs each see the ones before them (a JOIN's ON its own alias
// too); WHERE and the GROUP BY keys see them all; in a grouped block HAVING,
// SELECT and ORDER BY see the keys and GROUP AS first, then the FROM and LET
// names (a key's expression or an aggregate's argument reads them); ORDER BY
// sees the SELECT aliases before all else; LIMIT and OFFSET only the WITH
// items. A quantifier's body sees its variable. Any other name is a dataset
// of the catalog, or an error.
//
// A declaration that hides a name of an enclosing scope is renamed (name`n,
// which no identifier can spell), so that a lookup by name at run time finds
// the binding chosen here and an expression moved into an inner scope (a
// group key's variable, an inlined alias) is never captured there. SELECT *
// and GROUP AS fields keep the written name (userName).
func Bind(e sqlpp.Expr, cat Catalog) error {
	b := &binder{cat: cat, scope: make([]decl, 0, 16)}
	b.visit = func(c sqlpp.Expr) sqlpp.Expr { b.expr(c); return c }
	b.expr(e)
	return b.err
}

type binder struct {
	cat     Catalog
	scope   []decl            // the declarations in scope, innermost last
	block   *sqlpp.SelectExpr // the innermost block
	visit   func(sqlpp.Expr) sqlpp.Expr
	renamed int
	err     error
}

// decl is one declaration in scope under the name the source wrote.
type decl struct {
	name string
	b    *sqlpp.Binding
}

func (b *binder) expr(e sqlpp.Expr) {
	switch x := e.(type) {
	case *sqlpp.VarRef:
		if x.Binding = b.lookup(x.Name); x.Binding != nil {
			x.Name = x.Binding.Name
		}
	case *sqlpp.SelectExpr:
		b.selectBlock(x)
	case *sqlpp.QuantifiedExpr:
		b.expr(x.In)
		mark := len(b.scope)
		b.declare(&x.Var, sqlpp.BindQuantifier, mark)
		b.expr(x.Satisfies)
		b.scope = b.scope[:mark]
	case nil, *sqlpp.Literal: // most of an INSERT payload
	case *sqlpp.Call:
		// A call resolves against the function table, as the evaluator
		// would at the first row to reach it; an aggregate takes any
		// arguments.
		if err := builtins[x.Fn].check(x.Fn, len(x.Args)); err != nil && b.err == nil && !sqlpp.IsAggregate(x.Fn) {
			b.err = err
		}
		sqlpp.RewriteScopes(e, b.visit)
	default:
		sqlpp.RewriteScopes(e, b.visit)
	}
}

// lookup resolves a name: the innermost declaration, else a dataset.
func (b *binder) lookup(name string) *sqlpp.Binding {
	for i := len(b.scope) - 1; i >= 0; i-- {
		if b.scope[i].name == name {
			return b.scope[i].b
		}
	}
	if b.cat != nil {
		if _, ok := b.cat.Resolve(name); ok {
			return &sqlpp.Binding{Name: name, Kind: sqlpp.BindDataset}
		}
	}
	if b.err == nil {
		b.err = evalErrf("undefined variable %q", name)
	}
	return nil
}

// declare brings *name into scope, renamed if it hides a declaration below
// outside (where the declaring scope starts), and onto the block's Decls.
func (b *binder) declare(name *string, kind sqlpp.BindKind, outside int) {
	written := *name
	if slices.ContainsFunc(b.scope[:outside], func(d decl) bool { return d.name == written }) {
		b.renamed++
		*name = userName(written) + "`" + strconv.Itoa(b.renamed)
	}
	bd := &sqlpp.Binding{Name: *name, Kind: kind, Block: b.block}
	b.scope = append(b.scope, decl{written, bd})
	if b.block != nil {
		b.block.Decls = append(b.block.Decls, bd)
	}
}

func (b *binder) selectBlock(sel *sqlpp.SelectExpr) {
	outer, base := b.block, len(b.scope)
	room := len(sel.With) + len(sel.From) + len(sel.Lets) + len(sel.GroupBy) + 1 + len(sel.Select.Items)
	b.block, sel.Decls = sel, make([]*sqlpp.Binding, 0, room) // a JOIN or a quantifier may grow it
	for i := range sel.With {
		b.expr(sel.With[i].Expr)
		b.declare(&sel.With[i].Var, sqlpp.BindWith, base)
	}
	withs := len(b.scope)
	for i := range sel.From {
		ft := &sel.From[i]
		b.expr(ft.Expr)
		b.declare(&ft.Alias, sqlpp.BindFrom, base)
		for j := range ft.Links {
			b.expr(ft.Links[j].Expr)
			b.declare(&ft.Links[j].Alias, sqlpp.BindFrom, base)
			b.expr(ft.Links[j].On)
		}
	}
	for i := range sel.Lets {
		b.expr(sel.Lets[i].Expr)
		b.declare(&sel.Lets[i].Var, sqlpp.BindLet, base)
	}
	b.expr(sel.Where)
	for i := range sel.GroupBy {
		b.expr(sel.GroupBy[i].Expr)
	}
	for i := range sel.GroupBy {
		b.declare(&sel.GroupBy[i].Alias, sqlpp.BindGroupKey, base)
	}
	if len(sel.GroupBy) > 0 && sel.GroupAs != "" {
		b.declare(&sel.GroupAs, sqlpp.BindGroupAs, base)
	}
	b.expr(sel.Having)
	b.expr(sel.Select.Value)
	for _, it := range sel.Select.Items {
		b.expr(it.Expr)
	}
	for i, it := range sel.Select.Items {
		if it.Alias != "" {
			b.declare(&sel.Select.Items[i].Alias, sqlpp.BindAlias, 0) // a field name: never renamed
		}
	}
	for _, oi := range sel.OrderBy {
		b.expr(oi.Expr)
	}
	b.scope = b.scope[:withs]
	b.expr(sel.Limit)
	b.expr(sel.Offset)
	b.scope, b.block = b.scope[:base], outer
	if outer != nil { // what encloses an outermost block is the catalog only
		sel.Correlation = correlation(sel)
	}
	if sel.Select.Distinct {
		b.distinctOrder(sel)
	}
	if len(sel.GroupBy) > 0 {
		b.groupedReads(sel)
	}
}

// groupedReads checks what a grouped block reads after grouping: a row
// variable only inside a group key's expression or an aggregate's
// argument, which grouping turns into the key's or the aggregate's value.
// Any other read has no row to read, so it fails here, before a job runs.
func (b *binder) groupedReads(sel *sqlpp.SelectExpr) {
	proj, having, order, _ := groupBlock(sel, projectionFor(sel))
	read := map[*sqlpp.Binding]bool{}
	var visit func(sqlpp.Expr) sqlpp.Expr
	visit = func(e sqlpp.Expr) sqlpp.Expr {
		switch x := e.(type) {
		case *sqlpp.VarRef:
			read[x.Binding] = true
		case *sqlpp.SelectExpr:
			for _, bd := range x.Correlation {
				read[bd] = true
			}
		case nil:
		default:
			sqlpp.RewriteScopes(e, visit)
		}
		return e
	}
	for _, e := range append([]sqlpp.Expr{proj, having}, order...) {
		visit(e)
	}
	for _, d := range rowVars(sel) {
		if read[d] && b.err == nil {
			b.err = evalErrf("%q is read after GROUP BY outside a group key and an aggregate", userName(d.Name))
		}
	}
}

// distinctOrder checks a DISTINCT block's ORDER BY, which reads the result:
// a variable of the block that the result does not project is out of scope.
func (b *binder) distinctOrder(sel *sqlpp.SelectExpr) {
	for _, oi := range sel.OrderBy {
		free := map[string]bool{}
		FreeVars(rebaseOnResult(oi.Expr, sel), free)
		for _, d := range sel.Decls {
			if d.Kind != sqlpp.BindWith && d.Kind != sqlpp.BindAlias && d.Kind != sqlpp.BindQuantifier && free[d.Name] && b.err == nil {
				b.err = fmt.Errorf("ORDER BY reads %q, which SELECT DISTINCT does not project", userName(d.Name))
			}
		}
	}
}

// correlation lists what sel reads from outside itself: the bindings its
// clauses and nested blocks read that it does not declare. A name without a
// binding is a column the plan binds (outer).
func correlation(sel *sqlpp.SelectExpr) []*sqlpp.Binding {
	var out []*sqlpp.Binding
	add := func(bd *sqlpp.Binding) {
		if !slices.Contains(sel.Decls, bd) && !slices.ContainsFunc(out, func(o *sqlpp.Binding) bool { return o.Name == bd.Name }) {
			out = append(out, bd)
		}
	}
	var visit func(sqlpp.Expr) sqlpp.Expr
	visit = func(e sqlpp.Expr) sqlpp.Expr {
		switch x := e.(type) {
		case *sqlpp.VarRef:
			bd := x.Binding
			if bd == nil {
				bd = &sqlpp.Binding{Name: x.Name, Kind: sqlpp.BindOuter}
			}
			add(bd)
		case *sqlpp.SelectExpr:
			for _, bd := range x.Correlation {
				add(bd)
			}
		default:
			sqlpp.RewriteScopes(e, visit)
		}
		return e
	}
	sqlpp.RewriteScopes(sel, visit)
	return out
}

// rowVars returns sel's FROM, JOIN, UNNEST and LET declarations, in order:
// what one row of the block binds, and what a GROUP AS element holds.
func rowVars(sel *sqlpp.SelectExpr) []*sqlpp.Binding {
	return slices.Concat(declared(sel, sqlpp.BindFrom), declared(sel, sqlpp.BindLet))
}

// declared returns sel's declarations of kind k, in order.
func declared(sel *sqlpp.SelectExpr, k sqlpp.BindKind) []*sqlpp.Binding {
	var out []*sqlpp.Binding
	for _, d := range sel.Decls {
		if d.Kind == k {
			out = append(out, d)
		}
	}
	return out
}

// userName is the name a declaration was written with.
func userName(name string) string {
	if i := strings.IndexByte(name, '`'); i >= 0 {
		return name[:i]
	}
	return name
}
