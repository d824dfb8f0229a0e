// Package aql implements the deprecated AQL query language as a peer of
// SQL++: a FLWOR-style (FOR/LET/WHERE/GROUP BY/ORDER BY/LIMIT/RETURN)
// front end that lowers to the same AST as SQL++ and therefore shares the
// entire Algebricks compilation pipeline and Hyracks runtime — exactly how
// the paper describes SQL++ being "implemented fairly quickly as a peer of
// AQL". AQL came first historically; here the lowering runs the other way,
// which preserves the architectural point: two syntaxes, one algebra.
package aql

import (
	"fmt"
	"slices"
	"strings"

	"asterix/internal/adm"
	"asterix/internal/sqlpp"
)

// Parse parses an AQL query into the shared SQL++ AST. Supported clauses:
//
//	for $v in dataset Name | for $v in expr
//	let $x := expr
//	where expr
//	group by $k := expr with $v
//	order by expr [desc]
//	limit expr
//	distinct? return expr
//
// Multiple for clauses form a cross product, exactly like SQL++ FROM
// terms.
func Parse(src string) (*sqlpp.QueryStmt, error) {
	p, err := sqlpp.NewParser(src)
	if err != nil {
		return nil, err
	}
	sel := &sqlpp.SelectExpr{}
	sawFor := false

	// withVars maps AQL "with" variables to the GROUP AS binding.
	var withVars []string
	const groupAsName = "$aql_group"

	for {
		switch {
		case p.PeekKeyword("FOR"):
			p.AcceptKeyword("FOR")
			sawFor = true
			v, err := parseVar(p)
			if err != nil {
				return nil, err
			}
			if err := p.ExpectKeyword("IN"); err != nil {
				return nil, err
			}
			src, err := parseForSource(p)
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, sqlpp.FromTerm{Expr: src, Alias: v})

		case p.PeekKeyword("LET"):
			p.AcceptKeyword("LET")
			v, err := parseVar(p)
			if err != nil {
				return nil, err
			}
			if err := expectAssign(p); err != nil {
				return nil, err
			}
			e, err := p.ParseExpression()
			if err != nil {
				return nil, err
			}
			sel.Lets = append(sel.Lets, sqlpp.LetClause{Var: v, Expr: e})

		case p.PeekKeyword("WHERE"):
			p.AcceptKeyword("WHERE")
			e, err := p.ParseExpression()
			if err != nil {
				return nil, err
			}
			if sel.Where == nil {
				sel.Where = e
			} else {
				sel.Where = &sqlpp.Binary{Op: "AND", L: sel.Where, R: e}
			}

		case p.PeekKeyword("GROUP"):
			p.AcceptKeyword("GROUP")
			if err := p.ExpectKeyword("BY"); err != nil {
				return nil, err
			}
			for {
				v, err := parseVar(p)
				if err != nil {
					return nil, err
				}
				if err := expectAssign(p); err != nil {
					return nil, err
				}
				e, err := p.ParseExpression()
				if err != nil {
					return nil, err
				}
				sel.GroupBy = append(sel.GroupBy, sqlpp.GroupKey{Expr: e, Alias: v})
				if !p.AcceptOperator(",") {
					break
				}
			}
			if p.PeekKeyword("WITH") {
				p.AcceptKeyword("WITH")
				for {
					v, err := parseVar(p)
					if err != nil {
						return nil, err
					}
					withVars = append(withVars, v)
					if !p.AcceptOperator(",") {
						break
					}
				}
				sel.GroupAs = groupAsName
			}

		case p.PeekKeyword("ORDER"):
			p.AcceptKeyword("ORDER")
			if err := p.ExpectKeyword("BY"); err != nil {
				return nil, err
			}
			for {
				e, err := p.ParseExpression()
				if err != nil {
					return nil, err
				}
				item := sqlpp.OrderItem{Expr: e}
				if p.AcceptKeyword("DESC") {
					item.Desc = true
				} else {
					p.AcceptKeyword("ASC")
				}
				sel.OrderBy = append(sel.OrderBy, item)
				if !p.AcceptOperator(",") {
					break
				}
			}

		case p.PeekKeyword("LIMIT"):
			p.AcceptKeyword("LIMIT")
			e, err := p.ParseExpression()
			if err != nil {
				return nil, err
			}
			sel.Limit = e

		case p.PeekKeyword("DISTINCT"):
			p.AcceptKeyword("DISTINCT")
			if !p.PeekKeyword("RETURN") {
				return nil, p.Errorf("DISTINCT must immediately precede RETURN")
			}
			sel.Select.Distinct = true

		case p.PeekKeyword("RETURN"):
			p.AcceptKeyword("RETURN")
			e, err := p.ParseExpression()
			if err != nil {
				return nil, err
			}
			p.AcceptOperator(";")
			if !p.AtEOF() {
				return nil, p.Errorf("trailing input after RETURN expression")
			}
			if !sawFor {
				return nil, fmt.Errorf("aql: query requires at least one FOR clause")
			}
			if len(withVars) > 0 {
				e = rewriteWithVars(e, withVars, groupAsName)
				for i := range sel.OrderBy {
					sel.OrderBy[i].Expr = rewriteWithVars(sel.OrderBy[i].Expr, withVars, groupAsName)
				}
			}
			sel.Select.Value = e
			return &sqlpp.QueryStmt{Body: sel}, nil

		default:
			return nil, p.Errorf("unexpected token in AQL query")
		}
	}
}

// parseVar parses $name (the lexer treats $name as one identifier).
func parseVar(p *sqlpp.Parser) (string, error) {
	name, err := p.ParseIdentifier()
	if err != nil {
		return "", err
	}
	if !strings.HasPrefix(name, "$") {
		return "", fmt.Errorf("aql: variables start with '$', got %q", name)
	}
	return name, nil
}

// parseForSource parses `dataset Name`, `dataset("Name")`, or a general
// expression.
func parseForSource(p *sqlpp.Parser) (sqlpp.Expr, error) {
	if p.PeekKeyword("DATASET") || p.PeekIdent("dataset") {
		if !p.AcceptKeyword("DATASET") {
			if _, err := p.ParseIdentifier(); err != nil {
				return nil, err
			}
		}
		if p.AcceptOperator("(") {
			e, err := p.ParseExpression()
			if err != nil {
				return nil, err
			}
			if err := p.ExpectOperator(")"); err != nil {
				return nil, err
			}
			if lit, ok := e.(*sqlpp.Literal); ok {
				return &sqlpp.VarRef{Name: litString(lit)}, nil
			}
			return nil, fmt.Errorf("aql: dataset() requires a string literal")
		}
		name, err := p.ParseIdentifier()
		if err != nil {
			return nil, err
		}
		return &sqlpp.VarRef{Name: name}, nil
	}
	return p.ParseExpression()
}

func litString(l *sqlpp.Literal) string {
	if s, ok := l.Value.(adm.String); ok {
		return string(s)
	}
	return ""
}

// expectAssign consumes ":=".
func expectAssign(p *sqlpp.Parser) error {
	if err := p.ExpectOperator(":"); err != nil {
		return err
	}
	return p.ExpectOperator("=")
}

// isSQLAggregate mirrors the SQL++ aggregate set (kept local to avoid a
// front-end dependency on the compiler package).
func isSQLAggregate(fn string) bool {
	switch fn {
	case "count", "sum", "min", "max", "avg", "array_agg":
		return true
	}
	return false
}

// rewriteWithVars rewrites post-group references to a grouped variable $v
// into field_collect(groupAs, "$v") — the array of $v's values within the
// group (AQL's "with" semantics on top of SQL++'s GROUP AS).
func rewriteWithVars(e sqlpp.Expr, withVars []string, groupAs string) sqlpp.Expr {
	var rw func(sqlpp.Expr) sqlpp.Expr
	rw = func(e sqlpp.Expr) sqlpp.Expr {
		switch x := e.(type) {
		case *sqlpp.VarRef:
			if slices.Contains(withVars, x.Name) {
				return &sqlpp.Call{Fn: "field_collect", Args: []sqlpp.Expr{
					&sqlpp.VarRef{Name: groupAs},
					&sqlpp.Literal{Value: adm.String(x.Name)},
				}}
			}
		case *sqlpp.Call:
			// A SQL-style aggregate applied directly to a grouped
			// variable stays an aggregate over the pre-group rows
			// (count($m) → COUNT(m)); only non-aggregate uses read the
			// GROUP AS collection.
			if isSQLAggregate(x.Fn) && len(x.Args) == 1 {
				if vr, ok := x.Args[0].(*sqlpp.VarRef); ok && slices.Contains(withVars, vr.Name) {
					return x
				}
			}
		case *sqlpp.QuantifiedExpr:
			// The body binds Var, which shadows a grouped variable of
			// that name.
			q := *x
			q.In = rw(x.In)
			q.Satisfies = rewriteWithVars(x.Satisfies,
				slices.DeleteFunc(slices.Clone(withVars), func(v string) bool { return v == x.Var }), groupAs)
			return &q
		}
		return sqlpp.Rewrite(e, rw)
	}
	return rw(e)
}
