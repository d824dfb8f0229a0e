package algebricks

import (
	"fmt"
	"strings"

	"asterix/internal/sqlpp"
)

// ExprKey renders an expression to a canonical string used for structural
// equality (matching SELECT expressions against GROUP BY keys).
func ExprKey(e sqlpp.Expr) string {
	var sb strings.Builder
	writeExprKey(&sb, e)
	return sb.String()
}

func writeExprKey(sb *strings.Builder, e sqlpp.Expr) {
	switch x := e.(type) {
	case *sqlpp.Literal:
		fmt.Fprintf(sb, "lit(%s)", x.Value.String())
	case *sqlpp.VarRef:
		fmt.Fprintf(sb, "var(%s)", x.Name)
	case *sqlpp.FieldAccess:
		sb.WriteString("field(")
		writeExprKey(sb, x.Base)
		fmt.Fprintf(sb, ",%s)", x.Field)
	case *sqlpp.IndexAccess:
		sb.WriteString("index(")
		writeExprKey(sb, x.Base)
		sb.WriteByte(',')
		writeExprKey(sb, x.Index)
		sb.WriteByte(')')
	case *sqlpp.Call:
		fmt.Fprintf(sb, "call(%s,%v", x.Fn, x.Distinct)
		for _, a := range x.Args {
			sb.WriteByte(',')
			writeExprKey(sb, a)
		}
		sb.WriteByte(')')
	case *sqlpp.Unary:
		fmt.Fprintf(sb, "un(%s,", x.Op)
		writeExprKey(sb, x.X)
		sb.WriteByte(')')
	case *sqlpp.Binary:
		fmt.Fprintf(sb, "bin(%s,", x.Op)
		writeExprKey(sb, x.L)
		sb.WriteByte(',')
		writeExprKey(sb, x.R)
		sb.WriteByte(')')
	case *sqlpp.IsExpr:
		fmt.Fprintf(sb, "is(%s,%v,", x.What, x.Negate)
		writeExprKey(sb, x.X)
		sb.WriteByte(')')
	case *sqlpp.Between:
		fmt.Fprintf(sb, "between(%v,", x.Negate)
		writeExprKey(sb, x.X)
		sb.WriteByte(',')
		writeExprKey(sb, x.Lo)
		sb.WriteByte(',')
		writeExprKey(sb, x.Hi)
		sb.WriteByte(')')
	case *sqlpp.InExpr:
		fmt.Fprintf(sb, "in(%v,", x.Negate)
		writeExprKey(sb, x.X)
		sb.WriteByte(',')
		writeExprKey(sb, x.Coll)
		sb.WriteByte(')')
	case *sqlpp.CaseExpr:
		sb.WriteString("case(")
		if x.Operand != nil {
			writeExprKey(sb, x.Operand)
		}
		for _, wt := range x.Whens {
			sb.WriteByte(';')
			writeExprKey(sb, wt.When)
			sb.WriteByte(':')
			writeExprKey(sb, wt.Then)
		}
		if x.Else != nil {
			sb.WriteString(";else:")
			writeExprKey(sb, x.Else)
		}
		sb.WriteByte(')')
	case *sqlpp.QuantifiedExpr:
		fmt.Fprintf(sb, "quant(%v,%s,", x.Some, x.Var)
		writeExprKey(sb, x.In)
		sb.WriteByte(',')
		writeExprKey(sb, x.Satisfies)
		sb.WriteByte(')')
	case *sqlpp.ExistsExpr:
		fmt.Fprintf(sb, "exists(%v,", x.Negate)
		writeExprKey(sb, x.X)
		sb.WriteByte(')')
	case *sqlpp.ObjectConstructor:
		sb.WriteString("obj(")
		for _, f := range x.Fields {
			writeExprKey(sb, f.Name)
			sb.WriteByte(':')
			writeExprKey(sb, f.Value)
			sb.WriteByte(';')
		}
		sb.WriteByte(')')
	case *sqlpp.ArrayConstructor:
		sb.WriteString("arr(")
		for _, el := range x.Elems {
			writeExprKey(sb, el)
			sb.WriteByte(';')
		}
		sb.WriteByte(')')
	case *sqlpp.MultisetConstructor:
		sb.WriteString("mset(")
		for _, el := range x.Elems {
			writeExprKey(sb, el)
			sb.WriteByte(';')
		}
		sb.WriteByte(')')
	case *sqlpp.SelectExpr:
		fmt.Fprintf(sb, "select(%p)", x) // nested blocks compare by identity
	default:
		fmt.Fprintf(sb, "?%T", e)
	}
}

// SubstituteByKey replaces any subexpression whose canonical key appears
// in repl with the mapped expression (outermost match wins); used to
// rewrite group-key expressions to their key variables after grouping.
func SubstituteByKey(e sqlpp.Expr, repl map[string]sqlpp.Expr) sqlpp.Expr {
	if r, ok := repl[ExprKey(e)]; ok {
		return r
	}
	return sqlpp.Rewrite(e, func(c sqlpp.Expr) sqlpp.Expr { return SubstituteByKey(c, repl) })
}

// groupKeyRewrites builds the substitution map key-expr → key-var for a
// grouped block.
func groupKeyRewrites(sel *sqlpp.SelectExpr) map[string]sqlpp.Expr {
	repl := map[string]sqlpp.Expr{}
	for _, gk := range sel.GroupBy {
		repl[ExprKey(gk.Expr)] = &sqlpp.VarRef{Name: gk.Alias}
	}
	return repl
}
