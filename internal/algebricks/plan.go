package algebricks

import (
	"encoding/json"
	"fmt"
	"strings"

	"asterix/internal/sqlpp"
)

// ExprString renders an expression in compact SQL-ish form for plan text
// (EXPLAIN output and golden plan tests). It is stable: the same
// expression always renders the same way.
func ExprString(e sqlpp.Expr) string { return exprText(e, false) }

// ExprKey renders an expression to a canonical string used for structural
// equality (matching SELECT expressions against GROUP BY keys): its text
// with each name's binding, each field name quoted and each nested block's
// identity, so that two expressions are equal only if they read the same
// declarations the same way.
func ExprKey(e sqlpp.Expr) string { return exprText(e, true) }

func exprText(e sqlpp.Expr, keyed bool) string {
	w := exprWriter{keyed: keyed}
	w.write(e)
	return w.String()
}

type exprWriter struct {
	strings.Builder
	keyed bool
}

func (w *exprWriter) write(e sqlpp.Expr) {
	switch x := e.(type) {
	case nil:
		w.WriteString("true")
	case *sqlpp.Literal:
		w.WriteString(x.Value.String())
	case *sqlpp.VarRef:
		w.WriteString(x.Name)
		if w.keyed && !isDataset(x) { // a dataset is one, however often it is named
			fmt.Fprintf(w, "#%p", x.Binding)
		}
	case *sqlpp.FieldAccess:
		w.write(x.Base)
		if w.WriteByte('.'); w.keyed { // a.`b.c` is not a.b.c
			fmt.Fprintf(w, "%q", x.Field)
		} else {
			w.WriteString(x.Field)
		}
	case *sqlpp.IndexAccess:
		w.write(x.Base)
		w.WriteByte('[')
		w.write(x.Index)
		w.WriteByte(']')
	case *sqlpp.Call:
		w.WriteString(x.Fn)
		w.WriteByte('(')
		if x.Distinct {
			w.WriteString("distinct ")
		}
		for i, a := range x.Args {
			if i > 0 {
				w.WriteString(", ")
			}
			w.write(a)
		}
		w.WriteByte(')')
	case *sqlpp.Unary:
		w.WriteString(x.Op)
		w.WriteByte(' ')
		w.write(x.X)
	case *sqlpp.Binary:
		w.WriteByte('(')
		w.write(x.L)
		w.WriteByte(' ')
		w.WriteString(x.Op)
		w.WriteByte(' ')
		w.write(x.R)
		w.WriteByte(')')
	case *sqlpp.IsExpr:
		w.WriteByte('(')
		w.write(x.X)
		w.WriteString(" is ")
		if x.Negate {
			w.WriteString("not ")
		}
		w.WriteString(x.What)
		w.WriteByte(')')
	case *sqlpp.Between:
		w.WriteByte('(')
		w.write(x.X)
		if x.Negate {
			w.WriteString(" not")
		}
		w.WriteString(" between ")
		w.write(x.Lo)
		w.WriteString(" and ")
		w.write(x.Hi)
		w.WriteByte(')')
	case *sqlpp.InExpr:
		w.WriteByte('(')
		w.write(x.X)
		if x.Negate {
			w.WriteString(" not")
		}
		w.WriteString(" in ")
		w.write(x.Coll)
		w.WriteByte(')')
	case *sqlpp.CaseExpr:
		w.WriteString("case")
		if x.Operand != nil {
			w.WriteByte(' ')
			w.write(x.Operand)
		}
		for _, wt := range x.Whens {
			w.WriteString(" when ")
			w.write(wt.When)
			w.WriteString(" then ")
			w.write(wt.Then)
		}
		if x.Else != nil {
			w.WriteString(" else ")
			w.write(x.Else)
		}
		w.WriteString(" end")
	case *sqlpp.QuantifiedExpr:
		if x.Some {
			w.WriteString("some ")
		} else {
			w.WriteString("every ")
		}
		w.WriteString(x.Var)
		w.WriteString(" in ")
		w.write(x.In)
		w.WriteString(" satisfies ")
		w.write(x.Satisfies)
	case *sqlpp.ExistsExpr:
		if x.Negate {
			w.WriteString("not ")
		}
		w.WriteString("exists ")
		w.write(x.X)
	case *sqlpp.ObjectConstructor:
		w.WriteByte('{')
		for i, f := range x.Fields {
			if i > 0 {
				w.WriteString(", ")
			}
			w.write(f.Name)
			w.WriteString(": ")
			w.write(f.Value)
		}
		w.WriteByte('}')
	case *sqlpp.ArrayConstructor:
		w.WriteByte('[')
		for i, el := range x.Elems {
			if i > 0 {
				w.WriteString(", ")
			}
			w.write(el)
		}
		w.WriteByte(']')
	case *sqlpp.MultisetConstructor:
		w.WriteString("{{")
		for i, el := range x.Elems {
			if i > 0 {
				w.WriteString(", ")
			}
			w.write(el)
		}
		w.WriteString("}}")
	case *sqlpp.SelectExpr, *sqlpp.UnionExpr:
		if w.keyed { // nested blocks compare by identity
			fmt.Fprintf(w, "(%p)", x)
		} else if _, ok := x.(*sqlpp.SelectExpr); ok {
			w.WriteString("(subquery)")
		} else {
			w.WriteString("(union)")
		}
	default:
		fmt.Fprintf(w, "?%T", e)
	}
}

// PlanNode is the JSON form of one plan operator, exposed through EXPLAIN
// and "profile":"plan".
type PlanNode struct {
	Op      string      `json:"op"`
	Detail  string      `json:"detail,omitempty"`
	Columns []string    `json:"columns,omitempty"`
	Inputs  []*PlanNode `json:"inputs,omitempty"`
}

// opKind returns a stable one-token name for the operator type.
func opKind(op Op) string {
	switch op.(type) {
	case *EtsOp:
		return "ets"
	case *ScanOp:
		return "scan"
	case *IndexSearchOp:
		return "index-search"
	case *SelectOp:
		return "select"
	case *AssignOp:
		return "assign"
	case *UnnestOp:
		return "unnest"
	case *ProjectOp:
		return "project"
	case *JoinOp:
		return "join"
	case *GroupOp:
		return "group-by"
	case *ResultOp:
		return "result"
	case *DistinctOp:
		return "distinct"
	case *OrderOp:
		return "order"
	case *LimitOp:
		return "limit"
	case *UnionAllOp:
		return "union-all"
	}
	return fmt.Sprintf("%T", op)
}

// PlanTree converts a plan to its JSON-ready node form.
func PlanTree(op Op) *PlanNode {
	n := &PlanNode{
		Op:      opKind(op),
		Detail:  op.String(),
		Columns: append([]string{}, op.Schema()...),
	}
	for _, in := range op.Inputs() {
		n.Inputs = append(n.Inputs, PlanTree(in))
	}
	return n
}

// PlanJSON renders a plan as a stable JSON tree.
func PlanJSON(op Op) string {
	b, err := json.Marshal(PlanTree(op))
	if err != nil {
		return `{"op":"error"}`
	}
	return string(b)
}
