package sqlpp

import "slices"

// The expression walker. slots below is the one place that lists an
// expression's children; Children and Rewrite are built on it, and every
// analysis or rewrite of expressions elsewhere keeps only the cases that
// give its own kinds a meaning.
//
// Scope rule: a child is listed when it is evaluated in the node's own
// scope. A SELECT block, a UNION of blocks, an EXISTS and a quantifier's
// SATISFIES body are opaque — they list no children, and a walker that
// must enter them does so itself, minding the names they bind. A
// quantifier's IN is evaluated in the enclosing scope and is listed.

// slots appends the addresses of e's child fields, in source order, absent
// clauses (a nil CASE operand or ELSE) included. With clone set it first
// makes a shallow copy of e, slices included, and returns the copy with the
// copy's slots; otherwise it returns e.
func slots(e Expr, clone bool, buf []*Expr) (Expr, []*Expr) {
	switch x := e.(type) {
	case *FieldAccess:
		x = copyIf(x, clone)
		return x, append(buf, &x.Base)
	case *IndexAccess:
		x = copyIf(x, clone)
		return x, append(buf, &x.Base, &x.Index)
	case *Call:
		if x = copyIf(x, clone); clone {
			x.Args = slices.Clone(x.Args)
		}
		return x, appendSlots(buf, x.Args)
	case *Unary:
		x = copyIf(x, clone)
		return x, append(buf, &x.X)
	case *Binary:
		x = copyIf(x, clone)
		return x, append(buf, &x.L, &x.R)
	case *IsExpr:
		x = copyIf(x, clone)
		return x, append(buf, &x.X)
	case *Between:
		x = copyIf(x, clone)
		return x, append(buf, &x.X, &x.Lo, &x.Hi)
	case *InExpr:
		x = copyIf(x, clone)
		return x, append(buf, &x.X, &x.Coll)
	case *CaseExpr:
		if x = copyIf(x, clone); clone {
			x.Whens = slices.Clone(x.Whens)
		}
		buf = append(buf, &x.Operand)
		for i := range x.Whens {
			buf = append(buf, &x.Whens[i].When, &x.Whens[i].Then)
		}
		return x, append(buf, &x.Else)
	case *QuantifiedExpr:
		x = copyIf(x, clone)
		return x, append(buf, &x.In)
	case *ObjectConstructor:
		if x = copyIf(x, clone); clone {
			x.Fields = slices.Clone(x.Fields)
		}
		for i := range x.Fields {
			buf = append(buf, &x.Fields[i].Name, &x.Fields[i].Value)
		}
		return x, buf
	case *ArrayConstructor:
		if x = copyIf(x, clone); clone {
			x.Elems = slices.Clone(x.Elems)
		}
		return x, appendSlots(buf, x.Elems)
	case *MultisetConstructor:
		if x = copyIf(x, clone); clone {
			x.Elems = slices.Clone(x.Elems)
		}
		return x, appendSlots(buf, x.Elems)
	}
	return e, buf // Literal, VarRef and the opaque nodes
}

func copyIf[T any](x *T, clone bool) *T {
	if !clone {
		return x
	}
	c := *x
	return &c
}

func appendSlots(buf []*Expr, xs []Expr) []*Expr {
	for i := range xs {
		buf = append(buf, &xs[i])
	}
	return buf
}

// Children appends e's children (see the scope rule above; absent clauses
// are skipped) to buf and returns it. buf is usually a caller's stack
// scratch, so the common nodes cost no allocation.
func Children(e Expr, buf []Expr) []Expr {
	var sb [8]*Expr
	_, ss := slots(e, false, sb[:0])
	for _, s := range ss {
		if *s != nil {
			buf = append(buf, *s)
		}
	}
	return buf
}

// Rewrite returns e with each child c that Children lists replaced by
// f(c). It copies on write: when f returns every child unchanged, e itself
// is returned; otherwise a shallow copy of e holding the new children.
// Neither e nor any node under it is modified.
func Rewrite(e Expr, f func(Expr) Expr) Expr {
	var sb [8]*Expr
	_, ss := slots(e, false, sb[:0])
	var out Expr
	var outSlots []*Expr
	for i, s := range ss {
		if *s == nil {
			continue
		}
		if c := f(*s); c != *s {
			if out == nil {
				out, outSlots = slots(e, true, make([]*Expr, 0, len(ss)))
			}
			*outSlots[i] = c
		}
	}
	if out == nil {
		return e
	}
	return out
}
