package algebricks

import (
	"asterix/internal/adm"
	"asterix/internal/hyracks"
	"asterix/internal/sqlpp"
)

// This file is the expression half of job generation: each sqlpp.Expr an
// operator evaluates per tuple is turned, once per job, into a closure over
// the tuple's columns. Names are resolved to column positions, operator
// strings to the kernels of eval.go, a constant LIKE pattern to a prepared
// matcher, and a subtree that reads no column to its value. What runs per
// tuple is the same kernels Eval calls, in the same order, with the same
// short circuits — Eval stays the reference, and a subtree that binds
// variables or needs the catalog (a SELECT block, a quantifier, a name that
// is not a column) is handed to Eval itself, over an Env built from the
// tuple, rather than compiled a second way.

// valueFn is a compiled expression over one tuple (r is nil) or, for a join
// predicate, over a left and a right tuple that are never concatenated.
type valueFn func(l, r hyracks.Tuple) (adm.Value, error)

// code is one compiled subtree: a closure or, when the subtree reads no
// column, needs no Env and evaluating it at build time worked, its value.
type code struct {
	fn  valueFn
	lit adm.Value
}

func (c code) run() valueFn {
	if c.fn != nil {
		return c.fn
	}
	v := c.lit
	return func(_, _ hyracks.Tuple) (adm.Value, error) { return v, nil }
}

// fold replaces an operator over constant operands by its value: one value
// for every tuple of every partition, which is sound because a value is
// never modified once it is in a tuple (see hyracks.Tuple). If computing it
// fails, the closure stays and fails per tuple, as the interpreter would:
// a query over empty input must not start failing at build time.
func fold(fn valueFn, operands ...code) code {
	for _, o := range operands {
		if o.lit == nil {
			return code{fn: fn}
		}
	}
	if v, err := fn(nil, nil); err == nil {
		return code{lit: v}
	}
	return code{fn: fn}
}

// lift1 and lift2 compile an operator that evaluates its operands in order,
// first error wins, and applies a kernel to their values.
func lift1(a code, k func(adm.Value) (adm.Value, error)) code {
	av := a.run()
	return fold(func(l, r hyracks.Tuple) (adm.Value, error) {
		x, err := av(l, r)
		if err != nil {
			return nil, err
		}
		return k(x)
	}, a)
}

func lift2(a, b code, k func(x, y adm.Value) (adm.Value, error)) code {
	av, bv := a.run(), b.run()
	return fold(func(l, r hyracks.Tuple) (adm.Value, error) {
		x, err := av(l, r)
		if err != nil {
			return nil, err
		}
		y, err := bv(l, r)
		if err != nil {
			return nil, err
		}
		return k(x, y)
	}, a, b)
}

// compiler resolves names against the columns of a left and a right tuple.
type compiler struct {
	ev   *Evaluator
	l, r schema
}

// compile returns e as a closure over a tuple laid out as s.
func (ev *Evaluator) compile(e sqlpp.Expr, s schema) valueFn {
	c := compiler{ev: ev, l: s}
	return c.compile(e).run()
}

// compilePred returns e as a condition over a left and a right tuple (one
// tuple: an empty rs and rt nil). It holds when e is true — not when it is
// false, null or missing.
func (ev *Evaluator) compilePred(e sqlpp.Expr, ls, rs schema) func(lt, rt hyracks.Tuple) (bool, error) {
	c := compiler{ev: ev, l: ls, r: rs}
	p := c.compile(e).run()
	return func(lt, rt hyracks.Tuple) (bool, error) {
		v, err := p(lt, rt)
		return err == nil && truthOf(v) == tTrue, err
	}
}

// colRef is a resolved column.
type colRef struct {
	idx   int
	right bool
}

func (c colRef) of(l, r hyracks.Tuple) adm.Value {
	if c.right {
		return r[c.idx]
	}
	return l[c.idx]
}

// column resolves a variable — or, when field is set, its first-step field
// name.f — the way Env.Lookup does over the left tuple's columns followed
// by the right one's: the last binding wins. whole reports that the column
// holds the variable itself, of which a field is still to be taken.
func (c *compiler) column(name, f string, field bool) (ref colRef, whole, ok bool) {
	if col, ok := c.r.find(name, f, field); ok {
		return colRef{idx: col.idx, right: true}, !col.field, true
	}
	col, ok := c.l.find(name, f, field)
	return colRef{idx: col.idx}, !col.field, ok
}

// fallback evaluates e with the interpreter over an Env of the tuple(s).
func (c *compiler) fallback(e sqlpp.Expr) code {
	ev, lenv, renv, two := c.ev, c.l.envOver(), c.r.envOver(), len(c.r.cols) > 0
	return code{fn: func(l, r hyracks.Tuple) (adm.Value, error) {
		env := lenv(nil, l)
		if two {
			env = renv(env, r)
		}
		return ev.Eval(e, env)
	}}
}

// liftN is lift1 for any number of operands, gathered into a fresh slice
// the kernel may keep.
func (c *compiler) liftN(es []sqlpp.Expr, k func(vs []adm.Value) (adm.Value, error)) code {
	codes, fns := make([]code, len(es)), make([]valueFn, len(es))
	for i, e := range es {
		codes[i] = c.compile(e)
		fns[i] = codes[i].run()
	}
	return fold(func(l, r hyracks.Tuple) (adm.Value, error) {
		vs := make([]adm.Value, len(fns))
		for i, f := range fns {
			v, err := f(l, r)
			if err != nil {
				return nil, err
			}
			vs[i] = v
		}
		return k(vs)
	}, codes...)
}

func (c *compiler) compile(e sqlpp.Expr) code {
	switch x := e.(type) {
	case *sqlpp.Literal:
		return code{lit: x.Value}

	case *sqlpp.VarRef:
		col, _, ok := c.column(x.Name, "", false)
		if !ok {
			return c.fallback(e) // a dataset in expression position, or undefined
		}
		return code{fn: func(l, r hyracks.Tuple) (adm.Value, error) { return col.of(l, r), nil }}

	case *sqlpp.FieldAccess:
		field := x.Field
		if v, ok := x.Base.(*sqlpp.VarRef); ok {
			// A leaf that lists its fields emits v.f as a column of its own.
			if col, whole, ok := c.column(v.Name, field, true); ok && whole {
				return code{fn: func(l, r hyracks.Tuple) (adm.Value, error) { return fieldOf(col.of(l, r), field), nil }}
			} else if ok {
				return code{fn: func(l, r hyracks.Tuple) (adm.Value, error) { return col.of(l, r), nil }}
			}
		}
		return lift1(c.compile(x.Base), func(b adm.Value) (adm.Value, error) { return fieldOf(b, field), nil })

	case *sqlpp.IndexAccess:
		return lift2(c.compile(x.Base), c.compile(x.Index), func(b, i adm.Value) (adm.Value, error) { return elemAt(b, i), nil })

	case *sqlpp.Unary:
		switch x.Op {
		case "-":
			return lift1(c.compile(x.X), negate)
		case "NOT":
			return lift1(c.compile(x.X), func(v adm.Value) (adm.Value, error) { return truthValue[notTruth(truthOf(v))], nil })
		}

	case *sqlpp.Binary:
		return c.compileBinary(x)

	case *sqlpp.IsExpr:
		mask, negate := isMask(x.What), x.Negate
		return lift1(c.compile(x.X), func(v adm.Value) (adm.Value, error) {
			return adm.Boolean(isKind(mask, v) != negate), nil
		})

	case *sqlpp.Between:
		vc, loc, hic, negate := c.compile(x.X), c.compile(x.Lo), c.compile(x.Hi), x.Negate
		v, lo, hi := vc.run(), loc.run(), hic.run()
		return fold(func(l, r hyracks.Tuple) (adm.Value, error) {
			a, err := v(l, r)
			if err != nil {
				return nil, err
			}
			from, err := lo(l, r)
			if err != nil {
				return nil, err
			}
			to, err := hi(l, r)
			if err != nil {
				return nil, err
			}
			return truthValue[betweenTruth(a, from, to, negate)], nil
		}, vc, loc, hic)

	case *sqlpp.InExpr:
		negate := x.Negate
		return lift2(c.compile(x.X), c.compile(x.Coll), func(v, coll adm.Value) (adm.Value, error) {
			return truthValue[inTruth(v, coll, negate)], nil
		})

	case *sqlpp.ExistsExpr:
		negate := x.Negate
		return lift1(c.compile(x.X), func(v adm.Value) (adm.Value, error) {
			return adm.Boolean(nonEmpty(v) != negate), nil
		})

	case *sqlpp.CaseExpr:
		return c.compileCase(x)

	case *sqlpp.ObjectConstructor:
		return c.compileObject(x)

	case *sqlpp.ArrayConstructor:
		return c.liftN(x.Elems, func(vs []adm.Value) (adm.Value, error) { return adm.Array(vs), nil })

	case *sqlpp.MultisetConstructor:
		return c.liftN(x.Elems, func(vs []adm.Value) (adm.Value, error) { return adm.Multiset(vs), nil })

	case *sqlpp.Call:
		ev, fn, distinct, impl := c.ev, x.Fn, x.Distinct, builtins[x.Fn]
		return c.liftN(x.Args, func(args []adm.Value) (adm.Value, error) {
			return impl.call(fnCall{ev: ev, fn: fn, args: args, distinct: distinct})
		})
	}
	// SELECT blocks, UNION, quantifiers (they bind variables or scan
	// datasets) and anything Eval rejects: Eval's own behaviour, per tuple.
	return c.fallback(e)
}

func (c *compiler) compileBinary(x *sqlpp.Binary) code {
	op := binOpOf(x.Op)
	if op == opInvalid {
		return c.fallback(x)
	}
	lc, rc := c.compile(x.L), c.compile(x.R)
	if op == opAnd || op == opOr {
		lv, rv := lc.run(), rc.run()
		return fold(func(l, r hyracks.Tuple) (adm.Value, error) {
			a, err := lv(l, r)
			if err != nil {
				return nil, err
			}
			at := truthOf(a)
			if logicDecides(op, at) {
				return truthValue[at], nil
			}
			b, err := rv(l, r)
			if err != nil {
				return nil, err
			}
			return truthValue[logic3(op, at, truthOf(b))], nil
		}, lc, rc)
	}
	if pattern, ok := rc.lit.(adm.String); ok && op == opLike {
		match, pat := likeMatcher(string(pattern)), rc.lit // pat: the pattern, boxed once
		return lift1(lc, func(a adm.Value) (adm.Value, error) {
			if u, unknown := unknownOperand(a, pat); unknown {
				return truthValue[u], nil
			}
			s, ok := a.(adm.String)
			if !ok {
				return adm.Null, nil
			}
			return adm.Boolean(match(string(s))), nil
		})
	}
	return lift2(lc, rc, func(a, b adm.Value) (adm.Value, error) {
		if u, unknown := unknownOperand(a, b); unknown {
			return truthValue[u], nil
		}
		return applyBinary(op, a, b)
	})
}

func (c *compiler) compileCase(x *sqlpp.CaseExpr) code {
	var operands []code
	add := func(e sqlpp.Expr) valueFn {
		if e == nil {
			return nil
		}
		operands = append(operands, c.compile(e))
		return operands[len(operands)-1].run()
	}
	subject := add(x.Operand)
	type arm struct{ when, then valueFn }
	arms := make([]arm, len(x.Whens))
	for i, wt := range x.Whens {
		arms[i] = arm{add(wt.When), add(wt.Then)}
	}
	otherwise := add(x.Else)
	return fold(func(l, r hyracks.Tuple) (adm.Value, error) {
		var s adm.Value
		if subject != nil {
			var err error
			if s, err = subject(l, r); err != nil {
				return nil, err
			}
		}
		// An arm is taken when its WHEN equals the subject (CASE x WHEN v)
		// or, with no subject, is true (CASE WHEN cond).
		for _, a := range arms {
			w, err := a.when(l, r)
			if err != nil {
				return nil, err
			}
			if (subject != nil && adm.Compare(s, w) == 0) || (subject == nil && truthOf(w) == tTrue) {
				return a.then(l, r)
			}
		}
		if otherwise != nil {
			return otherwise(l, r)
		}
		return adm.Null, nil
	}, operands...)
}

func (c *compiler) compileObject(x *sqlpp.ObjectConstructor) code {
	operands := make([]code, 0, 2*len(x.Fields)) // name, value, name, value, …
	fns := make([]valueFn, 0, 2*len(x.Fields))
	for _, f := range x.Fields {
		nc, vc := c.compile(f.Name), c.compile(f.Value)
		operands = append(operands, nc, vc)
		fns = append(fns, nc.run(), vc.run())
	}
	return fold(func(l, r hyracks.Tuple) (adm.Value, error) {
		// NewObject copies what it is given, so a small object's fields are
		// gathered on the stack.
		var buf [8]adm.Field
		out := buf[:0]
		for i := 0; i < len(fns); i += 2 {
			nv, err := fns[i](l, r)
			if err != nil {
				return nil, err
			}
			name, err := fieldName(nv)
			if err != nil {
				return nil, err
			}
			v, err := fns[i+1](l, r)
			if err != nil {
				return nil, err
			}
			out = append(out, adm.Field{Name: name, Value: v}) // NewObject leaves a missing one out
		}
		return adm.NewObject(out...), nil
	}, operands...)
}
