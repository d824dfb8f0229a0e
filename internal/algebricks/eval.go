// Package algebricks is the data-model-agnostic query compilation layer of
// the stack (Figures 4 and 5): it translates the shared SQL++/AQL AST into
// a logical algebra, applies rule-based rewrites (selection pushdown, join
// recognition, quantifier-to-semijoin, index-access introduction), and
// generates partitioned-parallel Hyracks jobs.
package algebricks

import (
	"fmt"
	"strings"

	"asterix/internal/adm"
	"asterix/internal/sqlpp"
)

// Env is a lexical variable environment for expression evaluation.
type Env struct {
	names  []string
	vals   []adm.Value
	parent *Env
}

// NewEnv creates a child environment with the given bindings.
func NewEnv(parent *Env, names []string, vals []adm.Value) *Env {
	return &Env{names: names, vals: vals, parent: parent}
}

// Bind adds one binding (used incrementally during evaluation).
func (e *Env) Bind(name string, v adm.Value) {
	e.names = append(e.names, name)
	e.vals = append(e.vals, v)
}

// Lookup resolves a variable.
func (e *Env) Lookup(name string) (adm.Value, bool) {
	for env := e; env != nil; env = env.parent {
		for i := len(env.names) - 1; i >= 0; i-- {
			if env.names[i] == name {
				return env.vals[i], true
			}
		}
	}
	return nil, false
}

// DataSource abstracts a scannable dataset for the evaluator and job
// generator (implemented by core's dataset manager).
type DataSource interface {
	Name() string
	Partitions() int
	// Scan emits every record of one partition. A non-nil fields lists the
	// only first-level fields the caller reads: the source may emit objects
	// holding just those (a source that cannot project may ignore it).
	Scan(part int, fields []string, emit func(rec adm.Value) error) error
}

// Catalog resolves dataset names and their indexes.
type Catalog interface {
	Resolve(name string) (DataSource, bool)
	// ResolveIndex returns the index whose key starts with dataset.field:
	// the dataset's primary index when field leads its primary key,
	// otherwise a secondary index on the field.
	ResolveIndex(dataset, field string) (IndexAccessor, bool)
}

// IndexAccessor abstracts an index for index-accelerated scans: a
// secondary index, or (kind PRIMARY) the dataset's primary index seen as
// an ordered index on its key.
type IndexAccessor interface {
	Kind() string // PRIMARY, BTREE, RTREE, KEYWORD, ZORDER, HILBERT, GRID
	// KeyFields lists the fields of the index key in key order: the one
	// indexed field of a secondary index, the primary key of PRIMARY.
	KeyFields() []string
	// OwnerPartition returns the only partition that can hold records
	// with the given key, when the index knows one: PRIMARY for a full
	// key. Secondary indexes are partition-local and report false.
	OwnerPartition(key adm.Value) (int, bool)
	// SearchRange emits records with lo <= key <= hi (nil = unbounded);
	// inclusivity flags apply when bounds are non-nil. On a composite
	// primary key a bound is an array over a leading prefix of the key.
	// fields, here and below, is DataSource.Scan's.
	SearchRange(part int, lo, hi adm.Value, loInc, hiInc bool, fields []string, emit func(rec adm.Value) error) error
	// SearchSpatial emits records whose indexed point intersects rect.
	SearchSpatial(part int, rect adm.Rectangle, fields []string, emit func(rec adm.Value) error) error
	// SearchKeyword emits records whose indexed text contains the token.
	SearchKeyword(part int, token string, fields []string, emit func(rec adm.Value) error) error
}

// EvalError is a runtime type/evaluation error.
type EvalError struct{ Msg string }

func (e *EvalError) Error() string { return "eval: " + e.Msg }

func evalErrf(format string, args ...any) error {
	return &EvalError{Msg: fmt.Sprintf(format, args...)}
}

// Evaluator evaluates SQL++ expressions against environments; nested
// SELECT blocks are interpreted serially (the runtime analogue of
// AsterixDB subplans), while top-level queries go through job generation.
type Evaluator struct {
	Catalog Catalog
	// Now is the statement's evaluation timestamp (current_datetime()).
	Now adm.Datetime
}

// Eval evaluates e in env.
func (ev *Evaluator) Eval(e sqlpp.Expr, env *Env) (adm.Value, error) {
	switch x := e.(type) {
	case *sqlpp.Literal:
		return x.Value, nil

	case *sqlpp.VarRef:
		if v, ok := env.Lookup(x.Name); ok {
			return v, nil
		}
		// A bare name can reference a dataset (materialized on demand;
		// the optimizer rewrites the hot paths into joins/scans).
		if ev.Catalog != nil {
			if ds, ok := ev.Catalog.Resolve(x.Name); ok {
				return ev.materialize(ds)
			}
		}
		return nil, evalErrf("undefined variable %q", x.Name)

	case *sqlpp.FieldAccess:
		base, err := ev.Eval(x.Base, env)
		if err != nil {
			return nil, err
		}
		switch b := base.(type) {
		case *adm.Object:
			return b.Get(x.Field), nil
		}
		if base.Kind() <= adm.KindNull {
			return adm.Missing, nil
		}
		return adm.Missing, nil

	case *sqlpp.IndexAccess:
		base, err := ev.Eval(x.Base, env)
		if err != nil {
			return nil, err
		}
		idx, err := ev.Eval(x.Index, env)
		if err != nil {
			return nil, err
		}
		i, ok := adm.AsInt(idx)
		if !ok {
			return adm.Missing, nil
		}
		switch b := base.(type) {
		case adm.Array:
			if i < 0 || int(i) >= len(b) {
				return adm.Missing, nil
			}
			return b[i], nil
		case adm.Multiset:
			if i < 0 || int(i) >= len(b) {
				return adm.Missing, nil
			}
			return b[i], nil
		}
		return adm.Missing, nil

	case *sqlpp.Unary:
		v, err := ev.Eval(x.X, env)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			switch n := v.(type) {
			case adm.Int64:
				return -n, nil
			case adm.Double:
				return -n, nil
			}
			if v.Kind() <= adm.KindNull {
				return v, nil
			}
			return nil, evalErrf("cannot negate %s", v.Kind())
		case "NOT":
			b, known := adm.Truthy(v)
			if !known {
				if v.Kind() == adm.KindMissing {
					return adm.Missing, nil
				}
				return adm.Null, nil
			}
			return adm.Boolean(!b), nil
		}
		return nil, evalErrf("unknown unary op %s", x.Op)

	case *sqlpp.Binary:
		return ev.evalBinary(x, env)

	case *sqlpp.IsExpr:
		v, err := ev.Eval(x.X, env)
		if err != nil {
			return nil, err
		}
		var res bool
		switch x.What {
		case "NULL":
			res = v.Kind() == adm.KindNull
		case "MISSING":
			res = v.Kind() == adm.KindMissing
		case "UNKNOWN":
			res = v.Kind() <= adm.KindNull
		}
		if x.Negate {
			res = !res
		}
		return adm.Boolean(res), nil

	case *sqlpp.Between:
		v, err := ev.Eval(x.X, env)
		if err != nil {
			return nil, err
		}
		lo, err := ev.Eval(x.Lo, env)
		if err != nil {
			return nil, err
		}
		hi, err := ev.Eval(x.Hi, env)
		if err != nil {
			return nil, err
		}
		if v.Kind() <= adm.KindNull || lo.Kind() <= adm.KindNull || hi.Kind() <= adm.KindNull {
			return adm.Null, nil
		}
		in := adm.Compare(v, lo) >= 0 && adm.Compare(v, hi) <= 0
		if x.Negate {
			in = !in
		}
		return adm.Boolean(in), nil

	case *sqlpp.InExpr:
		v, err := ev.Eval(x.X, env)
		if err != nil {
			return nil, err
		}
		coll, err := ev.Eval(x.Coll, env)
		if err != nil {
			return nil, err
		}
		elems, ok := asCollection(coll)
		if !ok {
			return adm.Null, nil
		}
		found := false
		for _, e := range elems {
			if adm.Compare(e, v) == 0 {
				found = true
				break
			}
		}
		if x.Negate {
			found = !found
		}
		return adm.Boolean(found), nil

	case *sqlpp.CaseExpr:
		if x.Operand != nil {
			op, err := ev.Eval(x.Operand, env)
			if err != nil {
				return nil, err
			}
			for _, wt := range x.Whens {
				w, err := ev.Eval(wt.When, env)
				if err != nil {
					return nil, err
				}
				if adm.Compare(op, w) == 0 {
					return ev.Eval(wt.Then, env)
				}
			}
		} else {
			for _, wt := range x.Whens {
				w, err := ev.Eval(wt.When, env)
				if err != nil {
					return nil, err
				}
				if b, known := adm.Truthy(w); known && b {
					return ev.Eval(wt.Then, env)
				}
			}
		}
		if x.Else != nil {
			return ev.Eval(x.Else, env)
		}
		return adm.Null, nil

	case *sqlpp.QuantifiedExpr:
		coll, err := ev.Eval(x.In, env)
		if err != nil {
			return nil, err
		}
		elems, ok := asCollection(coll)
		if !ok {
			return adm.Null, nil
		}
		for _, el := range elems {
			child := NewEnv(env, []string{x.Var}, []adm.Value{el})
			p, err := ev.Eval(x.Satisfies, child)
			if err != nil {
				return nil, err
			}
			b, known := adm.Truthy(p)
			if x.Some && known && b {
				return adm.Boolean(true), nil
			}
			if !x.Some && (!known || !b) {
				return adm.Boolean(false), nil
			}
		}
		return adm.Boolean(!x.Some), nil

	case *sqlpp.ExistsExpr:
		v, err := ev.Eval(x.X, env)
		if err != nil {
			return nil, err
		}
		elems, ok := asCollection(v)
		res := ok && len(elems) > 0
		if x.Negate {
			res = !res
		}
		return adm.Boolean(res), nil

	case *sqlpp.ObjectConstructor:
		o := adm.NewObject()
		for _, f := range x.Fields {
			nv, err := ev.Eval(f.Name, env)
			if err != nil {
				return nil, err
			}
			name, ok := nv.(adm.String)
			if !ok {
				return nil, evalErrf("object field name must be a string, got %s", nv.Kind())
			}
			v, err := ev.Eval(f.Value, env)
			if err != nil {
				return nil, err
			}
			if v.Kind() == adm.KindMissing {
				continue // missing fields are simply absent
			}
			o.Set(string(name), v)
		}
		return o, nil

	case *sqlpp.ArrayConstructor:
		a := make(adm.Array, 0, len(x.Elems))
		for _, el := range x.Elems {
			v, err := ev.Eval(el, env)
			if err != nil {
				return nil, err
			}
			a = append(a, v)
		}
		return a, nil

	case *sqlpp.MultisetConstructor:
		m := make(adm.Multiset, 0, len(x.Elems))
		for _, el := range x.Elems {
			v, err := ev.Eval(el, env)
			if err != nil {
				return nil, err
			}
			m = append(m, v)
		}
		return m, nil

	case *sqlpp.Call:
		return ev.evalCall(x, env)

	case *sqlpp.SelectExpr:
		// Nested query block: interpret serially (subplan execution).
		rows, err := ev.interpretSelect(x, env)
		if err != nil {
			return nil, err
		}
		return adm.Array(rows), nil

	case *sqlpp.UnionExpr:
		var all adm.Array
		for _, b := range x.Blocks {
			v, err := ev.Eval(b, env)
			if err != nil {
				return nil, err
			}
			elems, ok := asCollection(v)
			if !ok {
				return nil, evalErrf("UNION ALL branch produced %s", v.Kind())
			}
			all = append(all, elems...)
		}
		return all, nil
	}
	return nil, evalErrf("unsupported expression %T", e)
}

func (ev *Evaluator) evalBinary(x *sqlpp.Binary, env *Env) (adm.Value, error) {
	// AND/OR have three-valued logic with short circuit.
	if x.Op == "AND" || x.Op == "OR" {
		l, err := ev.Eval(x.L, env)
		if err != nil {
			return nil, err
		}
		lb, lknown := adm.Truthy(l)
		if x.Op == "AND" {
			if lknown && !lb {
				return adm.Boolean(false), nil
			}
		} else {
			if lknown && lb {
				return adm.Boolean(true), nil
			}
		}
		r, err := ev.Eval(x.R, env)
		if err != nil {
			return nil, err
		}
		rb, rknown := adm.Truthy(r)
		if x.Op == "AND" {
			if rknown && !rb {
				return adm.Boolean(false), nil
			}
			if lknown && rknown {
				return adm.Boolean(true), nil
			}
			return adm.Null, nil
		}
		if rknown && rb {
			return adm.Boolean(true), nil
		}
		if lknown && rknown {
			return adm.Boolean(false), nil
		}
		return adm.Null, nil
	}

	l, err := ev.Eval(x.L, env)
	if err != nil {
		return nil, err
	}
	r, err := ev.Eval(x.R, env)
	if err != nil {
		return nil, err
	}
	// null/missing propagation.
	if l.Kind() == adm.KindMissing || r.Kind() == adm.KindMissing {
		return adm.Missing, nil
	}
	if l.Kind() == adm.KindNull || r.Kind() == adm.KindNull {
		return adm.Null, nil
	}

	switch x.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		c := adm.Compare(l, r)
		var res bool
		switch x.Op {
		case "=":
			res = c == 0
		case "!=":
			res = c != 0
		case "<":
			res = c < 0
		case "<=":
			res = c <= 0
		case ">":
			res = c > 0
		case ">=":
			res = c >= 0
		}
		return adm.Boolean(res), nil
	case "||":
		ls, lok := l.(adm.String)
		rs, rok := r.(adm.String)
		if !lok || !rok {
			return nil, evalErrf("|| requires strings, got %s and %s", l.Kind(), r.Kind())
		}
		return ls + rs, nil
	case "LIKE":
		ls, lok := l.(adm.String)
		rs, rok := r.(adm.String)
		if !lok || !rok {
			return adm.Null, nil
		}
		return adm.Boolean(likeMatch(string(ls), string(rs))), nil
	case "+", "-", "*", "/", "%":
		return ev.arith(x.Op, l, r)
	}
	return nil, evalErrf("unknown operator %s", x.Op)
}

func (ev *Evaluator) arith(op string, l, r adm.Value) (adm.Value, error) {
	// datetime/duration arithmetic.
	if ldt, ok := l.(adm.Datetime); ok {
		if rd, ok := r.(adm.Duration); ok {
			switch op {
			case "+":
				return adm.AddDuration(ldt, rd), nil
			case "-":
				return adm.SubDuration(ldt, rd), nil
			}
		}
		if rdt, ok := r.(adm.Datetime); ok && op == "-" {
			return adm.Duration{Millis: int64(ldt) - int64(rdt)}, nil
		}
	}
	li, lIsInt := l.(adm.Int64)
	ri, rIsInt := r.(adm.Int64)
	if lIsInt && rIsInt {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "/":
			if ri == 0 {
				return adm.Null, nil
			}
			if li%ri == 0 {
				return li / ri, nil
			}
			return adm.Double(float64(li) / float64(ri)), nil
		case "%":
			if ri == 0 {
				return adm.Null, nil
			}
			return li % ri, nil
		}
	}
	lf, lok := adm.AsFloat(l)
	rf, rok := adm.AsFloat(r)
	if !lok || !rok {
		return nil, evalErrf("cannot apply %s to %s and %s", op, l.Kind(), r.Kind())
	}
	switch op {
	case "+":
		return adm.Double(lf + rf), nil
	case "-":
		return adm.Double(lf - rf), nil
	case "*":
		return adm.Double(lf * rf), nil
	case "/":
		if rf == 0 {
			return adm.Null, nil
		}
		return adm.Double(lf / rf), nil
	case "%":
		if rf == 0 {
			return adm.Null, nil
		}
		return adm.Double(float64(int64(lf) % int64(rf))), nil
	}
	return nil, evalErrf("unknown arithmetic op %s", op)
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, pattern string) bool {
	// Dynamic programming over the pattern.
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

// asCollection views arrays and multisets as element slices.
func asCollection(v adm.Value) ([]adm.Value, bool) {
	switch x := v.(type) {
	case adm.Array:
		return x, true
	case adm.Multiset:
		return x, true
	}
	return nil, false
}

// materialize scans a whole dataset into an array (fallback path for
// datasets referenced in expression position).
func (ev *Evaluator) materialize(ds DataSource) (adm.Value, error) {
	var out adm.Array
	for p := 0; p < ds.Partitions(); p++ {
		err := ds.Scan(p, nil, func(rec adm.Value) error {
			out = append(out, rec)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// IsAggregateFn reports whether a function name is a SQL aggregate
// (meaningful only under GROUP BY / global aggregation).
func IsAggregateFn(fn string) bool {
	switch strings.ToLower(fn) {
	case "count", "sum", "min", "max", "avg", "array_agg":
		return true
	}
	return false
}
