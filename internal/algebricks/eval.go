// Package algebricks is the data-model-agnostic query compilation layer of
// the stack (Figures 4 and 5): it translates the shared SQL++/AQL AST into
// a logical algebra, applies rule-based rewrites (selection pushdown, join
// recognition, quantifier-to-semijoin, index-access introduction), and
// generates partitioned-parallel Hyracks jobs.
package algebricks

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"

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
	// Scan hands every record of one partition to emit.
	Scan(part int, emit func(Record) error) error
}

// Record is one stored record as its source hands it to a leaf: valid only
// until the callback it was passed to returns, and not decoded yet — the
// leaf reads the fields its plan lists where they lie.
type Record struct {
	// Stored is the record as a byte-holding source keeps it and Unpack
	// (nil: Stored already is it) returns its ADM encoding. It is not called
	// for a record no field of which is read.
	Stored []byte
	Unpack func(stored []byte) ([]byte, error)
	// Type is the type the source's records were written under, which a
	// positional encoding (adm.EncodeRecord) needs to be read; nil: the
	// source holds none.
	Type *adm.Type
	// Value is the record itself, from a source that holds values (an
	// external dataset): Stored is nil.
	Value adm.Value
}

// encoding returns the record's ADM encoding, nil for a Value record.
func (r Record) encoding() ([]byte, error) {
	if r.Unpack == nil {
		return r.Stored, nil
	}
	return r.Unpack(r.Stored)
}

// Decode materializes the whole record.
func (r Record) Decode() (adm.Value, error) {
	if r.Stored == nil {
		return r.Value, nil
	}
	raw, err := r.encoding()
	if err != nil {
		return nil, err
	}
	return adm.DecodeRecord(raw, r.Type)
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
	SearchRange(part int, lo, hi adm.Value, loInc, hiInc bool, emit func(Record) error) error
	// SearchSpatial emits the index's candidates for rect: every record
	// whose indexed point or rectangle intersects it, and possibly others.
	// The search's residual filter, which introduce-index-search always
	// leaves on it, decides.
	SearchSpatial(part int, rect adm.Rectangle, emit func(Record) error) error
	// SearchKeyword emits records whose indexed text contains the token.
	SearchKeyword(part int, token string, emit func(Record) error) error
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
		if isDataset(x) {
			// Materialized on demand; the optimizer rewrites the hot paths
			// into joins and scans.
			return ev.materialize(x.Name)
		}
		if v, ok := env.Lookup(x.Name); ok {
			return v, nil
		}
		return nil, evalErrf("undefined variable %q", userName(x.Name))

	case *sqlpp.FieldAccess:
		base, err := ev.Eval(x.Base, env)
		if err != nil {
			return nil, err
		}
		return fieldOf(base, x.Field), nil

	case *sqlpp.IndexAccess:
		base, err := ev.Eval(x.Base, env)
		if err != nil {
			return nil, err
		}
		idx, err := ev.Eval(x.Index, env)
		if err != nil {
			return nil, err
		}
		return elemAt(base, idx), nil

	case *sqlpp.Unary:
		v, err := ev.Eval(x.X, env)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			return negate(v)
		case "NOT":
			return truthValue[notTruth(truthOf(v))], nil
		}
		return nil, evalErrf("unknown unary op %s", x.Op)

	case *sqlpp.Binary:
		return ev.evalBinary(x, env)

	case *sqlpp.IsExpr:
		v, err := ev.Eval(x.X, env)
		if err != nil {
			return nil, err
		}
		return adm.Boolean(isKind(isMask(x.What), v) != x.Negate), nil

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
		return truthValue[betweenTruth(v, lo, hi, x.Negate)], nil

	case *sqlpp.InExpr:
		v, err := ev.Eval(x.X, env)
		if err != nil {
			return nil, err
		}
		coll, err := ev.Eval(x.Coll, env)
		if err != nil {
			return nil, err
		}
		return truthValue[inTruth(v, coll, x.Negate)], nil

	case *sqlpp.CaseExpr:
		var subject adm.Value
		if x.Operand != nil {
			var err error
			if subject, err = ev.Eval(x.Operand, env); err != nil {
				return nil, err
			}
		}
		// An arm is taken when its WHEN equals the subject (CASE x WHEN v)
		// or, with no subject, is true (CASE WHEN cond).
		for _, wt := range x.Whens {
			w, err := ev.Eval(wt.When, env)
			if err != nil {
				return nil, err
			}
			if (x.Operand != nil && adm.Compare(subject, w) == 0) || (x.Operand == nil && truthOf(w) == tTrue) {
				return ev.Eval(wt.Then, env)
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
			if holds := truthOf(p) == tTrue; holds == x.Some {
				return adm.Boolean(holds), nil
			}
		}
		return adm.Boolean(!x.Some), nil

	case *sqlpp.ExistsExpr:
		v, err := ev.Eval(x.X, env)
		if err != nil {
			return nil, err
		}
		return adm.Boolean(nonEmpty(v) != x.Negate), nil

	case *sqlpp.ObjectConstructor:
		o := adm.NewObject()
		for _, f := range x.Fields {
			nv, err := ev.Eval(f.Name, env)
			if err != nil {
				return nil, err
			}
			name, err := fieldName(nv)
			if err != nil {
				return nil, err
			}
			v, err := ev.Eval(f.Value, env)
			if err != nil {
				return nil, err
			}
			o.Set(name, v) // a missing field is simply absent
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
	op := binOpOf(x.Op)
	l, err := ev.Eval(x.L, env)
	if err != nil {
		return nil, err
	}
	if op == opAnd || op == opOr {
		lt := truthOf(l)
		if logicDecides(op, lt) {
			return truthValue[lt], nil
		}
		r, err := ev.Eval(x.R, env)
		if err != nil {
			return nil, err
		}
		return truthValue[logic3(op, lt, truthOf(r))], nil
	}
	r, err := ev.Eval(x.R, env)
	if err != nil {
		return nil, err
	}
	if u, unknown := unknownOperand(l, r); unknown {
		return truthValue[u], nil
	}
	if op == opInvalid {
		return nil, evalErrf("unknown operator %s", x.Op)
	}
	return applyBinary(op, l, r)
}

// The operator kernels. Eval above and the compiled closures of compile.go
// both call these and nothing else: the interpreter looks a kernel up per
// call, the compiler once per expression, and neither holds a second
// definition of what an operator does.

// truth is a three-valued logic result that remembers which unknown it is.
type truth uint8

const (
	tFalse truth = iota
	tTrue
	tNull
	tMissing
)

// truthValue boxes each truth once, so a boolean result never allocates.
var truthValue = [...]adm.Value{adm.Boolean(false), adm.Boolean(true), adm.Null, adm.Missing}

func boolTruth(b bool) truth {
	if b {
		return tTrue
	}
	return tFalse
}

// truthOf is SQL++'s boolean view of a value: anything that is not a
// boolean is unknown — missing when it is missing, null otherwise.
func truthOf(v adm.Value) truth {
	if b, ok := v.(adm.Boolean); ok {
		return boolTruth(bool(b))
	}
	if v.Kind() == adm.KindMissing {
		return tMissing
	}
	return tNull
}

func notTruth(t truth) truth {
	switch t {
	case tFalse:
		return tTrue
	case tTrue:
		return tFalse
	}
	return t
}

// binOp is a binary operator resolved from its source text.
type binOp uint8

const (
	opInvalid binOp = iota
	opAnd
	opOr
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opConcat
	opLike
	opAdd // the arithmetic operators stay in arithSymbols' order
	opSub
	opMul
	opDiv
	opMod
)

const arithSymbols = "+-*/%"

// binOpOf resolves an operator's source text (a switch, not a map: the
// interpreter pays for it on every binary node it evaluates).
func binOpOf(op string) binOp {
	switch op {
	case "AND":
		return opAnd
	case "OR":
		return opOr
	case "=":
		return opEq
	case "!=":
		return opNe
	case "<":
		return opLt
	case "<=":
		return opLe
	case ">":
		return opGt
	case ">=":
		return opGe
	case "||":
		return opConcat
	case "LIKE":
		return opLike
	case "+":
		return opAdd
	case "-":
		return opSub
	case "*":
		return opMul
	case "/":
		return opDiv
	case "%":
		return opMod
	}
	return opInvalid
}

// logicDecides reports whether the left operand alone decides AND (false)
// or OR (true), so the right one is not evaluated.
func logicDecides(op binOp, l truth) bool {
	return l == boolTruth(op == opOr)
}

// logic3 is three-valued AND/OR over both operands.
func logic3(op binOp, l, r truth) truth {
	decides := boolTruth(op == opOr)
	switch {
	case l == decides || r == decides:
		return decides
	case l <= tTrue && r <= tTrue:
		return notTruth(decides)
	}
	return tNull
}

// unknownOperand is the null/missing propagation of every binary operator
// but AND/OR: missing if either operand is missing, else null if either is.
func unknownOperand(l, r adm.Value) (truth, bool) {
	lk, rk := l.Kind(), r.Kind()
	switch {
	case lk == adm.KindMissing || rk == adm.KindMissing:
		return tMissing, true
	case lk == adm.KindNull || rk == adm.KindNull:
		return tNull, true
	}
	return tTrue, false
}

// compareOp applies a comparison operator to adm.Compare's result.
func compareOp(op binOp, c int) bool {
	switch op {
	case opEq:
		return c == 0
	case opNe:
		return c != 0
	case opLt:
		return c < 0
	case opLe:
		return c <= 0
	case opGt:
		return c > 0
	}
	return c >= 0
}

// applyBinary applies a comparison, ||, LIKE or arithmetic operator to two
// known (neither null nor missing) operands.
func applyBinary(op binOp, l, r adm.Value) (adm.Value, error) {
	switch {
	case op >= opEq && op <= opGe:
		return adm.Boolean(compareOp(op, adm.Compare(l, r))), nil
	case op == opConcat:
		ls, lok := l.(adm.String)
		rs, rok := r.(adm.String)
		if !lok || !rok {
			return nil, evalErrf("|| requires strings, got %s and %s", l.Kind(), r.Kind())
		}
		return ls + rs, nil
	case op == opLike:
		ls, lok := l.(adm.String)
		rs, rok := r.(adm.String)
		if !lok || !rok {
			return adm.Null, nil
		}
		return adm.Boolean(likeMatch(string(ls), string(rs))), nil
	}
	return arith(op, l, r)
}

func arith(op binOp, l, r adm.Value) (adm.Value, error) {
	// datetime/duration arithmetic.
	if ldt, ok := l.(adm.Datetime); ok {
		if rd, ok := r.(adm.Duration); ok {
			switch op {
			case opAdd:
				return adm.AddDuration(ldt, rd), nil
			case opSub:
				return adm.SubDuration(ldt, rd), nil
			}
		}
		if rdt, ok := r.(adm.Datetime); ok && op == opSub {
			return adm.Duration{Millis: int64(ldt) - int64(rdt)}, nil
		}
	}
	li, lIsInt := l.(adm.Int64)
	ri, rIsInt := r.(adm.Int64)
	if lIsInt && rIsInt {
		switch op {
		case opAdd:
			return li + ri, nil
		case opSub:
			return li - ri, nil
		case opMul:
			return li * ri, nil
		case opDiv:
			if ri == 0 {
				return adm.Null, nil
			}
			if li%ri == 0 {
				return li / ri, nil
			}
			return adm.Double(float64(li) / float64(ri)), nil
		case opMod:
			if ri == 0 {
				return adm.Null, nil
			}
			return li % ri, nil
		}
	}
	lf, lok := adm.AsFloat(l)
	rf, rok := adm.AsFloat(r)
	if !lok || !rok {
		return nil, evalErrf("cannot apply %c to %s and %s", arithSymbols[op-opAdd], l.Kind(), r.Kind())
	}
	switch op {
	case opAdd:
		return adm.Double(lf + rf), nil
	case opSub:
		return adm.Double(lf - rf), nil
	case opMul:
		return adm.Double(lf * rf), nil
	case opDiv:
		if rf == 0 {
			return adm.Null, nil
		}
		return adm.Double(lf / rf), nil
	}
	if rf == 0 {
		return adm.Null, nil
	}
	return adm.Double(math.Mod(lf, rf)), nil
}

// fieldOf is base.field: missing unless base is an object that has it.
func fieldOf(base adm.Value, field string) adm.Value {
	if o, ok := base.(*adm.Object); ok {
		return o.Get(field)
	}
	return adm.Missing
}

// elemAt is base[idx]: missing unless idx is an integer inside the array
// or multiset base.
func elemAt(base, idx adm.Value) adm.Value {
	i, ok := adm.AsInt(idx)
	elems, isColl := asCollection(base)
	if !ok || !isColl || i < 0 || i >= int64(len(elems)) {
		return adm.Missing
	}
	return elems[i]
}

// fieldName is the name of a constructed object field.
func fieldName(v adm.Value) (string, error) {
	s, ok := v.(adm.String)
	if !ok {
		return "", evalErrf("object field name must be a string, got %s", v.Kind())
	}
	return string(s), nil
}

func negate(v adm.Value) (adm.Value, error) {
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
}

// isMask is the set of kinds (bit k = adm.Kind k) IS NULL|MISSING|UNKNOWN
// accepts; isKind tests a value against it.
func isMask(what string) uint {
	switch what {
	case "NULL":
		return 1 << adm.KindNull
	case "MISSING":
		return 1 << adm.KindMissing
	case "UNKNOWN":
		return 1<<adm.KindNull | 1<<adm.KindMissing
	}
	return 0
}

func isKind(mask uint, v adm.Value) bool { return mask&(1<<v.Kind()) != 0 }

func betweenTruth(v, lo, hi adm.Value, negate bool) truth {
	if v.Kind() <= adm.KindNull || lo.Kind() <= adm.KindNull || hi.Kind() <= adm.KindNull {
		return tNull
	}
	return boolTruth((adm.Compare(v, lo) >= 0 && adm.Compare(v, hi) <= 0) != negate)
}

func inTruth(v, coll adm.Value, negate bool) truth {
	elems, ok := asCollection(coll)
	if !ok {
		return tNull
	}
	found := false
	for _, e := range elems {
		if adm.Compare(e, v) == 0 {
			found = true
			break
		}
	}
	return boolTruth(found != negate)
}

// nonEmpty is EXISTS: true for a collection with at least one element.
func nonEmpty(v adm.Value) bool {
	elems, ok := asCollection(v)
	return ok && len(elems) > 0
}

// likeMatch implements SQL LIKE: % matches any run of characters, _ exactly
// one. It keeps a single backtrack point — the last % and the text position
// it has absorbed up to — because once a later % is reached no earlier one
// needs revisiting, so a match costs O(len(s)·len(pattern)) whatever the
// pattern looks like.
func likeMatch(s, pattern string) bool {
	si, pi := 0, 0
	starP, starS := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && pattern[pi] == '%':
			starP, starS = pi, si
			pi++
		case pi < len(pattern) && pattern[pi] == '_':
			si += runeLen(s[si:])
			pi++
		case pi < len(pattern) && pattern[pi] == s[si]:
			si++
			pi++
		case starP >= 0:
			// Mismatch after a %: let it absorb one more character.
			starS += runeLen(s[starS:])
			si, pi = starS, starP+1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// runeLen is the byte length of the first character of a non-empty s.
func runeLen(s string) int {
	if s[0] < utf8.RuneSelf {
		return 1
	}
	_, w := utf8.DecodeRuneInString(s)
	return w
}

// likeMatcher prepares a constant pattern once: the shapes that need no
// matching loop (no wildcard, or % only at the ends) become the strings
// function that decides them, everything else runs likeMatch.
func likeMatcher(pattern string) func(s string) bool {
	body := strings.Trim(pattern, "%")
	if strings.ContainsAny(body, "%_") {
		return func(s string) bool { return likeMatch(s, pattern) }
	}
	lead, trail := strings.HasPrefix(pattern, "%"), strings.HasSuffix(pattern, "%")
	switch {
	case body == "" && pattern != "":
		return func(string) bool { return true }
	case lead && trail:
		return func(s string) bool { return strings.Contains(s, body) }
	case lead:
		return func(s string) bool { return strings.HasSuffix(s, body) }
	case trail:
		return func(s string) bool { return strings.HasPrefix(s, body) }
	}
	return func(s string) bool { return s == body }
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
func (ev *Evaluator) materialize(name string) (adm.Value, error) {
	ds, ok := ev.Catalog.Resolve(name)
	if !ok {
		return nil, evalErrf("unknown dataset %q", name)
	}
	var out adm.Array
	for p := 0; p < ds.Partitions(); p++ {
		err := ds.Scan(p, func(rec Record) error {
			v, err := rec.Decode()
			if err == nil {
				out = append(out, v)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
