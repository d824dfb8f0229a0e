package algebricks

import (
	"math"
	"sort"
	"strings"
	"time"

	"asterix/internal/adm"
	"asterix/internal/hyracks"
	"asterix/internal/sqlpp"
)

// evalCall dispatches built-in function calls. Aggregate functions
// evaluated in scalar position receive a collection argument (their
// COLL_-style semantics); under GROUP BY the translator rewrites them to
// runtime aggregates before this path is reached.
func (ev *Evaluator) evalCall(x *sqlpp.Call, env *Env) (adm.Value, error) {
	args := make([]adm.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := ev.Eval(a, env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return ev.callFn(x.Fn, args, x.Distinct)
}

// fnCall is one invocation of a built-in function.
type fnCall struct {
	ev       *Evaluator
	fn       string
	args     []adm.Value
	distinct bool
}

func (c fnCall) str(i int) (string, bool) {
	s, ok := c.args[i].(adm.String)
	return string(s), ok
}

func (c fnCall) anyUnknown() bool {
	for _, a := range c.args {
		if a.Kind() <= adm.KindNull {
			return true
		}
	}
	return false
}

// builtin is an entry of the function table: the argument count it insists
// on (-1: the implementation checks) and the implementation.
type builtin struct {
	arity int
	impl  func(c fnCall) (adm.Value, error)
}

// builtins maps every name a function answers to — filled once, at start-up,
// by init below — so that a compiled call resolves its function once and
// the interpreter with one map lookup.
var builtins = map[string]*builtin{}

// register enters one implementation under space-separated names.
func register(names string, arity int, impl func(c fnCall) (adm.Value, error)) {
	b := &builtin{arity: arity, impl: impl}
	for _, n := range strings.Fields(names) {
		builtins[n] = b
	}
}

// callFn applies the built-in function fn.
func (ev *Evaluator) callFn(fn string, args []adm.Value, distinct bool) (adm.Value, error) {
	return builtins[fn].call(fnCall{ev: ev, fn: fn, args: args, distinct: distinct})
}

func (b *builtin) call(c fnCall) (adm.Value, error) {
	if err := b.check(c.fn, len(c.args)); err != nil {
		return nil, err
	}
	return b.impl(c)
}

// check fails a call of fn with n arguments that the table cannot answer:
// an unknown name, or a fixed arity that n misses.
func (b *builtin) check(fn string, n int) error {
	switch {
	case b == nil:
		return evalErrf("unknown function %q", fn)
	case b.arity >= 0 && n != b.arity:
		return evalErrf("%s expects %d argument(s), got %d", fn, b.arity, n)
	}
	return nil
}

func init() {
	// --- Constructors (ADM's extended types). ---
	register("datetime", 1, func(c fnCall) (adm.Value, error) {
		if dt, ok := c.args[0].(adm.Datetime); ok {
			return dt, nil
		}
		s, ok := c.str(0)
		if !ok {
			return adm.Null, nil
		}
		dt, err := adm.ParseDatetime(s)
		if err != nil {
			return adm.Null, nil
		}
		return dt, nil
	})
	register("date", 1, func(c fnCall) (adm.Value, error) {
		s, ok := c.str(0)
		if !ok {
			return adm.Null, nil
		}
		d, err := adm.ParseDate(s)
		if err != nil {
			return adm.Null, nil
		}
		return d, nil
	})
	register("time", 1, func(c fnCall) (adm.Value, error) {
		s, ok := c.str(0)
		if !ok {
			return adm.Null, nil
		}
		t, err := adm.ParseTime(s)
		if err != nil {
			return adm.Null, nil
		}
		return t, nil
	})
	register("duration", 1, func(c fnCall) (adm.Value, error) {
		s, ok := c.str(0)
		if !ok {
			return adm.Null, nil
		}
		d, err := adm.ParseDuration(s)
		if err != nil {
			return adm.Null, nil
		}
		return d, nil
	})
	register("point", 2, func(c fnCall) (adm.Value, error) {
		xf, ok1 := adm.AsFloat(c.args[0])
		yf, ok2 := adm.AsFloat(c.args[1])
		if !ok1 || !ok2 {
			return adm.Null, nil
		}
		return adm.Point{X: xf, Y: yf}, nil
	})
	register("create_rectangle rectangle", 4, func(c fnCall) (adm.Value, error) {
		var f [4]float64
		for i := range f {
			v, ok := adm.AsFloat(c.args[i])
			if !ok {
				return adm.Null, nil
			}
			f[i] = v
		}
		return adm.Rectangle{MinX: f[0], MinY: f[1], MaxX: f[2], MaxY: f[3]}, nil
	})
	register("current_datetime", -1, func(c fnCall) (adm.Value, error) {
		return c.ev.Now, nil
	})
	register("current_date", -1, func(c fnCall) (adm.Value, error) {
		return adm.Date(int64(c.ev.Now) / (24 * 3600 * 1000)), nil
	})
	// --- Temporal accessors. ---
	register("get_year year", 1, func(c fnCall) (adm.Value, error) {
		if dt, ok := c.args[0].(adm.Datetime); ok {
			return adm.Int64(time.UnixMilli(int64(dt)).UTC().Year()), nil
		}
		if d, ok := c.args[0].(adm.Date); ok {
			return adm.Int64(time.Unix(int64(d)*24*3600, 0).UTC().Year()), nil
		}
		return adm.Null, nil
	})
	register("get_month month", 1, func(c fnCall) (adm.Value, error) {
		if dt, ok := c.args[0].(adm.Datetime); ok {
			return adm.Int64(int(time.UnixMilli(int64(dt)).UTC().Month())), nil
		}
		if d, ok := c.args[0].(adm.Date); ok {
			return adm.Int64(int(time.Unix(int64(d)*24*3600, 0).UTC().Month())), nil
		}
		return adm.Null, nil
	})
	register("get_day day", 1, func(c fnCall) (adm.Value, error) {
		if dt, ok := c.args[0].(adm.Datetime); ok {
			return adm.Int64(time.UnixMilli(int64(dt)).UTC().Day()), nil
		}
		return adm.Null, nil
	})
	register("get_interval_bin interval_bin", 3, func(c fnCall) (adm.Value, error) {
		// interval_bin(dt, origin, duration): the start of dt's bin —
		// the temporal binning the paper's Section V-D user study needed.
		dt, ok1 := c.args[0].(adm.Datetime)
		origin, ok2 := c.args[1].(adm.Datetime)
		dur, ok3 := c.args[2].(adm.Duration)
		if !ok1 || !ok2 || !ok3 || (dur.Millis == 0 && dur.Months == 0) {
			return adm.Null, nil
		}
		if dur.Months != 0 {
			// Month-granularity binning.
			t0 := time.UnixMilli(int64(origin)).UTC()
			t := time.UnixMilli(int64(dt)).UTC()
			months := (t.Year()-t0.Year())*12 + int(t.Month()) - int(t0.Month())
			bins := months / int(dur.Months)
			if months < 0 && months%int(dur.Months) != 0 {
				bins--
			}
			return adm.AddDuration(origin, adm.Duration{Months: int32(bins) * dur.Months}), nil
		}
		delta := int64(dt) - int64(origin)
		bins := delta / dur.Millis
		if delta < 0 && delta%dur.Millis != 0 {
			bins--
		}
		return adm.Datetime(int64(origin) + bins*dur.Millis), nil
	})
	register("duration_ms ms_from_duration", 1, func(c fnCall) (adm.Value, error) {
		// Millisecond image of a duration (months converted at 30 days,
		// as in the duration total order).
		d, ok := c.args[0].(adm.Duration)
		if !ok {
			return adm.Null, nil
		}
		return adm.Int64(int64(d.Months)*30*24*3600*1000 + d.Millis), nil
	})
	register("datetime_to_ms unix_time_from_datetime_in_ms", 1, func(c fnCall) (adm.Value, error) {
		dt, ok := c.args[0].(adm.Datetime)
		if !ok {
			return adm.Null, nil
		}
		return adm.Int64(int64(dt)), nil
	})
	register("datetime_from_ms datetime_from_unix_time_in_ms", 1, func(c fnCall) (adm.Value, error) {
		i, ok := adm.AsInt(c.args[0])
		if !ok {
			return adm.Null, nil
		}
		return adm.Datetime(i), nil
	})
	// --- Strings. ---
	register("lower lowercase", 1, func(c fnCall) (adm.Value, error) {
		s, ok := c.str(0)
		if !ok {
			return adm.Null, nil
		}
		return adm.String(strings.ToLower(s)), nil
	})
	register("upper uppercase", 1, func(c fnCall) (adm.Value, error) {
		s, ok := c.str(0)
		if !ok {
			return adm.Null, nil
		}
		return adm.String(strings.ToUpper(s)), nil
	})
	register("string_length length", 1, func(c fnCall) (adm.Value, error) {
		s, ok := c.str(0)
		if !ok {
			return adm.Null, nil
		}
		return adm.Int64(len(s)), nil
	})
	register("contains", 2, func(c fnCall) (adm.Value, error) {
		s, ok1 := c.str(0)
		sub, ok2 := c.str(1)
		if !ok1 || !ok2 {
			return adm.Null, nil
		}
		return adm.Boolean(strings.Contains(s, sub)), nil
	})
	register("ftcontains", 2, func(c fnCall) (adm.Value, error) {
		// Full-text containment: token membership (keyword index).
		s, ok1 := c.str(0)
		w, ok2 := c.str(1)
		if !ok1 || !ok2 {
			return adm.Null, nil
		}
		for _, tok := range Tokenize(s) {
			if tok == strings.ToLower(w) {
				return adm.Boolean(true), nil
			}
		}
		return adm.Boolean(false), nil
	})
	register("starts_with", 2, func(c fnCall) (adm.Value, error) {
		s, ok1 := c.str(0)
		pre, ok2 := c.str(1)
		if !ok1 || !ok2 {
			return adm.Null, nil
		}
		return adm.Boolean(strings.HasPrefix(s, pre)), nil
	})
	register("ends_with", 2, func(c fnCall) (adm.Value, error) {
		s, ok1 := c.str(0)
		suf, ok2 := c.str(1)
		if !ok1 || !ok2 {
			return adm.Null, nil
		}
		return adm.Boolean(strings.HasSuffix(s, suf)), nil
	})
	register("substring substr", -1, func(c fnCall) (adm.Value, error) {
		if len(c.args) < 2 || len(c.args) > 3 {
			return nil, evalErrf("substring expects 2 or 3 arguments")
		}
		s, ok := c.str(0)
		if !ok {
			return adm.Null, nil
		}
		start, ok := adm.AsInt(c.args[1])
		if !ok {
			return adm.Null, nil
		}
		if start < 0 {
			start = 0
		}
		if start > int64(len(s)) {
			start = int64(len(s))
		}
		end := int64(len(s))
		if len(c.args) == 3 {
			n, ok := adm.AsInt(c.args[2])
			if !ok {
				return adm.Null, nil
			}
			end = start + n
			if end > int64(len(s)) {
				end = int64(len(s))
			}
		}
		return adm.String(s[start:end]), nil
	})
	register("split", 2, func(c fnCall) (adm.Value, error) {
		s, ok1 := c.str(0)
		sep, ok2 := c.str(1)
		if !ok1 || !ok2 {
			return adm.Null, nil
		}
		var out adm.Array
		for _, part := range strings.Split(s, sep) {
			out = append(out, adm.String(part))
		}
		return out, nil
	})
	register("to_string string", 1, func(c fnCall) (adm.Value, error) {
		if s, ok := c.args[0].(adm.String); ok {
			return s, nil
		}
		return adm.String(c.args[0].String()), nil
	})
	// --- Numerics. ---
	register("abs", 1, func(c fnCall) (adm.Value, error) {
		switch n := c.args[0].(type) {
		case adm.Int64:
			if n < 0 {
				return -n, nil
			}
			return n, nil
		case adm.Double:
			return adm.Double(math.Abs(float64(n))), nil
		}
		return adm.Null, nil
	})
	register("floor ceil round sqrt", 1, func(c fnCall) (adm.Value, error) {
		f, ok := adm.AsFloat(c.args[0])
		if !ok {
			return adm.Null, nil
		}
		switch c.fn {
		case "floor":
			return adm.Double(math.Floor(f)), nil
		case "ceil":
			return adm.Double(math.Ceil(f)), nil
		case "round":
			return adm.Double(math.Round(f)), nil
		default:
			return adm.Double(math.Sqrt(f)), nil
		}
	})
	register("to_bigint to_number int", 1, func(c fnCall) (adm.Value, error) {
		if i, ok := adm.AsInt(c.args[0]); ok {
			return adm.Int64(i), nil
		}
		return adm.Null, nil
	})
	// --- Collections (COLL_* and friends). ---
	register("coll_count array_count len", 1, func(c fnCall) (adm.Value, error) {
		if elems, ok := asCollection(c.args[0]); ok {
			return adm.Int64(len(elems)), nil
		}
		return adm.Null, nil
	})
	register("coll_sum array_sum coll_min array_min coll_max array_max coll_avg array_avg "+strings.Join(sqlpp.Aggregates, " "), 1, func(c fnCall) (adm.Value, error) {
		// Scalar (COLL_-style) aggregate over a collection argument.
		elems, ok := asCollection(c.args[0])
		if !ok {
			if c.anyUnknown() {
				return adm.Null, nil
			}
			return nil, evalErrf("%s expects a collection, got %s", c.fn, c.args[0].Kind())
		}
		fn := strings.TrimPrefix(c.fn, "coll_")
		if !sqlpp.IsAggregate(fn) {
			fn = strings.TrimPrefix(fn, "array_")
		}
		spec, err := aggSpecFor(AggRef{Fn: fn, Distinct: c.distinct}, 0)
		if err != nil {
			return nil, err
		}
		return hyracks.Fold(spec, elems)
	})
	register("field_collect", 2, func(c fnCall) (adm.Value, error) {
		// field_collect(groupAs, "name"): project one field out of a
		// GROUP AS collection (AQL's with-variable lowering).
		elems, ok := asCollection(c.args[0])
		if !ok {
			return adm.Null, nil
		}
		name, ok := c.str(1)
		if !ok {
			return adm.Null, nil
		}
		var out adm.Array
		for _, e := range elems {
			if o, ok := e.(*adm.Object); ok {
				out = append(out, o.Get(name))
			}
		}
		return out, nil
	})
	register("array_contains", 2, func(c fnCall) (adm.Value, error) {
		elems, ok := asCollection(c.args[0])
		if !ok {
			return adm.Null, nil
		}
		for _, e := range elems {
			if adm.Compare(e, c.args[1]) == 0 {
				return adm.Boolean(true), nil
			}
		}
		return adm.Boolean(false), nil
	})
	register("array_distinct", 1, func(c fnCall) (adm.Value, error) {
		elems, ok := asCollection(c.args[0])
		if !ok {
			return adm.Null, nil
		}
		return adm.Array(dedupe(elems)), nil
	})
	register("range", 2, func(c fnCall) (adm.Value, error) {
		lo, ok1 := adm.AsInt(c.args[0])
		hi, ok2 := adm.AsInt(c.args[1])
		if !ok1 || !ok2 {
			return adm.Null, nil
		}
		var out adm.Array
		for i := lo; i <= hi; i++ {
			out = append(out, adm.Int64(i))
		}
		return out, nil
	})
	// --- Spatial. ---
	register("spatial_intersect", 2, func(c fnCall) (adm.Value, error) {
		return spatialIntersect(c.args[0], c.args[1])
	})
	register("spatial_distance", 2, func(c fnCall) (adm.Value, error) {
		p1, ok1 := c.args[0].(adm.Point)
		p2, ok2 := c.args[1].(adm.Point)
		if !ok1 || !ok2 {
			return adm.Null, nil
		}
		return adm.Double(math.Hypot(p1.X-p2.X, p1.Y-p2.Y)), nil
	})
	register("get_x", 1, func(c fnCall) (adm.Value, error) {
		if p, ok := c.args[0].(adm.Point); ok {
			return adm.Double(p.X), nil
		}
		return adm.Null, nil
	})
	register("get_y", 1, func(c fnCall) (adm.Value, error) {
		if p, ok := c.args[0].(adm.Point); ok {
			return adm.Double(p.Y), nil
		}
		return adm.Null, nil
	})
	// --- Objects. ---
	register("object_names", 1, func(c fnCall) (adm.Value, error) {
		if o, ok := c.args[0].(*adm.Object); ok {
			var out adm.Array
			for _, f := range o.Fields() {
				out = append(out, adm.String(f.Name))
			}
			return out, nil
		}
		return adm.Null, nil
	})
	register("object_remove", 2, func(c fnCall) (adm.Value, error) {
		o, ok1 := c.args[0].(*adm.Object)
		name, ok2 := c.str(1)
		if !ok1 || !ok2 {
			return adm.Null, nil
		}
		return o.Without(name), nil
	})
	register("object_merge", 2, func(c fnCall) (adm.Value, error) {
		a, ok1 := c.args[0].(*adm.Object)
		b, ok2 := c.args[1].(*adm.Object)
		if !ok1 || !ok2 {
			return adm.Null, nil
		}
		out := adm.NewObject(a.Fields()...)
		for _, f := range b.Fields() {
			out.Set(f.Name, f.Value)
		}
		return out, nil
	})
	register("is_missing", 1, func(c fnCall) (adm.Value, error) {
		return adm.Boolean(c.args[0].Kind() == adm.KindMissing), nil
	})
	register("is_null", 1, func(c fnCall) (adm.Value, error) {
		return adm.Boolean(c.args[0].Kind() == adm.KindNull), nil
	})
	register("if_missing_or_null coalesce", -1, func(c fnCall) (adm.Value, error) {
		for _, a := range c.args {
			if a.Kind() > adm.KindNull {
				return a, nil
			}
		}
		return adm.Null, nil
	})
}

func dedupe(elems []adm.Value) []adm.Value {
	sorted := append([]adm.Value(nil), elems...)
	sort.Slice(sorted, func(i, j int) bool { return adm.Compare(sorted[i], sorted[j]) < 0 })
	var out []adm.Value
	for i, e := range sorted {
		if i == 0 || adm.Compare(e, sorted[i-1]) != 0 {
			out = append(out, e)
		}
	}
	return out
}

func spatialIntersect(a, b adm.Value) (adm.Value, error) {
	rect := func(v adm.Value) (adm.Rectangle, bool) {
		switch x := v.(type) {
		case adm.Rectangle:
			return x, true
		case adm.Point:
			return adm.Rectangle{MinX: x.X, MinY: x.Y, MaxX: x.X, MaxY: x.Y}, true
		}
		return adm.Rectangle{}, false
	}
	ra, ok1 := rect(a)
	rb, ok2 := rect(b)
	if !ok1 || !ok2 {
		return adm.Null, nil
	}
	return adm.Boolean(ra.Intersects(rb)), nil
}

// Tokenize splits text into lower-cased word tokens, the maximal runs of
// ASCII letters and digits (the keyword index's tokenizer).
func Tokenize(s string) []string {
	var out []string
	var tok []byte
	for pos, ok := 0, true; ; {
		if tok, pos, ok = NextToken(tok[:0], s, pos); !ok {
			return out
		}
		out = append(out, string(tok))
	}
}

// NextToken appends to dst, which must be empty, the first token of s at or
// after pos, lower-cased, and returns where the search goes on; ok is false
// when s has no more tokens.
func NextToken(dst []byte, s string, pos int) (tok []byte, next int, ok bool) {
	for ; pos < len(s); pos++ {
		c := s[pos]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
			dst = append(dst, c)
		} else if len(dst) > 0 {
			break
		}
	}
	return dst, pos, len(dst) > 0
}
