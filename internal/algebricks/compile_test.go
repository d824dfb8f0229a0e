package algebricks

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"asterix/internal/adm"
	"asterix/internal/hyracks"
	"asterix/internal/sqlpp"
)

// readCorpus reads one of the statement files under
// internal/sqlpp/testdata/corpus, which the tests of several packages
// share: statements are separated by blank lines, and a line starting with
// "--" (always directly above a statement) is a comment.
func readCorpus(t testing.TB, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := regexp.MustCompile(`(?m)^--.*\n`).ReplaceAllString(string(data), "")
	return strings.Split(strings.TrimSpace(text), "\n\n")
}

// The rows compiled and interpreted evaluation are compared on: records
// with nested, optional and mixed-type fields under the names the corpora
// use, plus scalar columns of every kind the operators branch on. n is bound
// twice: the later column shadows the earlier, as in an Env.
var compileSchema = []string{"u", "m", "c", "n", "s", "a", "g", "cnt", "n"}

func compileRows() []hyracks.Tuple {
	dt, _ := adm.ParseDatetime("2014-02-03T04:05:06")
	user := func(id int64, extra ...adm.Field) adm.Value {
		fields := append([]adm.Field{
			{Name: "id", Value: adm.Int64(id)},
			{Name: "name", Value: adm.String(fmt.Sprintf("user%02d", id))},
			{Name: "alias", Value: adm.String(fmt.Sprintf("al%d", id%3))},
			{Name: "age", Value: adm.Int64(20 + id%5)},
			{Name: "userSince", Value: dt},
			{Name: "friendIds", Value: adm.Array{adm.Int64(id + 1), adm.Int64(3)}},
			{Name: "tags", Value: adm.Multiset{adm.String("a"), adm.String("t1")}},
			{Name: "employment", Value: adm.Array{adm.NewObject(adm.Field{Name: "organizationName", Value: adm.String("org")})}},
		}, extra...)
		return adm.NewObject(fields...)
	}
	msg := func(id int64, text string, extra ...adm.Field) adm.Value {
		fields := append([]adm.Field{
			{Name: "messageId", Value: adm.Int64(id)},
			{Name: "authorId", Value: adm.Int64(id % 1000)},
			{Name: "message", Value: adm.String(text)},
			{Name: "mid", Value: adm.Int64(id)},
			{Name: "len", Value: adm.Double(float64(id) * 1.5)},
		}, extra...)
		return adm.NewObject(fields...)
	}
	checkin := adm.NewObject(adm.Field{Name: "uid", Value: adm.Int64(3)}, adm.Field{Name: "day", Value: adm.Int64(2)},
		adm.Field{Name: "place", Value: adm.String("p1")})
	return []hyracks.Tuple{
		{user(1), msg(2, "a message about topic3"), checkin, adm.String("shadowed"), adm.String("hello"), adm.Array{adm.Int64(1), adm.Int64(2)}, adm.Int64(1), adm.Int64(4), adm.Int64(7)},
		{user(12, adm.Field{Name: "nick", Value: adm.Null}), msg(1001, "verizon sprint tmobile x", adm.Field{Name: "topic", Value: adm.String("topic3")}),
			checkin, adm.Double(2.5), adm.String(""), adm.Array{}, adm.String("g"), adm.Int64(0), adm.Double(2.5)},
		{user(300), msg(4, "héllo wörld", adm.Field{Name: "senderLocation", Value: adm.Point{X: 1, Y: 2}}),
			adm.Null, adm.Null, adm.String("user03"), adm.Multiset{adm.String("x"), adm.Null}, adm.Null, adm.Missing, adm.Null},
		{adm.Missing, adm.Int64(5), adm.Missing, adm.Missing, adm.Int64(3), adm.String("not an array"), adm.Boolean(true), adm.Double(-1), adm.Missing},
		{adm.Array{user(2)}, adm.String("m"), checkin, adm.String("7"), adm.Boolean(false), adm.Array{adm.Array{adm.Int64(1)}, adm.Null}, dt, adm.Int64(300), adm.String("7")},
	}
}

// sameResult reports whether two evaluations agree: both fail with the same
// error, or both yield the same kind and an equal value (NaN equals itself
// by its rendering).
func sameResult(a adm.Value, aerr error, b adm.Value, berr error) bool {
	if aerr != nil || berr != nil {
		return aerr != nil && berr != nil && aerr.Error() == berr.Error()
	}
	return a.Kind() == b.Kind() && (adm.Equal(a, b) || a.String() == b.String())
}

// checkCompiled evaluates e on every row three ways — interpreted, compiled
// over one tuple, and compiled as a condition over the row split in two at
// every position — and reports the first disagreement.
func checkCompiled(ev *Evaluator, e sqlpp.Expr, rows []hyracks.Tuple) error {
	value := ev.compile(e, schemaOf(compileSchema...))
	for i, row := range rows {
		env := NewEnv(nil, compileSchema, row)
		want, werr := ev.Eval(e, env)
		got, gerr := value(row, nil)
		if !sameResult(want, werr, got, gerr) {
			return fmt.Errorf("row %d: compiled %v (%v), interpreted %v (%v)", i, got, gerr, want, werr)
		}
		holds, herr := ev.truthyExpr(e, env)
		for split := 0; split <= len(row); split += len(row) / 2 {
			pred := ev.compilePred(e, schemaOf(compileSchema[:split]...), schemaOf(compileSchema[split:]...))
			ok, err := pred(row[:split], row[split:])
			if ok != holds || (err != nil) != (herr != nil) {
				return fmt.Errorf("row %d split %d: condition compiled %v (%v), interpreted %v (%v)", i, split, ok, err, holds, herr)
			}
		}
	}
	return nil
}

// selectExprs lists the expressions a SELECT block evaluates per row.
func selectExprs(sel *sqlpp.SelectExpr) []sqlpp.Expr {
	var out []sqlpp.Expr
	add := func(e sqlpp.Expr) {
		if e != nil {
			out = append(out, e)
		}
	}
	add(sel.Where)
	add(sel.Having)
	add(sel.Select.Value)
	for _, it := range sel.Select.Items {
		add(it.Expr)
	}
	for _, o := range sel.OrderBy {
		add(o.Expr)
	}
	for _, g := range sel.GroupBy {
		add(g.Expr)
	}
	for _, l := range sel.Lets {
		add(l.Expr)
	}
	for _, ft := range sel.From {
		for _, link := range ft.Links {
			add(link.On)
		}
	}
	return out
}

// exprGen builds random expressions of bounded depth over compileSchema.
type exprGen struct{ r *rand.Rand }

func (g exprGen) pick(options ...string) string { return options[g.r.Intn(len(options))] }

func (g exprGen) leaf() string {
	return g.pick(`1`, `0`, `2.5`, `-3`, `300`, `"user03"`, `"a%"`, `"%o w%"`, `"h_llo"`, `""`, `true`, `false`, `null`, `missing`,
		`[1, 2, "x"]`, `[]`, `{"k": 1}`, `{"id": u.id, "gone": m.nope, s: n}`, `[u.id, n]`, `{{s, 1}}`, `u`, `m`, `n`, `s`, `a`, `g`, `cnt`, `u.id`, `u.name`, `u.nick`, `u.nope`, `m.message`,
		`m.messageId`, `m.authorId`, `m.len`, `m.topic`, `u.friendIds`, `u.friendIds[0]`, `u.employment[0].organizationName`, `a[1]`, `c.day`)
}

func (g exprGen) expr(depth int) string {
	if depth == 0 || g.r.Intn(5) == 0 {
		return g.leaf()
	}
	x, y, z := g.expr(depth-1), g.expr(depth-1), g.expr(depth-1)
	switch g.r.Intn(16) {
	case 0:
		return fmt.Sprintf("(%s %s %s)", x, g.pick("+", "-", "*", "/", "%", "||"), y)
	case 1:
		return fmt.Sprintf("(%s %s %s)", x, g.pick("/", "%"), g.pick("0", "0.0", y))
	case 2:
		return fmt.Sprintf("(%s %s %s)", x, g.pick("=", "!=", "<", "<=", ">", ">="), y)
	case 3:
		return fmt.Sprintf("(%s %s %s)", x, g.pick("AND", "OR"), y)
	case 4:
		return fmt.Sprintf("(NOT %s)", x)
	case 5:
		return fmt.Sprintf("(- %s)", x)
	case 6:
		return fmt.Sprintf("(%s LIKE %s)", x, g.pick(`"%user%"`, `"user0_"`, `"%"`, `"%é%"`, `"a message%"`, `"%x"`, y))
	case 7:
		return fmt.Sprintf("(%s %sBETWEEN %s AND %s)", x, g.pick("", "NOT "), y, z)
	case 8:
		return fmt.Sprintf("(%s %sIN %s)", x, g.pick("", "NOT "), g.pick(`[1, 2.5, "user03", null]`, "a", "u.friendIds", y))
	case 9:
		return fmt.Sprintf("(CASE WHEN %s THEN %s ELSE %s END)", x, y, z)
	case 10:
		return fmt.Sprintf("(CASE %s WHEN %s THEN %s WHEN 1 THEN 0 END)", x, y, z)
	case 11:
		return fmt.Sprintf("(%s IS %s%s)", x, g.pick("", "NOT "), g.pick("NULL", "MISSING", "UNKNOWN"))
	case 12:
		return fmt.Sprintf("%s(%s)", g.pick("upper", "string_length", "abs", "coll_count", "to_string", "is_missing", "sqrt", "nosuchfn"), x)
	case 13:
		return fmt.Sprintf("%s(%s, %s)", g.pick("contains", "array_contains", "if_missing_or_null", "substring", "split"), x, y)
	case 14: // one quantifier and one correlated subquery: the fallback path
		return fmt.Sprintf("(%s f IN %s SATISFIES f > %s)", g.pick("SOME", "EVERY"), g.pick("u.friendIds", "a", x), y)
	default:
		return fmt.Sprintf("coll_count((SELECT VALUE f FROM %s f WHERE f = %s))", g.pick("u.friendIds", "a"), x)
	}
}

func parseExpr(t testing.TB, src string) sqlpp.Expr {
	t.Helper()
	q, err := sqlpp.ParseQuery("SELECT VALUE " + src + ";")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q.Body.(*sqlpp.SelectExpr).Select.Value
}

// TestCompiledMatchesInterpreted is the gate that lets two evaluators
// exist: everything jobgen compiles must evaluate exactly as Eval does.
func TestCompiledMatchesInterpreted(t *testing.T) {
	ev := newEval(testCatalog())
	rows := compileRows()

	t.Run("tables", func(t *testing.T) {
		for _, cases := range [][]exprCase{scalarCases, threeValuedCases, unknownPropagationCases, divisionCases} {
			for _, c := range cases {
				e := parseExpr(t, c.src)
				if got, err := ev.compile(e, schemaOf())(nil, nil); err != nil || got.String() != c.want {
					t.Errorf("compiled %s = %v (%v), want %s", c.src, got, err, c.want)
				}
				if err := checkCompiled(ev, e, rows); err != nil {
					t.Errorf("%s: %v", c.src, err)
				}
			}
		}
	})

	t.Run("corpus", func(t *testing.T) {
		n := 0
		for _, src := range readCorpus(t, "../sqlpp/testdata/corpus/equivalence.sql") {
			q, err := sqlpp.ParseQuery(src)
			if err != nil {
				t.Fatalf("parse %s: %v", src, err)
			}
			for _, e := range selectExprs(q.Body.(*sqlpp.SelectExpr)) {
				n++
				if err := checkCompiled(ev, e, rows); err != nil {
					t.Errorf("%s in %s: %v", ExprString(e), src, err)
				}
			}
		}
		if n < 100 {
			t.Errorf("only %d corpus expressions checked", n)
		}
	})

	t.Run("generated", func(t *testing.T) {
		g := exprGen{r: rand.New(rand.NewSource(23))}
		errs := 0
		for i := 0; i < 4000; i++ {
			src := g.expr(1 + i%4)
			e := parseExpr(t, src)
			if err := checkCompiled(ev, e, rows); err != nil {
				t.Errorf("%s: %v", src, err)
			}
			if _, err := ev.compile(e, schemaOf(compileSchema...))(rows[0], nil); err != nil {
				errs++
			}
		}
		if errs == 0 || errs > 3000 {
			t.Errorf("%d of 4000 generated expressions fail on the first row: the generator should reach both outcomes", errs)
		}
	})
}

// A constant subtree whose evaluation fails must fail per row, not at build
// time: the same query over empty input succeeds.
func TestCompiledConstantErrorIsPerRow(t *testing.T) {
	cat := testCatalog()
	ev := newEval(cat)
	bad := parseExpr(t, `(1 || 2) = u.name`)
	f := ev.compile(bad, schemaOf(compileSchema...)) // must not fail or panic here
	if _, err := f(compileRows()[0], nil); err == nil || !strings.Contains(err.Error(), "requires strings") {
		t.Errorf("per-row error = %v", err)
	}
	cluster, err := hyracks.NewCluster(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := func(src string) (int, error) {
		q := parseBound(t, cat, src)
		tr := &Translator{Ev: ev, Catalog: cat}
		plan, err := tr.Translate(q.Body.(*sqlpp.SelectExpr))
		if err != nil {
			t.Fatal(err)
		}
		plan, _ = NewOptimizer(nil).Optimize(tr, plan)
		coll := &hyracks.Collector{}
		job, err := (&JobGen{Cluster: cluster, Catalog: cat, Ev: ev, Parallelism: 2}).Build(plan, coll)
		if err != nil {
			return 0, err
		}
		err = cluster.Run(context.Background(), job)
		return len(coll.Tuples()), err
	}
	if n, err := run(`SELECT VALUE 1 || 2 FROM Users u WHERE u.id < 0;`); err != nil || n != 0 {
		t.Errorf("empty input: %d rows, %v", n, err)
	}
	if n, err := run(`SELECT VALUE 1 || 2 FROM Users u LIMIT 0;`); err == nil && n != 0 {
		t.Errorf("LIMIT 0 returned %d rows", n)
	}
	if _, err := run(`SELECT VALUE 1 || 2 FROM Users u;`); err == nil {
		t.Error("a failing projection over real rows must fail the query")
	}
}

// Jobgen's fold is the one place a constant subtree becomes a value (no
// optimizer rule folds): each constant below compiles to its value, the
// interpreter's, and not to a closure run per tuple. A constant whose
// evaluation fails, and an expression that reads a column, stay closures.
func TestCompileFoldsConstants(t *testing.T) {
	ev := newEval(testCatalog())
	c := compiler{ev: ev, l: schemaOf(compileSchema...)}
	for _, src := range []string{
		`1 + 2`,
		`1 = 1 AND NOT (2 > 3)`,
		`{"a": 1 + 1, "b": [upper("x"), -2.5, null], "c": {"d": "e" || "f"}}`,
		`coll_count([1, 2, 3]) * 2`,
	} {
		e := parseExpr(t, src)
		want, err := ev.Eval(e, NewEnv(nil, nil, nil))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := c.compile(e); got.fn != nil || got.lit.String() != want.String() {
			t.Errorf("%s compiles to a closure or to %v, want the value %v", src, got.lit, want)
		}
	}
	for _, src := range []string{`1 || 2`, `u.id < 1 + 2`} {
		if got := c.compile(parseExpr(t, src)); got.fn == nil {
			t.Errorf("%s compiles to the value %v, want a closure", src, got.lit)
		}
	}
}

// The exponential case of the old matcher, and the shapes of pattern the
// prepared matcher special-cases, against the general one.
func TestLikeMatch(t *testing.T) {
	n := 10000
	start := time.Now()
	if likeMatch(strings.Repeat("a", n), strings.Repeat("%a", 10)+"%b") {
		t.Error("no b in the text")
	}
	if !likeMatch(strings.Repeat("a", n)+"b", strings.Repeat("%a", 10)+"%b") {
		t.Error("text ends in b")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("backtracking pattern over %d characters took %v", n, d)
	}
	cases := []struct {
		s, p string
		want bool
	}{
		{"", "", true}, {"", "%", true}, {"", "%%", true}, {"", "_", false}, {"a", "", false},
		{"abc", "abc", true}, {"abc", "ab", false}, {"abc", "a_c", true}, {"abc", "a__c", false}, {"abc", "___", true},
		{"abc", "%", true}, {"abc", "%%", true}, {"abc", "a%", true}, {"abc", "%c", true}, {"abc", "%b%", true},
		{"abc", "%%b%%", true}, {"abc", "b%", false}, {"abc", "%b", false}, {"abc", "%d%", false},
		{"abc", "a%c", true}, {"abcbc", "a%bc", true}, {"abcbd", "a%bc", false}, {"abc", "_%_%_", true}, {"ab", "_%_%_", false},
		{"aXbXc", "%X%X%", true}, {"mississippi", "m%iss%pi", true}, {"mississippi", "m%iss%pix", false},
		// _ is one character, not one byte; % may absorb whole characters only.
		{"é", "_", true}, {"é", "__", false}, {"€", "%__", false}, {"héllo", "h_llo", true}, {"héllo wörld", "%o w_r%", true},
		{"日本語", "___", true}, {"日本語", "%本%", true}, {"日本語", "_本_", true}, {"日本語", "日%", true}, {"日本語", "%日", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
		if got := likeMatcher(c.p)(c.s); got != c.want {
			t.Errorf("likeMatcher(%q)(%q) = %v, want %v", c.p, c.s, got, c.want)
		}
	}
}

// FuzzCompiledExpr parses arbitrary text and requires that whatever
// expressions it holds compile, never panic, and evaluate as Eval does.
func FuzzCompiledExpr(f *testing.F) {
	for _, s := range readCorpus(f, "../sqlpp/testdata/corpus/fuzz_seeds.sql") {
		f.Add(s)
	}
	for _, s := range readCorpus(f, "../sqlpp/testdata/corpus/equivalence.sql")[:8] {
		f.Add(s)
	}
	ev := newEval(nil)
	rows := compileRows()
	f.Fuzz(func(t *testing.T, src string) {
		if strings.Contains(strings.ToLower(src), "range") {
			t.Skip("range(1, 1e12) allocates its result in either evaluator")
		}
		stmts, err := sqlpp.ParseScript(src)
		if err != nil {
			return
		}
		for _, st := range stmts {
			q, ok := st.(*sqlpp.QueryStmt)
			if !ok {
				continue
			}
			exprs := []sqlpp.Expr{q.Body}
			if sel, ok := q.Body.(*sqlpp.SelectExpr); ok {
				exprs = selectExprs(sel)
			}
			for _, e := range exprs {
				if err := checkCompiled(ev, e, rows); err != nil {
					t.Errorf("%s: %v", ExprString(e), err)
				}
			}
		}
	})
}

// The benchmark's four hot expressions, interpreted as jobgen used to run
// them (an Env per row, then Eval) and compiled.
func BenchmarkCompiledExpr(b *testing.B) {
	ev := newEval(nil)
	schema := []string{"m"}
	rows := make([]hyracks.Tuple, 1024)
	for i := range rows {
		text := fmt.Sprintf("message %d about verizon sprint and tmobile plans, nothing else", i)
		if i%300 == 0 {
			text += " verizon sprint tmobile"
		}
		rows[i] = hyracks.Tuple{adm.NewObject(
			adm.Field{Name: "messageId", Value: adm.Int64(i)},
			adm.Field{Name: "authorId", Value: adm.Int64(i * 37 % 20000)},
			adm.Field{Name: "message", Value: adm.String(text)},
		)}
	}
	for _, c := range []struct{ name, src string }{
		{"like", `m.message LIKE '%verizon sprint tmobile%'`},
		{"mod_eq", `m.messageId % 2 = 0`},
		{"mod", `m.authorId % 1000`},
		{"object", `{"messageId": m.messageId, "message": m.message}`},
	} {
		e := parseExpr(b, c.src)
		b.Run(c.name+"/interpreted", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Eval(e, NewEnv(nil, schema, rows[i%len(rows)])); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/build", func(b *testing.B) { // what jobgen pays once per statement
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev.compilePred(e, schemaOf(schema...), schemaOf())
			}
		})
		b.Run(c.name+"/compiled", func(b *testing.B) {
			fn := ev.compile(e, schemaOf(schema...))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fn(rows[i%len(rows)], nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
