package algebricks

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"asterix/internal/adm"
	"asterix/internal/hyracks"
	"asterix/internal/sqlpp"
)

// memSource is an in-memory partitioned dataset for tests: record i lives
// on partition i%par, and pk names its primary key fields.
type memSource struct {
	name string
	par  int
	pk   []string
	recs []adm.Value
}

func (m *memSource) Name() string    { return m.name }
func (m *memSource) Partitions() int { return m.par }

// Scan serves both forms of the leaf seam, so that every query these tests
// run goes through both: even records as their stored bytes, which the leaf
// reads in place, odd ones as values.
func (m *memSource) Scan(p int, emit func(Record) error) error {
	return m.scan(p, func(i int, r adm.Value) error {
		if (i/m.par)%2 == 0 {
			return emit(Record{Stored: adm.EncodeValue(r)})
		}
		return emit(Record{Value: r})
	})
}

// scan visits the values of partition p.
func (m *memSource) scan(p int, visit func(i int, rec adm.Value) error) error {
	for i, r := range m.recs {
		if i%m.par == p {
			if err := visit(i, r); err != nil {
				return err
			}
		}
	}
	return nil
}

type memCatalog struct {
	sources map[string]*memSource
	indexes map[string]IndexAccessor // "dataset.field"
}

func (c *memCatalog) Resolve(name string) (DataSource, bool) {
	s, ok := c.sources[name]
	return s, ok
}
func (c *memCatalog) ResolveIndex(dataset, field string) (IndexAccessor, bool) {
	if s, ok := c.sources[dataset]; ok && len(s.pk) > 0 && s.pk[0] == field {
		return &memIndex{src: s, kind: "PRIMARY"}, true
	}
	ix, ok := c.indexes[dataset+"."+field]
	return ix, ok
}

// memIndex is a scan-backed index for tests: correct, not fast. Kind
// PRIMARY is the source's primary index (keyed on src.pk); the other
// kinds are secondary indexes on field.
type memIndex struct {
	src   *memSource
	field string
	kind  string
}

func (ix *memIndex) Kind() string { return ix.kind }
func (ix *memIndex) KeyFields() []string {
	if ix.kind == "PRIMARY" {
		return ix.src.pk
	}
	return []string{ix.field}
}

// keyOf returns the record's values of the index key fields (nil when one
// is null or missing: such records are not indexed).
func (ix *memIndex) keyOf(rec adm.Value) []adm.Value {
	o, ok := rec.(*adm.Object)
	if !ok {
		return nil
	}
	var key []adm.Value
	for _, f := range ix.KeyFields() {
		v := o.Get(f)
		if v.Kind() <= adm.KindNull {
			return nil
		}
		key = append(key, v)
	}
	return key
}

// boundTuple unpacks a search bound the way IndexAccessor documents it:
// an array over a key prefix on a composite key, else the value itself.
func (ix *memIndex) boundTuple(b adm.Value) []adm.Value {
	if arr, ok := b.(adm.Array); ok && len(ix.KeyFields()) > 1 {
		return arr
	}
	return []adm.Value{b}
}

// comparePrefix orders key against a bound over a prefix of its fields.
func comparePrefix(key, bound []adm.Value) int {
	for i, b := range bound {
		if c := adm.Compare(key[i], b); c != 0 {
			return c
		}
	}
	return 0
}

func (ix *memIndex) OwnerPartition(key adm.Value) (int, bool) {
	want := ix.boundTuple(key)
	if ix.kind != "PRIMARY" || len(want) != len(ix.src.pk) {
		return 0, false
	}
	for i, r := range ix.src.recs {
		if k := ix.keyOf(r); k != nil && comparePrefix(k, want) == 0 {
			return i % ix.src.par, true
		}
	}
	return 0, true // absent key: any one partition answers "no rows"
}

func (ix *memIndex) SearchRange(part int, lo, hi adm.Value, loInc, hiInc bool, emit func(Record) error) error {
	return ix.src.scan(part, func(_ int, rec adm.Value) error {
		key := ix.keyOf(rec)
		if key == nil {
			return nil
		}
		if lo != nil {
			if c := comparePrefix(key, ix.boundTuple(lo)); c < 0 || (c == 0 && !loInc) {
				return nil
			}
		}
		if hi != nil {
			if c := comparePrefix(key, ix.boundTuple(hi)); c > 0 || (c == 0 && !hiInc) {
				return nil
			}
		}
		return emit(Record{Stored: adm.EncodeValue(rec)})
	})
}
func (ix *memIndex) SearchSpatial(part int, rect adm.Rectangle, emit func(Record) error) error {
	return ix.src.scan(part, func(_ int, rec adm.Value) error {
		o, ok := rec.(*adm.Object)
		if !ok {
			return nil
		}
		p, ok := o.Get(ix.field).(adm.Point)
		if !ok {
			return nil
		}
		if p.X >= rect.MinX && p.X <= rect.MaxX && p.Y >= rect.MinY && p.Y <= rect.MaxY {
			return emit(Record{Stored: adm.EncodeValue(rec)})
		}
		return nil
	})
}
func (ix *memIndex) SearchKeyword(part int, token string, emit func(Record) error) error {
	return ix.src.scan(part, func(_ int, rec adm.Value) error {
		o, ok := rec.(*adm.Object)
		if !ok {
			return nil
		}
		s, ok := o.Get(ix.field).(adm.String)
		if !ok {
			return nil
		}
		for _, w := range strings.Fields(strings.ToLower(string(s))) {
			if strings.Trim(w, ".,!?") == strings.ToLower(token) {
				return emit(Record{Stored: adm.EncodeValue(rec)})
			}
		}
		return nil
	})
}

func testCatalog() *memCatalog {
	users := &memSource{name: "Users", par: 2, pk: []string{"id"}}
	for i := 0; i < 20; i++ {
		users.recs = append(users.recs, adm.NewObject(
			adm.Field{Name: "id", Value: adm.Int64(i)},
			adm.Field{Name: "name", Value: adm.String(fmt.Sprintf("user%02d", i))},
			adm.Field{Name: "age", Value: adm.Int64(20 + i%5)},
			adm.Field{Name: "tags", Value: adm.Array{adm.String("a"), adm.String(fmt.Sprintf("t%d", i%3))}},
		))
	}
	msgs := &memSource{name: "Messages", par: 2, pk: []string{"mid"}}
	for i := 0; i < 50; i++ {
		msgs.recs = append(msgs.recs, adm.NewObject(
			adm.Field{Name: "mid", Value: adm.Int64(i)},
			adm.Field{Name: "authorId", Value: adm.Int64(i % 20)},
			adm.Field{Name: "len", Value: adm.Int64(i * 3)},
		))
	}
	return &memCatalog{sources: map[string]*memSource{"Users": users, "Messages": msgs}}
}

// parseBound parses a query and binds its names, as the engine does before
// it translates or evaluates one.
func parseBound(t testing.TB, cat Catalog, src string) *sqlpp.QueryStmt {
	t.Helper()
	q, err := sqlpp.ParseQuery(src)
	if err == nil {
		err = Bind(q.Body, cat)
	}
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return q
}

func newEval(cat Catalog) *Evaluator {
	now, _ := adm.ParseDatetime("2019-04-01T00:00:00")
	return &Evaluator{Catalog: cat, Now: now}
}

func evalStr(t *testing.T, ev *Evaluator, src string) adm.Value {
	t.Helper()
	q, err := sqlpp.ParseQuery(src + ";")
	if err == nil {
		err = Bind(q.Body, ev.Catalog)
	}
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, err := ev.Eval(q.Body, NewEnv(nil, nil, nil))
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

var scalarCases = []exprCase{
	{`1 + 2 * 3`, `7`},
	{`(1 + 2) * 3`, `9`},
	{`10 / 4`, `2.5`},
	{`10 / 5`, `2`},
	{`7 % 3`, `1`},
	{`-(3 - 5)`, `2`},
	{`"a" || "b"`, `"ab"`},
	{`1 < 2 AND 2 < 3`, `true`},
	{`1 > 2 OR 2 > 3`, `false`},
	{`NOT false`, `true`},
	{`null = 1`, `null`},
	{`missing = 1`, `missing`},
	{`null IS NULL`, `true`},
	{`missing IS MISSING`, `true`},
	{`null IS UNKNOWN`, `true`},
	{`5 BETWEEN 1 AND 10`, `true`},
	{`5 NOT BETWEEN 1 AND 3`, `true`},
	{`2 IN [1, 2, 3]`, `true`},
	{`5 NOT IN [1, 2, 3]`, `true`},
	{`"hello" LIKE "he%"`, `true`},
	{`"hello" LIKE "h_llo"`, `true`},
	{`"hello" LIKE "x%"`, `false`},
	{`CASE WHEN 1 > 2 THEN "a" ELSE "b" END`, `"b"`},
	{`CASE 2 WHEN 1 THEN "one" WHEN 2 THEN "two" END`, `"two"`},
	{`[1, 2, 3][1]`, `2`},
	{`{"a": {"b": 7}}.a.b`, `7`},
	{`{"a": 1}.nope`, `missing`},
	{`SOME x IN [1, 2, 3] SATISFIES x > 2`, `true`},
	{`EVERY x IN [1, 2, 3] SATISFIES x > 0`, `true`},
	{`EVERY x IN [1, 2, 3] SATISFIES x > 1`, `false`},
	{`coll_count([1, 2, 3])`, `3`},
	{`coll_sum([1, 2, 3])`, `6`},
	{`array_contains([1, 2], 2)`, `true`},
	{`string_length("abc")`, `3`},
	{`upper("aBc")`, `"ABC"`},
	{`contains("hello world", "wor")`, `true`},
	{`ftcontains("Hello, world!", "WORLD")`, `true`},
	{`substring("abcdef", 1, 3)`, `"bcd"`},
	{`abs(-5)`, `5`},
	{`to_string(42)`, `"42"`},
	{`is_missing(missing)`, `true`},
	{`if_missing_or_null(missing, null, 3)`, `3`},
	{`spatial_distance(point(0, 0), point(3, 4))`, `5.0`},
	{`spatial_intersect(point(1, 1), create_rectangle(0, 0, 2, 2))`, `true`},
	{`get_year(datetime("2017-06-01T00:00:00"))`, `2017`},
	{`datetime("2017-01-31T00:00:00") + duration("P1D")`, `datetime("2017-02-01T00:00:00")`},
	{`range(1, 4)`, `[1,2,3,4]`},
}

func TestEvalScalarExpressions(t *testing.T) { checkExprCases(t, scalarCases) }

func TestIntervalBin(t *testing.T) {
	ev := newEval(nil)
	got := evalStr(t, ev, `SELECT VALUE interval_bin(datetime("2014-03-15T10:37:00"),
		datetime("2014-01-01T00:00:00"), duration("PT1H")) FROM [0] one`)
	want := `datetime("2014-03-15T10:00:00")`
	if got.(adm.Array)[0].String() != want {
		t.Errorf("interval_bin = %s, want %s", got, want)
	}
}

func TestInterpretSelectOverDataset(t *testing.T) {
	ev := newEval(testCatalog())
	got := evalStr(t, ev, `SELECT VALUE u.name FROM Users u WHERE u.id < 3 ORDER BY u.id`)
	arr := got.(adm.Array)
	if len(arr) != 3 {
		t.Fatalf("got %d rows", len(arr))
	}
	if arr[0].String() != `"user00"` || arr[2].String() != `"user02"` {
		t.Errorf("rows: %v", arr)
	}
}

func TestInterpretJoinAndGroup(t *testing.T) {
	ev := newEval(testCatalog())
	got := evalStr(t, ev, `
		SELECT u.name AS name, COUNT(m) AS cnt
		FROM Users u JOIN Messages m ON m.authorId = u.id
		WHERE u.id < 2
		GROUP BY u.name AS name
		ORDER BY name`)
	arr := got.(adm.Array)
	if len(arr) != 2 {
		t.Fatalf("groups: %d", len(arr))
	}
	// Messages 0..49, authorId = mid % 20 -> users 0..9 have 3 msgs.
	for _, row := range arr {
		o := row.(*adm.Object)
		if c, _ := adm.AsInt(o.Get("cnt")); c != 3 {
			t.Errorf("cnt = %v", o.Get("cnt"))
		}
	}
}

func TestInterpretLeftOuterJoin(t *testing.T) {
	ev := newEval(testCatalog())
	got := evalStr(t, ev, `
		SELECT VALUE m.mid
		FROM Users u LEFT OUTER JOIN Messages m ON m.authorId = u.id AND m.mid > 1000
		WHERE u.id = 0`)
	arr := got.(adm.Array)
	if len(arr) != 1 || arr[0].Kind() != adm.KindMissing {
		t.Fatalf("left outer mismatch: %v", arr)
	}
}

func TestInterpretUnnestAndGroupAs(t *testing.T) {
	ev := newEval(testCatalog())
	got := evalStr(t, ev, `
		SELECT t AS tag, COUNT(*) AS n
		FROM Users u UNNEST u.tags t
		GROUP BY t AS t
		ORDER BY t`)
	arr := got.(adm.Array)
	// tags: "a" on every user (20), t0/t1/t2 distributed.
	first := arr[0].(*adm.Object)
	if first.Get("tag").String() != `"a"` {
		t.Fatalf("first tag: %v", first)
	}
	if n, _ := adm.AsInt(first.Get("n")); n != 20 {
		t.Errorf(`count("a") = %d`, n)
	}
}

func TestInterpretImplicitGlobalAggregate(t *testing.T) {
	ev := newEval(testCatalog())
	got := evalStr(t, ev, `SELECT COUNT(*) AS n, MIN(u.age) AS lo, MAX(u.age) AS hi FROM Users u`)
	arr := got.(adm.Array)
	if len(arr) != 1 {
		t.Fatalf("rows: %d", len(arr))
	}
	o := arr[0].(*adm.Object)
	if n, _ := adm.AsInt(o.Get("n")); n != 20 {
		t.Errorf("n = %v", o.Get("n"))
	}
	if lo, _ := adm.AsInt(o.Get("lo")); lo != 20 {
		t.Errorf("lo = %v", o.Get("lo"))
	}
	if hi, _ := adm.AsInt(o.Get("hi")); hi != 24 {
		t.Errorf("hi = %v", o.Get("hi"))
	}
}

func TestInterpretSubqueryCorrelated(t *testing.T) {
	ev := newEval(testCatalog())
	got := evalStr(t, ev, `
		SELECT VALUE coll_count((SELECT VALUE m FROM Messages m WHERE m.authorId = u.id))
		FROM Users u WHERE u.id = 1`)
	arr := got.(adm.Array)
	if len(arr) != 1 {
		t.Fatalf("rows: %d", len(arr))
	}
	if n, _ := adm.AsInt(arr[0]); n != 3 {
		t.Errorf("correlated count = %v", arr[0])
	}
}

func TestInterpretDistinctAndLimit(t *testing.T) {
	ev := newEval(testCatalog())
	got := evalStr(t, ev, `SELECT DISTINCT VALUE u.age FROM Users u ORDER BY u.age LIMIT 3 OFFSET 1`)
	arr := got.(adm.Array)
	if len(arr) != 3 {
		t.Fatalf("rows: %v", arr)
	}
	if v, _ := adm.AsInt(arr[0]); v != 21 {
		t.Errorf("offset wrong: %v", arr)
	}
}

// --- Plan translation and rules ---

func translate(t *testing.T, cat Catalog, src string) Op {
	t.Helper()
	q := parseBound(t, cat, src+";")
	tr := &Translator{Ev: newEval(cat), Catalog: cat}
	plan, err := tr.Translate(q.Body.(*sqlpp.SelectExpr))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := NewOptimizer(nil).Optimize(tr, plan)
	return out
}

func TestRuleHashJoinRecognition(t *testing.T) {
	plan := translate(t, testCatalog(),
		`SELECT u.name, m.mid FROM Users u, Messages m WHERE m.authorId = u.id AND u.age > 21`)
	s := PlanString(plan)
	if !strings.Contains(s, "join[inner,hash]") {
		t.Errorf("expected hash join in plan:\n%s", s)
	}
	// The age filter should have been pushed below the join, into the leaf.
	joinIdx := strings.Index(s, "join[")
	selIdx := strings.LastIndex(s, "filter=(u.age > 21)")
	if selIdx < joinIdx {
		t.Errorf("selection not pushed below join:\n%s", s)
	}
}

func TestRuleQuantifierToSemijoin(t *testing.T) {
	plan := translate(t, testCatalog(),
		`SELECT VALUE u.name FROM Users u WHERE SOME m IN Messages SATISFIES m.authorId = u.id`)
	s := PlanString(plan)
	if !strings.Contains(s, "join[semi,hash]") {
		t.Errorf("expected hash semi join:\n%s", s)
	}
}

func TestPlanStringShape(t *testing.T) {
	plan := translate(t, testCatalog(), `SELECT VALUE u FROM Users u WHERE u.name = "user03"`)
	s := PlanString(plan)
	if !strings.Contains(s, "scan(Users as u)") {
		t.Errorf("plan:\n%s", s)
	}
}

// --- End-to-end jobgen execution ---

func runJob(t *testing.T, cat Catalog, src string) []adm.Value {
	t.Helper()
	return runJobCtx(context.Background(), t, cat, src)
}

func runJobCtx(ctx context.Context, t *testing.T, cat Catalog, src string) []adm.Value {
	t.Helper()
	cluster, err := hyracks.NewCluster(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return runJobOn(ctx, t, cat, src, cluster)
}

func runJobOn(ctx context.Context, t *testing.T, cat Catalog, src string, cluster *hyracks.Cluster) []adm.Value {
	t.Helper()
	q := parseBound(t, cat, src+";")
	ev := newEval(cat)
	tr := &Translator{Ev: ev, Catalog: cat}
	plan, err := tr.Translate(q.Body.(*sqlpp.SelectExpr))
	if err != nil {
		t.Fatal(err)
	}
	plan, _ = NewOptimizer(nil).Optimize(tr, plan)
	g := &JobGen{Cluster: cluster, Catalog: cat, Ev: ev, Parallelism: 2}
	coll := &hyracks.Collector{}
	job, err := g.Build(plan, coll)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(ctx, job); err != nil {
		t.Fatal(err)
	}
	var out []adm.Value
	for _, tp := range coll.Tuples() {
		out = append(out, tp[0])
	}
	return out
}

// jobMatchesInterp cross-checks the parallel job result against the
// serial interpreter (order-insensitively unless ORDER BY is present).
func jobMatchesInterp(t *testing.T, cat Catalog, src string, ordered bool) {
	t.Helper()
	assertMatchesInterp(t, cat, src, ordered, runJob(t, cat, src))
}

func assertMatchesInterp(t *testing.T, cat Catalog, src string, ordered bool, jobRes []adm.Value) {
	t.Helper()
	ev := newEval(cat)
	q := parseBound(t, cat, src+";")
	iv, err := ev.Eval(q.Body, NewEnv(nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	interpRes := []adm.Value(iv.(adm.Array))
	if len(jobRes) != len(interpRes) {
		t.Fatalf("job returned %d rows, interpreter %d\njob: %v\ninterp: %v",
			len(jobRes), len(interpRes), jobRes, interpRes)
	}
	a := make([]string, len(jobRes))
	b := make([]string, len(interpRes))
	for i := range jobRes {
		a[i] = adm.ToJSON(jobRes[i])
		b[i] = adm.ToJSON(interpRes[i])
	}
	if !ordered {
		sort.Strings(a)
		sort.Strings(b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs:\njob:    %s\ninterp: %s", i, a[i], b[i])
		}
	}
}

func TestJobEndToEnd(t *testing.T) {
	cat := testCatalog()
	queries := []struct {
		src     string
		ordered bool
	}{
		{`SELECT VALUE u.name FROM Users u WHERE u.id < 5`, false},
		{`SELECT VALUE u.name FROM Users u WHERE u.id < 5 ORDER BY u.name DESC`, true},
		{`SELECT u.name AS n, m.mid AS m FROM Users u, Messages m WHERE m.authorId = u.id AND u.id < 3`, false},
		{`SELECT u.age AS age, COUNT(*) AS n, SUM(u.id) AS s FROM Users u GROUP BY u.age AS age`, false},
		{`SELECT COUNT(*) AS n FROM Users u`, false},
		{`SELECT COUNT(*) AS n FROM Users u WHERE u.id > 1000`, false},
		{`SELECT DISTINCT VALUE u.age FROM Users u`, false},
		{`SELECT VALUE u.name FROM Users u ORDER BY u.id LIMIT 4 OFFSET 2`, true},
		{`SELECT VALUE t FROM Users u UNNEST u.tags t WHERE u.id = 1`, false},
		{`SELECT VALUE u.name FROM Users u WHERE SOME m IN Messages SATISFIES m.authorId = u.id AND m.len > 100`, false},
		{`SELECT u.name AS name, m.mid AS mid FROM Users u LEFT OUTER JOIN Messages m ON m.authorId = u.id WHERE u.id >= 18`, false},
		// ORDER BY reads a SELECT alias, in a nested block too, and above
		// DISTINCT an item's alias or expression is the result's field.
		{`SELECT u.name AS n FROM Users u WHERE u.id < 5 ORDER BY (SELECT VALUE n FROM [1] x)[0] DESC`, true},
		{`SELECT DISTINCT u.age AS a FROM Users u ORDER BY a DESC`, true},
		{`SELECT DISTINCT u.age AS a FROM Users u ORDER BY -u.age`, true},
		{`SELECT DISTINCT u.age AS a FROM Users u ORDER BY (SELECT VALUE -a FROM [1] u)[0]`, true},
		{`SELECT DISTINCT VALUE u.age FROM Users u ORDER BY u.age DESC`, true},
		{`SELECT DISTINCT a AS a, COUNT(*) AS n FROM Users u WHERE u.id < 7 GROUP BY u.age AS a ORDER BY COUNT(*) DESC, a`, true},
		// Under SELECT * each variable the star projects is the result's
		// field, and a WITH constant stays in scope.
		{`SELECT DISTINCT * FROM Users u ORDER BY u.id DESC`, true},
		{`SELECT DISTINCT * FROM Users u GROUP BY u.age AS a ORDER BY -a`, true},
		{`WITH k AS -1 SELECT DISTINCT VALUE u.age FROM Users u ORDER BY u.age * k`, true},
		// SELECT * projects the same fields on both engines: the WITH
		// variables, and in a grouped block no aggregate's variable.
		{`WITH k AS 1 SELECT * FROM Users u WHERE u.id < 3`, false},
		{`SELECT * FROM Users u GROUP BY u.age AS a ORDER BY COUNT(*), a`, true},
		{`SELECT a AS age, cnt AS c FROM Users u GROUP BY u.age AS a LET cnt = 1 SELECT a, cnt`, false},
	}
	for _, qc := range queries[:len(queries)-1] {
		t.Run(qc.src[:24], func(t *testing.T) {
			jobMatchesInterp(t, cat, qc.src, qc.ordered)
		})
	}
}

// Above SELECT DISTINCT, an ORDER BY item that reads a variable the block
// binds and does not project fails when the statement is bound, before
// either engine runs it, a nested block's included.
func TestDistinctOrderByOutOfScope(t *testing.T) {
	cat := testCatalog()
	for _, src := range []string{
		`SELECT DISTINCT u.id AS uid FROM Users u ORDER BY u.age`,
		`SELECT DISTINCT * FROM Users u GROUP BY u.age AS a ORDER BY u.id`,
		`SELECT VALUE (SELECT DISTINCT u.id AS uid FROM Users u ORDER BY (SELECT VALUE u.age FROM [1] x)[0])`,
	} {
		q, err := sqlpp.ParseQuery(src + ";")
		if err != nil {
			t.Fatal(err)
		}
		const want = `ORDER BY reads "u", which SELECT DISTINCT does not project`
		if err := Bind(q.Body, cat); err == nil || err.Error() != want {
			t.Errorf("binding %s: %v, want %q", src, err, want)
		}
	}
}

func TestJobGroupAs(t *testing.T) {
	cat := testCatalog()
	jobMatchesInterp(t, cat,
		`SELECT a AS age, COLL_COUNT(g) AS n FROM Users u GROUP BY u.age AS a GROUP AS g`, false)
}

func TestJobHavingAndOrderByAggregate(t *testing.T) {
	cat := testCatalog()
	jobMatchesInterp(t, cat,
		`SELECT u.age AS age, COUNT(*) AS n FROM Users u GROUP BY u.age AS age HAVING COUNT(*) >= 4 ORDER BY COUNT(*) DESC, age`, true)
}

func TestJobSelectStar(t *testing.T) {
	cat := testCatalog()
	res := runJob(t, cat, `SELECT * FROM Users u WHERE u.id = 7`)
	if len(res) != 1 {
		t.Fatalf("rows: %d", len(res))
	}
	o := res[0].(*adm.Object)
	inner, ok := o.Get("u").(*adm.Object)
	if !ok {
		t.Fatalf("star row: %v", o)
	}
	if id, _ := adm.AsInt(inner.Get("id")); id != 7 {
		t.Errorf("star content: %v", inner)
	}
}

func TestRuleSemijoinWithResidualUsesHash(t *testing.T) {
	// A quantifier whose SATISFIES mixes an equality with a range — the
	// Figure 3(c) shape — must still become a *hash* semi join (the range
	// conjuncts ride as a residual predicate).
	plan := translate(t, testCatalog(),
		`SELECT VALUE u.name FROM Users u
		 WHERE SOME m IN Messages SATISFIES m.authorId = u.id AND m.len > 50`)
	s := PlanString(plan)
	if !strings.Contains(s, "join[semi,hash]") {
		t.Errorf("expected hash semi join with residual:\n%s", s)
	}
}
