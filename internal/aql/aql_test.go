package aql

import (
	"testing"

	"asterix/internal/algebricks"
	"asterix/internal/sqlpp"
)

func TestParseBasicFLWOR(t *testing.T) {
	q, err := Parse(`
		for $u in dataset GleambookUsers
		where $u.id > 100
		order by $u.name desc
		limit 10
		return {"name": $u.name, "id": $u.id}
	`)
	if err != nil {
		t.Fatal(err)
	}
	sel := q.Body.(*sqlpp.SelectExpr)
	if len(sel.From) != 1 || sel.From[0].Alias != "$u" {
		t.Fatalf("from: %+v", sel.From)
	}
	ds, ok := sel.From[0].Expr.(*sqlpp.VarRef)
	if !ok || ds.Name != "GleambookUsers" {
		t.Fatalf("dataset ref: %+v", sel.From[0].Expr)
	}
	if sel.Where == nil || sel.Select.Value == nil {
		t.Fatal("where/return missing")
	}
	if len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Fatalf("order: %+v", sel.OrderBy)
	}
	if sel.Limit == nil {
		t.Fatal("limit missing")
	}
}

func TestParseMultipleForsAndLet(t *testing.T) {
	q, err := Parse(`
		for $u in dataset Users
		for $m in dataset Messages
		let $len := string_length($m.message)
		where $m.authorId = $u.id and $len > 10
		return {"user": $u.name, "len": $len}
	`)
	if err != nil {
		t.Fatal(err)
	}
	sel := q.Body.(*sqlpp.SelectExpr)
	if len(sel.From) != 2 {
		t.Fatalf("from terms: %d", len(sel.From))
	}
	if len(sel.Lets) != 1 || sel.Lets[0].Var != "$len" {
		t.Fatalf("lets: %+v", sel.Lets)
	}
}

func TestParseGroupByWith(t *testing.T) {
	q, err := Parse(`
		for $m in dataset Messages
		group by $a := $m.authorId with $m
		return {"author": $a, "cnt": count($m)}
	`)
	if err != nil {
		t.Fatal(err)
	}
	sel := q.Body.(*sqlpp.SelectExpr)
	if len(sel.GroupBy) != 1 || sel.GroupBy[0].Alias != "$a" {
		t.Fatalf("group by: %+v", sel.GroupBy)
	}
	if sel.GroupAs == "" {
		t.Fatal("group as binding missing")
	}
	// count($m) stays a SQL-style aggregate over the grouped variable
	// (the group-by operator computes it over pre-group rows).
	obj := sel.Select.Value.(*sqlpp.ObjectConstructor)
	cnt := obj.Fields[1].Value.(*sqlpp.Call)
	if cnt.Fn != "count" {
		t.Fatalf("cnt fn: %s", cnt.Fn)
	}
	if vr, ok := cnt.Args[0].(*sqlpp.VarRef); !ok || vr.Name != "$m" {
		t.Fatalf("aggregate arg: %T %v", cnt.Args[0], cnt.Args[0])
	}
}

// TestNonAggregateWithVarUsesGroupAs checks that a grouped variable read
// outside an aggregate becomes the GROUP AS collection under every kind of
// expression, quantifier bodies included unless they rebind the name.
func TestNonAggregateWithVarUsesGroupAs(t *testing.T) {
	const m = `field_collect($aql_group, "$m")`
	for _, c := range []struct{ ret, want string }{
		{`{"author": $a, "lens": coll_count($m)}`, `{"author": $a, "lens": coll_count(` + m + `)}`},
		{`$m[0].messageId between 0 and 100`, `(` + m + `[0].messageId between 0 and 100)`},
		{`case when $m[0].x > 1 then $m else 0 end`, `case when (` + m + `[0].x > 1) then ` + m + ` else 0 end`},
		{`1 in $m`, `(1 in ` + m + `)`},
		{`$m[0] is null`, `(` + m + `[0] is NULL)`},
		{`some $x in $m satisfies $x.k = $m[0].k`, `some $x in ` + m + ` satisfies ($x.k = ` + m + `[0].k)`},
		{`every $m in $m satisfies $m.k > $a`, `every $m in ` + m + ` satisfies ($m.k > $a)`},
		{`count($m)`, `count($m)`},
	} {
		q, err := Parse(`for $m in dataset Messages group by $a := $m.authorId with $m return ` + c.ret)
		if err != nil {
			t.Fatalf("%s: %v", c.ret, err)
		}
		if got := algebricks.ExprString(q.Body.(*sqlpp.SelectExpr).Select.Value); got != c.want {
			t.Errorf("return %s\n got %s\nwant %s", c.ret, got, c.want)
		}
	}
}

func TestParseDatasetFunctionForm(t *testing.T) {
	q, err := Parse(`for $x in dataset("Users") return $x`)
	if err != nil {
		t.Fatal(err)
	}
	sel := q.Body.(*sqlpp.SelectExpr)
	ds := sel.From[0].Expr.(*sqlpp.VarRef)
	if ds.Name != "Users" {
		t.Fatalf("dataset: %s", ds.Name)
	}
}

// The lexer makes "dataset" a keyword in any letter case, so every spelling
// takes the DATASET branch, and a backquoted `dataset` is an identifier:
// a variable the binder will look up like any other.
func TestParseDatasetKeywordAnyCase(t *testing.T) {
	for _, src := range []string{
		`for $x in dataset Users return $x`,
		`for $x in DataSet Users return $x`,
		`for $x in DATASET("Users") return $x`,
	} {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if ds := q.Body.(*sqlpp.SelectExpr).From[0].Expr.(*sqlpp.VarRef); ds.Name != "Users" {
			t.Errorf("%s: source %q, want Users", src, ds.Name)
		}
	}
	q, err := Parse("for $x in `dataset` return $x")
	if err != nil {
		t.Fatal(err)
	}
	if v := q.Body.(*sqlpp.SelectExpr).From[0].Expr.(*sqlpp.VarRef); v.Name != "dataset" {
		t.Errorf("backquoted dataset: source %q, want the name dataset", v.Name)
	}
	if _, err := Parse(`for $x in dataset(1) return $x`); err == nil {
		t.Error("dataset(1) should fail: the name must be a string literal")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`return 1`,                        // no for
		`for u in dataset Users return u`, // var without $
		`for $u in dataset Users`,         // no return
		`for $u in dataset Users return $u extra`,
		`for $u in dataset Users let $x = 1 return $u`, // = instead of :=
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestDistinctReturn(t *testing.T) {
	q, err := Parse(`for $u in dataset Users distinct return $u.name`)
	if err != nil {
		t.Fatal(err)
	}
	sel := q.Body.(*sqlpp.SelectExpr)
	if !sel.Select.Distinct {
		t.Error("distinct not set")
	}
}
