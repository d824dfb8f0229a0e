package algebricks

import (
	"testing"

	"asterix/internal/adm"
)

// exprCase is a scalar expression and the rendering of its value. The
// tables are package-level so that TestCompiledMatchesInterpreted runs every
// one of them through the compiled path too.
type exprCase struct{ src, want string }

func checkExprCases(t *testing.T, cases []exprCase) {
	t.Helper()
	ev := newEval(nil)
	for _, c := range cases {
		got := evalStr(t, ev, "SELECT VALUE "+c.src+" FROM [0] one")
		arr := got.(adm.Array)
		if len(arr) != 1 || arr[0].String() != c.want {
			t.Errorf("%s = %s, want %s", c.src, got, c.want)
		}
	}
}

// Three-valued logic truth table for AND/OR with null/missing operands.
var threeValuedCases = []exprCase{
	{`true AND null`, `null`},
	{`false AND null`, `false`},
	{`null AND null`, `null`},
	{`true OR null`, `true`},
	{`false OR null`, `null`},
	{`null OR null`, `null`},
	{`true AND missing`, `null`},
	{`false OR missing`, `null`},
	{`NOT null`, `null`},
	{`NOT missing`, `missing`},
	{`missing AND false`, `false`},
	{`missing OR true`, `true`},
}

func TestThreeValuedLogic(t *testing.T) {
	checkExprCases(t, threeValuedCases)
}

var unknownPropagationCases = []exprCase{
	{`1 + null`, `null`},
	{`1 + missing`, `missing`},
	{`null || "x"`, `null`},
	{`missing < 3`, `missing`},
	{`null BETWEEN 1 AND 2`, `null`},
	{`"x" LIKE null`, `null`},
	{`-null`, `null`},
	{`5 IN null`, `null`},
	{`coll_count(null)`, `null`},
	{`upper(missing)`, `null`},
}

func TestNullMissingPropagation(t *testing.T) {
	checkExprCases(t, unknownPropagationCases)
}

func TestMissingFieldsOmittedFromObjects(t *testing.T) {
	ev := newEval(nil)
	got := evalStr(t, ev, `SELECT VALUE {"a": 1, "b": missing, "c": null} FROM [0] one`)
	o := got.(adm.Array)[0].(*adm.Object)
	if o.Has("b") {
		t.Error("missing-valued field must be omitted from constructed objects")
	}
	if !o.Has("c") || o.Get("c").Kind() != adm.KindNull {
		t.Error("null-valued field must be kept")
	}
}

func TestComputedObjectFieldNames(t *testing.T) {
	ev := newEval(nil)
	got := evalStr(t, ev, `SELECT VALUE {"k" || "1": 10} FROM [0] one`)
	o := got.(adm.Array)[0].(*adm.Object)
	if v, _ := adm.AsInt(o.Get("k1")); v != 10 {
		t.Errorf("computed field name: %v", o)
	}
}

var divisionCases = []exprCase{
	{`1 / 0`, `null`},
	{`1.5 / 0`, `null`},
	{`7 % 0`, `null`},
	{`7 / 2`, `3.5`},
	{`8 / 2`, `4`},
	// A double remainder is fmod: it used to truncate both sides to integers
	// first, and panicked when the divisor truncated to zero.
	{`0 % 0.1`, `0.0`},
	{`7.5 % 2`, `1.5`},
	{`-7.5 % 2`, `-1.5`},
}

func TestDivisionEdgeCases(t *testing.T) {
	checkExprCases(t, divisionCases)
}

func TestQuantifierEmptyCollection(t *testing.T) {
	ev := newEval(nil)
	got := evalStr(t, ev, `SELECT VALUE SOME x IN [] SATISFIES x > 0 FROM [0] one`)
	if got.(adm.Array)[0].String() != "false" {
		t.Error("SOME over empty is false")
	}
	got = evalStr(t, ev, `SELECT VALUE EVERY x IN [] SATISFIES x > 0 FROM [0] one`)
	if got.(adm.Array)[0].String() != "true" {
		t.Error("EVERY over empty is true")
	}
}

func TestDatetimeArithmetic(t *testing.T) {
	ev := newEval(nil)
	got := evalStr(t, ev, `SELECT VALUE datetime("2019-04-01T00:00:00") - datetime("2019-03-02T00:00:00") FROM [0] one`)
	if got.(adm.Array)[0].String() != `duration("P30D")` {
		t.Errorf("datetime difference: %s", got.(adm.Array)[0])
	}
}
