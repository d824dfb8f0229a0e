package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"asterix/internal/aql"
)

// TestGroupKeyInsideQuantifierIn checks, with and without the optimizer,
// that a GROUP BY key read in a quantifier's IN is replaced by its key
// variable, as it is anywhere else in the block.
func TestGroupKeyInsideQuantifierIn(t *testing.T) {
	const q = `SELECT (SOME v IN [u.id] SATISFIES v > 1) AS s, COUNT(*) AS n
		FROM GleambookUsers u WHERE u.id < 3 GROUP BY u.id;`
	want := `{"s":false,"n":1}` + "\n" + `{"s":false,"n":1}` + "\n" + `{"s":true,"n":1}`
	for name, cfg := range map[string]Config{"optimized": {}, "unoptimized": unoptimized(Config{})} {
		e := newEngine(t, cfg)
		seedEquivData(t, e)
		if got := strings.Join(sortedRows(t, e, q), "\n"); got != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestOrderByAliasInNestedBlock checks, with and without the optimizer,
// that a block nested in ORDER BY reads the SELECT aliases it does not bind
// itself, each the value of its expression in the enclosing scope: an alias
// named like the variable another alias's expression reads does not
// capture that read, in a grouped block an alias is its aggregate's or
// group key's variable, and above DISTINCT the alias is the result's field.
func TestOrderByAliasInNestedBlock(t *testing.T) {
	for name, cfg := range map[string]Config{"optimized": {}, "unoptimized": unoptimized(Config{})} {
		e := newEngine(t, cfg)
		seedEquivData(t, e)
		for q, want := range map[string]string{
			`SELECT u.id AS uid FROM GleambookUsers u WHERE u.id < 4 ORDER BY (SELECT VALUE -uid FROM [1] x)[0];`:                                                           `{"uid":3} {"uid":2} {"uid":1} {"uid":0}`,
			`SELECT VALUE (SELECT u.id AS uid FROM GleambookUsers u WHERE u.id < 3 ORDER BY (SELECT VALUE -uid FROM [1] u)[0]);`:                                            `[{"uid":2},{"uid":1},{"uid":0}]`,
			`SELECT a.alias AS a, a.id AS b FROM GleambookUsers a WHERE a.id < 3 ORDER BY (SELECT VALUE [-b, a] FROM [1] x)[0];`:                                            `{"a":"user002","b":2} {"a":"user001","b":1} {"a":"user000","b":0}`,
			`SELECT DISTINCT u.id % 3 AS k FROM GleambookUsers u ORDER BY (SELECT VALUE -k FROM [1] u)[0];`:                                                                 `{"k":2} {"k":1} {"k":0}`,
			`SELECT u.id % 3 AS k, COUNT(*) AS n FROM GleambookUsers u WHERE u.id < 7 GROUP BY u.id % 3 AS g ORDER BY (SELECT VALUE [-n, -k] FROM [1] x)[0];`:               `{"k":0,"n":3} {"k":2,"n":2} {"k":1,"n":2}`,
			`SELECT VALUE (SELECT u.id % 3 AS k, COUNT(*) AS n FROM GleambookUsers u WHERE u.id < 7 GROUP BY u.id % 3 AS g ORDER BY (SELECT VALUE [-n, k] FROM [1] u)[0]);`: `[{"k":0,"n":3},{"k":1,"n":2},{"k":2,"n":2}]`,
		} {
			if got := strings.Join(orderedRows(t, e, q), " "); got != want {
				t.Errorf("%s: %s\n got %s\nwant %s", name, q, got, want)
			}
		}
	}
}

// TestAQLWithVarUnderBetween runs an AQL query whose grouped variable is
// read under BETWEEN through the engine: the read becomes the GROUP AS
// collection.
func TestAQLWithVarUnderBetween(t *testing.T) {
	e := newEngine(t, Config{})
	seedEquivData(t, e)
	q, err := aql.Parse(`for $m in dataset GleambookMessages where $m.authorId < 2
		group by $a := $m.authorId with $m
		order by $a
		return {"a": $a, "x": $m[0].messageId between 0 and 100}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.QueryAST(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range res.Rows {
		got = append(got, r.String())
	}
	if want := `{"a":0,"x":true}|{"a":1,"x":true}`; strings.Join(got, "|") != want {
		t.Errorf("got %s, want %s", strings.Join(got, "|"), want)
	}
}

// TestGroupKeyInNestedScopes pins the rows of statements whose nested
// scopes — a quantifier's body, a nested block, an EXISTS in SELECT and in
// HAVING, a block nested in ORDER BY — read a group key's expression, and of
// a block nested in an ORDER BY above SELECT DISTINCT that reads an item's
// expression. Each reads the grouped value or the result's field, with and
// without the optimizer; the corpus checks that every engine agrees.
func TestGroupKeyInNestedScopes(t *testing.T) {
	for name, cfg := range map[string]Config{"optimized": {}, "unoptimized": unoptimized(Config{})} {
		e := newEngine(t, cfg)
		seedEquivData(t, e)
		for _, c := range []struct {
			q, want string
			ordered bool
		}{
			{`SELECT g, (SOME x IN [0, 2] SATISFIES x = u.id % 3) AS s FROM GleambookUsers u WHERE u.id < 6 GROUP BY u.id % 3 AS g;`,
				`{"g":0,"s":true} {"g":1,"s":false} {"g":2,"s":true}`, false},
			{`SELECT g, (SELECT VALUE u.id % 3 + x FROM [10, 20] x) AS s FROM GleambookUsers u WHERE u.id < 6 GROUP BY u.id % 3 AS g;`,
				`{"g":0,"s":[10,20]} {"g":1,"s":[11,21]} {"g":2,"s":[12,22]}`, false},
			{`SELECT g, EXISTS (SELECT VALUE x FROM [1, 2] x WHERE x = u.id % 3) AS e FROM GleambookUsers u WHERE u.id < 6 GROUP BY u.id % 3 AS g;`,
				`{"g":0,"e":false} {"g":1,"e":true} {"g":2,"e":true}`, false},
			{`SELECT g, COUNT(*) AS n FROM GleambookUsers u WHERE u.id < 6 GROUP BY u.id % 3 AS g HAVING EXISTS (SELECT VALUE x FROM [1, 2] x WHERE x = u.id % 3);`,
				`{"g":1,"n":2} {"g":2,"n":2}`, false},
			{`SELECT g FROM GleambookUsers u WHERE u.id < 6 GROUP BY u.id % 3 AS g ORDER BY (SELECT VALUE -(u.id % 3) FROM [1] x)[0];`,
				`{"g":2} {"g":1} {"g":0}`, true},
			{`SELECT DISTINCT u.id AS a FROM GleambookUsers u WHERE u.id < 3 ORDER BY (SELECT VALUE -u.id FROM [1] x)[0];`,
				`{"a":2} {"a":1} {"a":0}`, true},
		} {
			rows := orderedRows(t, e, c.q)
			if !c.ordered {
				rows = sortedRows(t, e, c.q)
			}
			if got := strings.Join(rows, " "); got != c.want {
				t.Errorf("%s: %s\n got %s\nwant %s", name, c.q, got, c.want)
			}
		}
	}
}

// TestGroupAsHoldsRowVariables pins the last four corpus statements, each
// pair at the top level and one block down. The first pair is a GROUP AS
// over FROM, UNNEST and LET variables beside a WITH item: both engines hold
// the same row variables in each element and never the WITH item. In the
// second, a LET variable is missing, and no element holds it.
func TestGroupAsHoldsRowVariables(t *testing.T) {
	stmts := readCorpus(t, "../sqlpp/testdata/corpus/equivalence.sql")
	stmts = stmts[len(stmts)-4:]
	e := newEngine(t, Config{})
	seedEquivData(t, e)
	var user [2]string
	for id := range user {
		user[id] = orderedRows(t, e, fmt.Sprintf(`SELECT VALUE u FROM GleambookUsers u WHERE u.id = %d;`, id))[0]
	}
	elems := func(id int) string {
		return fmt.Sprintf(`[{"u":%[1]s,"f":%[2]d,"i":%[4]d},{"u":%[1]s,"f":%[3]d,"i":%[4]d}]`, user[id], id+1, id+2, id*10)
	}
	for i, want := range []string{
		elems(0) + "\n" + elems(1),
		"[" + elems(0) + "," + elems(1) + "]",
		`["m"]`,
		`[["m"]]`,
	} {
		if got := strings.Join(orderedRows(t, e, stmts[i]), "\n"); got != want {
			t.Errorf("%s\n got %s\nwant %s", stmts[i], got, want)
		}
	}
}
