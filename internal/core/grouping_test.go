package core

import (
	"context"
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
