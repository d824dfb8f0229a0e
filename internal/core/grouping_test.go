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
	for _, cfg := range []Config{{}, {OptimizerOff: true}} {
		e := newEngine(t, cfg)
		seedEquivData(t, e)
		if got := strings.Join(sortedRows(t, e, q), "\n"); got != want {
			t.Errorf("OptimizerOff=%v:\n got %s\nwant %s", cfg.OptimizerOff, got, want)
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
