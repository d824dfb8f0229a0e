package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"asterix/internal/adm"
)

// TestAggregateOneAnswer runs every aggregate over groups of every shape on
// every route a query takes to it — a top-level SELECT, a GROUP BY, a join
// under a group-by (the groupjoin), a nested subquery (the interpreter), the
// ARRAY_ function and the unoptimized plan — and requires one answer per
// aggregate and group: the same value, or the same error.
func TestAggregateOneAnswer(t *testing.T) {
	groups := []struct {
		name string
		xs   []string // ADM literals of x; "" leaves x missing
	}{
		{"numbers", []string{"1", "2.5", "-4", "2.5", "0.25"}},
		{"numbers and a string", []string{"2", `"x"`, "5"}},
		{"arrays", []string{"[1]", "[2]", "[1]"}},
		{"null and missing", []string{"null", ""}},
		{"empty", nil},
		{"near 2^63", []string{"9223372036854775807", "1", "9223372036854775806"}},
	}
	// A few answers are pinned as well: agreement alone cannot tell a
	// wrong answer every route gives.
	want := map[string]string{
		"SUM(x)/numbers and a string":          "error: sum over non-numeric string",
		"AVG(x)/numbers and a string":          "error: avg over non-numeric string",
		"SUM(DISTINCT x)/numbers and a string": "error: sum over non-numeric string",
		"SUM(x)/arrays":                        "error: sum over non-numeric array",
		"SUM(x)/near 2^63":                     "-2",
		"AVG(x)/near 2^63":                     "6.148914691236517e+18",
		"COUNT(x)/null and missing":            "0",
		"SUM(x)/null and missing":              "null",
		"COUNT(*)/null and missing":            "2",
		"COUNT(*)/empty":                       "0",
	}

	on := newEngine(t, Config{})
	off := newEngine(t, unoptimized(Config{}))
	mustExec(t, on, `CREATE TYPE AggT AS {id: int};
		CREATE DATASET AggK(AggT) PRIMARY KEY id;
		UPSERT INTO AggK ({"id": 1});`)
	rowsOf := make([]string, len(groups))
	for gi, g := range groups {
		var rows []string
		for i, x := range g.xs {
			if x == "" {
				rows = append(rows, fmt.Sprintf(`{"id": %d, "g": 1}`, i))
			} else {
				rows = append(rows, fmt.Sprintf(`{"id": %d, "g": 1, "x": %s}`, i, x))
			}
		}
		rowsOf[gi] = "[" + strings.Join(rows, ", ") + "]"
		mustExec(t, on, fmt.Sprintf(`CREATE DATASET AggV%d(AggT) PRIMARY KEY id;`, gi))
		if len(rows) > 0 {
			mustExec(t, on, fmt.Sprintf(`UPSERT INTO AggV%d (%s);`, gi, rowsOf[gi]))
		}
	}

	// answer runs q and renders its one row, or its error's own message
	// without the operators' prefixes.
	answer := func(t *testing.T, e *Engine, q string, multiset bool) (string, *Result) {
		t.Helper()
		res, err := e.Query(context.Background(), q)
		if err != nil {
			msg := err.Error()
			return "error: " + msg[strings.LastIndex(msg, ": ")+2:], nil
		}
		if len(res.Rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", q, len(res.Rows))
		}
		v := res.Rows[0]
		if arr, ok := v.(adm.Array); ok && multiset {
			arr = append(adm.Array(nil), arr...)
			sort.SliceStable(arr, func(i, j int) bool { return adm.Compare(arr[i], arr[j]) < 0 })
			v = arr
		}
		return v.String(), res
	}

	type agg struct{ fn, distinct string }
	aggs := []agg{{"COUNT", "*"}}
	for _, fn := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX", "ARRAY_AGG"} {
		aggs = append(aggs, agg{fn, ""}, agg{fn, "DISTINCT "})
	}
	for _, a := range aggs {
		// call applies the aggregate to arg; COUNT(*) has none.
		call := func(arg string) string {
			if a.distinct == "*" {
				return "COUNT(*)"
			}
			return a.fn + "(" + a.distinct + arg + ")"
		}
		for gi, g := range groups {
			name := call("x") + "/" + g.name
			t.Run(name, func(t *testing.T) {
				rows, multiset := rowsOf[gi], a.fn == "ARRAY_AGG"
				routes := map[string]string{}
				run := func(route string, e *Engine, q string) *Result {
					var res *Result
					routes[route], res = answer(t, e, q, multiset)
					return res
				}
				top := fmt.Sprintf(`SELECT VALUE %s FROM %s AS r;`, call("r.x"), rows)
				run("select", on, top)
				run("optimizer off", off, top)
				run("subquery", on, fmt.Sprintf(`SELECT VALUE (SELECT VALUE %s FROM %s AS r)[0];`, call("r.x"), rows))
				if a.fn != "COUNT" && a.fn != "ARRAY_AGG" {
					run("function", on, fmt.Sprintf(`SELECT VALUE ARRAY_%s(%s(SELECT VALUE r.x FROM %s AS r));`, a.fn, a.distinct, rows))
				}
				if len(g.xs) > 0 { // an empty input has no groups
					run("group by", on, fmt.Sprintf(`SELECT VALUE %s FROM %s AS r GROUP BY r.g;`, call("r.x"), rows))
					if a.distinct != "DISTINCT " && a.fn != "ARRAY_AGG" {
						res := run("join", on, fmt.Sprintf(`SELECT VALUE %s FROM AggK k, AggV%d m WHERE m.g = k.id GROUP BY k.id;`, call("m.x"), gi))
						if res != nil && res.RulesFired["push-aggregate-into-join"] == 0 {
							t.Errorf("the join route did not aggregate in the join: %v", res.RulesFired)
						}
					}
				}
				for _, got := range routes {
					if got != routes["select"] {
						t.Fatalf("routes disagree: %v", routes)
					}
				}
				if w, ok := want[name]; ok && routes["select"] != w {
					t.Errorf("got %s, want %s", routes["select"], w)
				}
			})
		}
	}
}
