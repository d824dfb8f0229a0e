package algebricks

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"asterix/internal/adm"
	"asterix/internal/hyracks"
	"asterix/internal/sqlpp"
)

// TestPropRandomQueriesJobMatchesInterpreter generates random (but
// well-formed) SQL++ queries over the test catalog and checks that the
// partitioned-parallel execution path and the serial interpreter agree —
// the strongest invariant the compiler stack has.
func TestPropRandomQueriesJobMatchesInterpreter(t *testing.T) {
	cat := testCatalog()
	r := rand.New(rand.NewSource(2024))

	fields := []string{"id", "age", "name"}
	cmps := []string{"<", "<=", ">", ">=", "=", "!="}
	genPredicate := func(v string) string {
		f := fields[r.Intn(len(fields))]
		if f == "name" {
			return fmt.Sprintf(`%s.name %s "user%02d"`, v, cmps[r.Intn(len(cmps))], r.Intn(25))
		}
		return fmt.Sprintf("%s.%s %s %d", v, f, cmps[r.Intn(len(cmps))], r.Intn(30))
	}

	genQuery := func() (string, bool) {
		ordered := false
		q := ""
		switch r.Intn(5) {
		case 0: // filter + project
			q = fmt.Sprintf(`SELECT VALUE u.id FROM Users u WHERE %s`, genPredicate("u"))
		case 1: // conjunctive filter with order
			q = fmt.Sprintf(`SELECT u.id AS id, u.age AS age FROM Users u WHERE %s AND %s ORDER BY u.id`,
				genPredicate("u"), genPredicate("u"))
			ordered = true
		case 2: // join
			q = fmt.Sprintf(`SELECT u.id AS id, m.mid AS mid FROM Users u, Messages m
				WHERE m.authorId = u.id AND %s`, genPredicate("u"))
		case 3: // group by with aggregates
			q = fmt.Sprintf(`SELECT u.age AS age, COUNT(*) AS n, SUM(u.id) AS s
				FROM Users u WHERE %s GROUP BY u.age AS age`, genPredicate("u"))
		case 4: // order + limit + offset
			q = fmt.Sprintf(`SELECT VALUE u.name FROM Users u WHERE %s ORDER BY u.name DESC LIMIT %d OFFSET %d`,
				genPredicate("u"), 1+r.Intn(10), r.Intn(5))
			ordered = true
		}
		return q + ";", ordered
	}

	cluster, err := hyracks.NewCluster(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 60; trial++ {
		src, ordered := genQuery()
		qs := parseBound(t, cat, src)
		ev := newEval(cat)
		// Interpreter path.
		iv, err := ev.Eval(qs.Body, NewEnv(nil, nil, nil))
		if err != nil {
			t.Fatalf("interpret %s: %v", src, err)
		}
		interpRows := []adm.Value(iv.(adm.Array))
		// Parallel job path.
		tr := &Translator{Ev: ev, Catalog: cat}
		plan, err := tr.Translate(qs.Body.(*sqlpp.SelectExpr))
		if err != nil {
			t.Fatalf("translate %s: %v", src, err)
		}
		plan, _ = NewOptimizer(nil).Optimize(tr, plan)
		g := &JobGen{Cluster: cluster, Catalog: cat, Ev: ev, Parallelism: 2}
		coll := &hyracks.Collector{}
		job, err := g.Build(plan, coll)
		if err != nil {
			t.Fatalf("jobgen %s: %v", src, err)
		}
		if err := cluster.Run(context.Background(), job); err != nil {
			t.Fatalf("run %s: %v", src, err)
		}
		var jobRows []string
		for _, tp := range coll.Tuples() {
			jobRows = append(jobRows, adm.ToJSON(tp[0]))
		}
		var wantRows []string
		for _, v := range interpRows {
			wantRows = append(wantRows, adm.ToJSON(v))
		}
		if !ordered {
			sort.Strings(jobRows)
			sort.Strings(wantRows)
		}
		if len(jobRows) != len(wantRows) {
			t.Fatalf("query %s:\njob %d rows, interp %d rows", src, len(jobRows), len(wantRows))
		}
		for i := range jobRows {
			if jobRows[i] != wantRows[i] {
				t.Fatalf("query %s:\nrow %d: job %s != interp %s", src, i, jobRows[i], wantRows[i])
			}
		}
	}
}
