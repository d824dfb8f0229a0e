package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"asterix/internal/lsm"
	"asterix/internal/obs"
)

// engineTrio opens the three optimizer configurations the access-path
// tests compare: everything on, everything off, and only the access-path
// rule disabled.
func engineTrio(t *testing.T, cfg Config) (on, off, noIndex *Engine) {
	t.Helper()
	noIndexCfg := cfg
	noIndexCfg.OptimizerDisable = []string{"introduce-index-search"}
	return newEngine(t, cfg), newEngine(t, unoptimized(cfg)), newEngine(t, noIndexCfg)
}

// A sargable predicate whose constant cannot be an index key (array,
// object, rectangle) or never matches (null, missing) must answer like a
// scan — never fail the query — on the primary and the secondary path;
// constants of another scalar type and numerics of the other kind must
// find exactly what a scan finds.
func TestAccessPathTypedConstants(t *testing.T) {
	on, off, noIndex := engineTrio(t, Config{})
	for _, e := range []*Engine{on, off, noIndex} {
		mustExec(t, e, `
			CREATE TYPE PT AS {id: int};
			CREATE DATASET P(PT) PRIMARY KEY id;
			CREATE INDEX pv ON P(v);
			UPSERT INTO P ([
				{"id": 4, "v": 4}, {"id": 5, "v": 5}, {"id": 6, "v": 5.0}, {"id": 7, "v": "5"},
				{"id": 8, "v": 6.5}, {"id": 9, "v": "a"}, {"id": 10, "v": null}, {"id": 11}
			]);`)
	}
	constants := []string{
		`[5]`, `{"a": 1}`, `rectangle(0, 0, 1, 1)`, `null`, `missing`, `"5"`, `5.0`, `5`, `4.5`,
	}
	for _, field := range []string{"id", "v"} {
		for _, c := range constants {
			for _, op := range []string{"=", "<", ">="} {
				for _, q := range []string{
					fmt.Sprintf(`SELECT VALUE p.id FROM P p WHERE p.%s %s %s;`, field, op, c),
					fmt.Sprintf(`SELECT VALUE p.id FROM P p WHERE %s %s p.%s;`, c, op, field),
				} {
					want := sortedRows(t, off, q)
					for name, e := range map[string]*Engine{"optimized": on, "no index search": noIndex} {
						if got := sortedRows(t, e, q); strings.Join(got, ",") != strings.Join(want, ",") {
							t.Errorf("%s: %s engine returned %v, scan returned %v", q, name, got, want)
						}
					}
				}
			}
		}
	}
	// The scalar cases do go through the index.
	for _, q := range []string{
		`SELECT VALUE p.id FROM P p WHERE p.id = 5.0;`,
		`SELECT VALUE p.id FROM P p WHERE p.v = "5";`,
	} {
		r, err := on.Query(context.Background(), q)
		if err != nil || !strings.Contains(r.PlanText(), "index-search") || len(r.Rows) == 0 {
			t.Errorf("%s: rows %v, err %v, plan:\n%s", q, r.Rows, err, r.PlanText())
		}
	}
}

// Point and range lookups through the primary access path must see every
// LSM state the way a scan does: a key only in the memory component, in
// one disk component, overwritten across components (newest wins),
// deleted by a tombstone in a newer component or in memory, and all of
// that again after the components were merged into one.
func TestPrimaryKeyLSMStates(t *testing.T) {
	for name, policy := range map[string]lsm.MergePolicy{
		"stacked": lsm.NoMergePolicy{},
		"merged":  lsm.ConstantPolicy{Components: 1},
	} {
		t.Run(name, func(t *testing.T) {
			on, off, noIndex := engineTrio(t, Config{MergePolicy: policy})
			want := map[int]string{}
			put := func(lo, hi int, gen string) string {
				var sb strings.Builder
				for i := lo; i < hi; i++ {
					want[i] = fmt.Sprintf("%s%d", gen, i)
					fmt.Fprintf(&sb, `UPSERT INTO K ({"id": %d, "v": "%s"});`, i, want[i])
				}
				return sb.String()
			}
			del := func(lo, hi int) string {
				for i := lo; i < hi; i++ {
					delete(want, i)
				}
				return fmt.Sprintf(`DELETE FROM K k WHERE k.id >= %d AND k.id < %d;`, lo, hi)
			}
			steps := []string{
				`CREATE TYPE KT AS {id: int, v: string}; CREATE DATASET K(KT) PRIMARY KEY id;`,
				put(0, 20, "a"), "flush", // one disk component
				put(5, 10, "b") + del(10, 13), "flush", // overwrites and tombstones in a newer one
				put(20, 25, "c") + put(6, 7, "c") + del(13, 14), // memory component only
			}
			for _, e := range []*Engine{on, off, noIndex} {
				for _, s := range steps {
					if s != "flush" {
						mustExec(t, e, s)
					} else if err := e.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			d, _ := on.Dataset("K")
			comps, merges := d.LSMStats()
			// Two partitions: more than two components means some partition
			// stacks an older one under a newer one.
			if name == "stacked" && comps <= 2 || name == "merged" && (comps > 2 || merges == 0) {
				t.Fatalf("%d disk components after %d merges", comps, merges)
			}
			check := func(q string, wantRows []string) {
				t.Helper()
				for ename, e := range map[string]*Engine{"optimized": on, "naive": off, "no index search": noIndex} {
					if got := sortedRows(t, e, q); strings.Join(got, ",") != strings.Join(wantRows, ",") {
						t.Errorf("%s: %s engine returned %v, want %v", q, ename, got, wantRows)
					}
				}
			}
			for id := -1; id < 27; id++ {
				var rows []string
				if v, ok := want[id]; ok {
					rows = []string{fmt.Sprintf("%q", v)}
				}
				check(fmt.Sprintf(`SELECT VALUE k.v FROM K k WHERE k.id = %d;`, id), rows)
			}
			var inRange []string
			for id := 4; id <= 21; id++ {
				if v, ok := want[id]; ok {
					inRange = append(inRange, fmt.Sprintf("%q", v))
				}
			}
			sort.Strings(inRange) // sortedRows orders by rendered value
			check(`SELECT VALUE k.v FROM K k WHERE k.id > 3 AND k.id <= 21;`, inRange)
		})
	}
}

// DELETE locates its victims through the compiled plan of the matching
// SELECT: by primary key it is a point lookup, by an indexed field an
// index search, and without WHERE a scan; what it deletes — records and
// their secondary-index entries — is what a scan-and-filter would delete.
func TestDeleteLocatesVictimsThroughPlan(t *testing.T) {
	on, off, _ := engineTrio(t, Config{})
	for _, e := range []*Engine{on, off} {
		mustExec(t, e, `
			CREATE TYPE DT AS {id: int, grp: int, note: string};
			CREATE DATASET D(DT) PRIMARY KEY id;
			CREATE INDEX dGrp ON D(grp);`)
		var sb strings.Builder
		for i := 0; i < 40; i++ {
			fmt.Fprintf(&sb, `UPSERT INTO D ({"id": %d, "grp": %d, "note": "n%d"});`, i, i%8, i)
		}
		mustExec(t, e, sb.String())
	}
	d, _ := on.Dataset("D")
	if d.Partitions() != 2 {
		t.Fatalf("dataset has %d partitions, the test wants 2", d.Partitions())
	}
	probes := []string{
		`SELECT VALUE d.id FROM D d;`,
		`SELECT VALUE d.id FROM D d WHERE d.grp >= 2 AND d.grp <= 5;`,
		`SELECT VALUE d.id FROM D d WHERE d.grp = 3;`,
		`SELECT VALUE d.id FROM D d WHERE d.id = 17;`,
	}
	steps := []struct {
		stmt     string
		count    int64
		planHas  string
		ruleName string
	}{
		{`DELETE FROM D d WHERE d.id = 17;`, 1, "index-search(D.id PRIMARY as d) range=[17..17]", "introduce-index-search"},
		{`DELETE FROM D d WHERE d.id = 17;`, 0, "index-search(D.id PRIMARY", "introduce-index-search"},
		{`DELETE FROM D AS d WHERE d.grp >= 3 AND d.grp < 5;`, 10, "index-search(D.grp BTREE as d) range=[3..5)", "introduce-index-search"},
		{`DELETE FROM D d WHERE d.note = "n1" OR d.id = 2;`, 2, `scan(D as d) filter=((d.note = "n1") OR (d.id = 2))`, ""},
		{`DELETE FROM D;`, 27, "scan(D as D)", ""},
	}
	for _, s := range steps {
		rOn := mustExec(t, on, s.stmt)[0]
		rOff := mustExec(t, off, s.stmt)[0]
		if rOn.Count != s.count || rOff.Count != s.count {
			t.Errorf("%s: deleted %d (optimized) and %d (naive), want %d", s.stmt, rOn.Count, rOff.Count, s.count)
		}
		if !strings.Contains(rOn.PlanText(), s.planHas) || (s.ruleName != "") != (rOn.RulesFired["introduce-index-search"] > 0) {
			t.Errorf("%s: rules %v, plan:\n%s", s.stmt, rOn.RulesFired, rOn.PlanText())
		}
		for _, q := range probes {
			if got, want := sortedRows(t, on, q), sortedRows(t, off, q); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("after %s, %s: optimized %v, naive %v", s.stmt, q, got, want)
			}
		}
		if err := d.Validate(); err != nil {
			t.Error(err)
		}
	}
}

// leafCounters runs q under detailed profiling and returns, summed over the
// leaf tasks (every task that read stored records), what they read and
// what they emitted, with the statement's result.
func leafCounters(t *testing.T, e *Engine, q string) (rowsRead, tuplesOut int64, r *Result) {
	t.Helper()
	root := obs.NewSpan("query")
	root.SetDetailed(true)
	r, err := e.Query(obs.ContextWithSpan(context.Background(), root), q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		if n.Counters["rowsRead"] > 0 {
			rowsRead += n.Counters["rowsRead"]
			tuplesOut += n.Counters["tuplesOut"]
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root.Tree())
	return rowsRead, tuplesOut, r
}

// A LIMIT above a filter the leaf applies bounds the leaf: a 10-row LIMIT
// over a 10 000-key range visits, per partition, the 10 rows it emits plus
// those its filter rejects on the way — not the range. LIMIT 0 and a
// limit+offset that overflows are not pushed.
func TestLimitReachesFilteredLeaf(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, `CREATE TYPE LT AS {id: int, grp: int}; CREATE DATASET L(LT) PRIMARY KEY id; CREATE INDEX lGrp ON L(grp);`)
	for lo := 0; lo < 12000; lo += 500 {
		var sb strings.Builder
		sb.WriteString(`UPSERT INTO L ([`)
		for i := lo; i < lo+500; i++ {
			fmt.Fprintf(&sb, `{"id": %d, "grp": %d, "odd": %d},`, i, i/100, i%2)
		}
		mustExec(t, e, strings.TrimSuffix(sb.String(), ",")+`]);`)
	}
	parts := int64(2)
	for _, c := range []struct {
		q        string
		leaf     string
		rows     int
		maxRead  int64 // per partition; 0 = the whole range is read
		rejected int64 // rows the leaf's filter may reject per emitted one (it rejects every other)
	}{
		{`SELECT VALUE l.id FROM L l WHERE l.id >= 1000 LIMIT 10;`, "index-search(L.id PRIMARY as l) range=[1000..+inf) limit=10", 10, 10, 0},
		{`SELECT VALUE l.id FROM L l WHERE l.id >= 1000 AND l.odd = 1 LIMIT 10;`, "limit=10", 10, 10, 3},
		{`SELECT VALUE l.id FROM L l WHERE l.grp >= 20 AND l.grp < 90 LIMIT 7 OFFSET 3;`, "index-search(L.grp BTREE as l) range=[20..90) limit=10", 7, 10, 0},
		{`SELECT VALUE l.id FROM L l WHERE l.odd = 0 LIMIT 10;`, "scan(L as l) limit=10", 10, 10, 3},
		{`SELECT VALUE l.id FROM L l WHERE l.id >= 1000 LIMIT 0;`, "range=[1000..+inf) fields", 0, 0, 0},
		{`SELECT VALUE l.id FROM L l WHERE l.id >= 1000 LIMIT 9223372036854775807 OFFSET 5;`, "range=[1000..+inf) fields", 10995, 0, 0},
	} {
		read, out, r := leafCounters(t, e, c.q)
		if len(r.Rows) != c.rows || !strings.Contains(r.PlanText(), c.leaf) {
			t.Errorf("%s: %d rows, want %d, plan:\n%s", c.q, len(r.Rows), c.rows, r.PlanText())
		}
		if c.maxRead == 0 {
			if read < 10000 || strings.Contains(r.PlanText(), "limit=") {
				t.Errorf("%s: leaf capped (read %d rows), plan:\n%s", c.q, read, r.PlanText())
			}
		} else if max := parts * c.maxRead * (1 + c.rejected); read > max || out > parts*c.maxRead {
			t.Errorf("%s: leaves read %d rows and emitted %d, want at most %d and %d", c.q, read, out, max, parts*c.maxRead)
		}
	}
}
