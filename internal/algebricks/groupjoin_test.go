package algebricks

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"asterix/internal/adm"
	"asterix/internal/hyracks"
	"asterix/internal/mem"
	"asterix/internal/obs"
)

// groupJoinCatalog is testCatalog plus two datasets for the groupjoin. Grp
// rows carry the join key k — null on some rows, missing on others, shared
// by several rows, and matched by no Item on ten of its values. Item rows
// carry the key gk (null or missing on some), and ints, doubles, strings and
// null or missing values to aggregate; one Item row with no gk has a string
// n. The doubles are quarters, so their sums are exact in any order.
func groupJoinCatalog() *memCatalog {
	cat := testCatalog()
	grp := &memSource{name: "Grp", par: 2, pk: []string{"gid"}}
	for i := 0; i < 60; i++ {
		fields := []adm.Field{
			{Name: "gid", Value: adm.Int64(i)},
			{Name: "name", Value: adm.String(fmt.Sprintf("g%d", i%7))},
			{Name: "w", Value: adm.Int64(i % 9)},
		}
		switch i % 10 {
		case 3:
			fields = append(fields, adm.Field{Name: "k", Value: adm.Null})
		case 6: // k missing
		default:
			fields = append(fields, adm.Field{Name: "k", Value: adm.Int64(i % 40)})
		}
		grp.recs = append(grp.recs, adm.NewObject(fields...))
	}
	item := &memSource{name: "Item", par: 2, pk: []string{"iid"}}
	for i := 0; i < 150; i++ {
		fields := []adm.Field{
			{Name: "iid", Value: adm.Int64(i)},
			{Name: "n", Value: adm.Int64(i % 13)},
			{Name: "d", Value: adm.Double(float64(i%5) + 0.25)},
			{Name: "s", Value: adm.String(fmt.Sprintf("s%03d", (i*37)%101))},
			{Name: "tag", Value: adm.String(fmt.Sprintf("t%d", i%4))},
		}
		switch i % 11 {
		case 4:
			fields = append(fields, adm.Field{Name: "gk", Value: adm.Null})
		case 7: // gk missing
		default:
			fields = append(fields, adm.Field{Name: "gk", Value: adm.Int64(i % 30)})
		}
		switch i % 6 {
		case 1:
			fields = append(fields, adm.Field{Name: "v", Value: adm.Null})
		case 2: // v missing
		default:
			fields = append(fields, adm.Field{Name: "v", Value: adm.Int64(i)})
		}
		item.recs = append(item.recs, adm.NewObject(fields...))
	}
	// A string n on a row that joins nothing: an argument that fails on it
	// must not be evaluated on it.
	item.recs = append(item.recs, adm.NewObject(
		adm.Field{Name: "iid", Value: adm.Int64(150)},
		adm.Field{Name: "n", Value: adm.String("x")},
	))
	cat.sources["Grp"], cat.sources["Item"] = grp, item
	return cat
}

// aggregatingJoin returns the join of plan that carries aggregates, and
// whether there is one.
func aggregatingJoin(plan Op) (*JoinOp, bool) {
	if j, ok := plan.(*JoinOp); ok && j.Aggs != nil {
		return j, true
	}
	for _, in := range plan.Inputs() {
		if j, ok := aggregatingJoin(in); ok {
			return j, true
		}
	}
	return nil, false
}

// spillingCluster is a cluster whose working pool its job's admission takes
// whole: every memory operator spills as soon as it buffers anything.
func spillingCluster(t *testing.T) *hyracks.Cluster {
	t.Helper()
	c, err := hyracks.NewCluster(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.Gov = mem.NewGovernor(mem.Config{WorkingBytes: 4 << 10})
	return c
}

// joinSpills sums the spills of the hash-join tasks of a profiled run.
func joinSpills(root *obs.Span) int64 {
	var n int64
	for _, ts := range root.Tree().Children {
		if strings.HasPrefix(ts.Name, "hash-join[") {
			n += ts.Counters["spills"]
		}
	}
	return n
}

// TestRuleGroupJoinMatchesInterp checks the aggregating join against the
// interpreter, in memory and on the grace path: the rule fires, the
// grouping side is the build side, and the answers are the interpreter's.
func TestRuleGroupJoinMatchesInterp(t *testing.T) {
	cat := groupJoinCatalog()
	cases := []struct {
		src   string
		build string // the variable the build (right) side scans
	}{
		// COUNT(*) and COUNT(x) over null/missing values; group keys on the
		// left side, whose join key is Grp's primary key, so the left side
		// becomes the build side. Grp rows 30 to 59 match no Item.
		{`SELECT g.name AS name, COUNT(*) AS n, COUNT(i.v) AS nv FROM Grp g, Item i WHERE i.gk = g.gid GROUP BY g.name AS name`, "g"},
		// SUM of ints and of doubles, AVG, and MIN/MAX over strings; group keys
		// on the right side (no swap), join keys shared, null and missing on
		// both sides.
		{`SELECT g.name AS name, SUM(i.n) AS si, SUM(i.d) AS sd, AVG(i.n) AS a, MIN(i.s) AS lo, MAX(i.s) AS hi
			FROM Item i, Grp g WHERE i.gk = g.k GROUP BY g.name AS name`, "g"},
		{`SELECT t AS t, SUM(g.w) AS s, AVG(g.w) AS a, COUNT(g.k) AS n FROM Grp g, Item i WHERE i.gk = g.k GROUP BY i.tag AS t`, "i"},
		// A residual ON conjunct.
		{`SELECT g.name AS name, COUNT(*) AS n, MAX(i.n) AS m FROM Grp g JOIN Item i ON i.gk = g.gid AND i.n < g.w GROUP BY g.name AS name`, "g"},
		// Grouping on the join key: the build rows no Item matches drop out.
		{`SELECT k AS k, COUNT(*) AS n, MIN(i.d) AS d FROM Item i, Grp g WHERE g.k = i.gk GROUP BY g.k AS k`, "g"},
		// Keyless aggregates, with matches and with none.
		{`SELECT COUNT(*) AS n, SUM(i.d) AS s, MIN(i.s) AS lo FROM Item i, Grp g WHERE i.gk = g.k`, "g"},
		{`SELECT COUNT(*) AS n, SUM(i.d) AS s, AVG(i.n) AS a FROM Grp g, Item i WHERE i.gk = g.gid AND i.n > 100`, "g"},
	}
	for _, c := range cases {
		plan, rep := optimizeQuery(t, cat, c.src)
		j, ok := aggregatingJoin(plan)
		if !ok || rep.Fired["push-aggregate-into-join"] != 1 {
			t.Errorf("%s: no aggregating join (fired %v):\n%s", c.src, rep.Fired, PlanString(plan))
			continue
		}
		if !strings.Contains(PlanString(j.R), " as "+c.build+")") {
			t.Errorf("%s: the build side does not scan %s:\n%s", c.src, c.build, PlanString(plan))
		}
		jobMatchesInterp(t, cat, c.src, false)

		root := obs.NewSpan("query")
		root.SetDetailed(true)
		rows := runJobOn(obs.ContextWithSpan(context.Background(), root), t, cat, c.src, spillingCluster(t))
		if joinSpills(root) == 0 {
			t.Errorf("%s: the join did not take the grace path under a tiny grant", c.src)
		}
		assertMatchesInterp(t, cat, c.src, false, rows)
	}
}

// TestRuleGroupJoinIneligibleShapes: what the partials cannot express, an
// argument that is not a field path, and a grouping side that would have to
// be swapped in as the build side without a primary join key, keep a join
// that emits its pairs.
func TestRuleGroupJoinIneligibleShapes(t *testing.T) {
	cat := groupJoinCatalog()
	for _, src := range []string{
		`SELECT g.name AS name, COUNT(DISTINCT i.n) AS n FROM Item i, Grp g WHERE i.gk = g.k GROUP BY g.name AS name`,
		`SELECT name AS name, COLL_COUNT(grp) AS n FROM Item i, Grp g WHERE i.gk = g.k GROUP BY g.name AS name GROUP AS grp`,
		`SELECT g.name AS name, ARRAY_AGG(i.n) AS ns FROM Item i, Grp g WHERE i.gk = g.k GROUP BY g.name AS name`,
		// The argument reads the grouping side.
		`SELECT g.name AS name, SUM(g.w) AS s FROM Item i, Grp g WHERE i.gk = g.k GROUP BY g.name AS name`,
		`SELECT g.name AS name, COUNT(i.n) AS n FROM Grp g LEFT OUTER JOIN Item i ON i.gk = g.k GROUP BY g.name AS name`,
		// Arguments that could fail, or scan a dataset, on a probe row.
		`SELECT g.name AS name, SUM(i.n * 2 + i.d) AS e FROM Item i, Grp g WHERE i.gk = g.k GROUP BY g.name AS name`,
		`SELECT g.name AS name, COUNT((SELECT VALUE x FROM Grp x)) AS c FROM Item i, Grp g WHERE i.gk = g.k GROUP BY g.name AS name`,
		// The grouping side is the probe side and its join key is not its
		// primary key: built, it could be the many side of the join.
		`SELECT g.name AS name, COUNT(*) AS n FROM Grp g, Item i WHERE i.gk = g.k GROUP BY g.name AS name`,
		`SELECT t AS t, COUNT(*) AS n FROM Item i, Grp g WHERE i.gk = g.gid GROUP BY i.tag AS t`,
	} {
		plan, rep := optimizeQuery(t, cat, src)
		s := PlanString(plan)
		if _, ok := aggregatingJoin(plan); ok || rep.Fired["push-aggregate-into-join"] != 0 || !strings.Contains(s, ",hash]") {
			t.Errorf("%s: want a pair-emitting hash join:\n%s", src, s)
		}
	}
}

// TestRuleGroupJoinLeavesFailingArgumentsToPairs: SUM(i.n * 2) fails on the
// Item row whose n is a string, but that row joins nothing, so the
// interpreter answers; the job must too, in memory and on the grace path.
func TestRuleGroupJoinLeavesFailingArgumentsToPairs(t *testing.T) {
	cat := groupJoinCatalog()
	src := `SELECT g.name AS name, SUM(i.n * 2) AS s, COUNT(*) AS c FROM Item i, Grp g WHERE i.gk = g.k GROUP BY g.name AS name`
	jobMatchesInterp(t, cat, src, false)
	assertMatchesInterp(t, cat, src, false, runJobOn(context.Background(), t, cat, src, spillingCluster(t)))
}
