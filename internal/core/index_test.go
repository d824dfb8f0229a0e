package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"asterix/internal/adm"
	"asterix/internal/check"
	"asterix/internal/fault"
)

const pointsDDL = `
CREATE TYPE PointType AS {id: int, loc: point, v: int};
CREATE DATASET Points(PointType) PRIMARY KEY id;
`

func seedPoints(t testing.TB, e *Engine, n int, seed int64) []adm.Point {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pts := make([]adm.Point, n)
	for i := 0; i < n; i++ {
		p := adm.Point{X: -180 + r.Float64()*360, Y: -90 + r.Float64()*180}
		pts[i] = p
		if err := e.UpsertValue("Points", adm.NewObject(
			adm.Field{Name: "id", Value: adm.Int64(int64(i))},
			adm.Field{Name: "loc", Value: p},
			adm.Field{Name: "v", Value: adm.Int64(int64(i % 97))},
		)); err != nil {
			t.Fatal(err)
		}
	}
	return pts
}

// TestAllSpatialIndexKindsAgree is the correctness core of the V-B study:
// every index kind must answer spatial queries identically to a full scan.
func TestAllSpatialIndexKindsAgree(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, pointsDDL)
	pts := seedPoints(t, e, 3000, 11)
	r := rand.New(rand.NewSource(13))
	type query struct {
		rect adm.Rectangle
		want []int
	}
	var queries []query
	for qi := 0; qi < 8; qi++ {
		x, y := -180+r.Float64()*300, -90+r.Float64()*150
		rect := adm.Rectangle{MinX: x, MinY: y, MaxX: x + 10 + r.Float64()*50, MaxY: y + 5 + r.Float64()*25}
		var want []int
		for i, p := range pts {
			if rect.Contains(p.X, p.Y) {
				want = append(want, i)
			}
		}
		sort.Ints(want)
		queries = append(queries, query{rect, want})
	}

	for _, kind := range []string{"RTREE", "ZORDER", "HILBERT", "GRID"} {
		mustExec(t, e, fmt.Sprintf(`CREATE INDEX spIdx ON Points(loc) TYPE %s;`, kind))
		plan, err := e.Explain(fmt.Sprintf(`SELECT VALUE p.id FROM Points p
			WHERE spatial_intersect(p.loc, create_rectangle(%g, %g, %g, %g));`,
			queries[0].rect.MinX, queries[0].rect.MinY, queries[0].rect.MaxX, queries[0].rect.MaxY))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "index-search") {
			t.Fatalf("%s: plan does not use the index:\n%s", kind, plan)
		}
		for qi, q := range queries {
			rows := queryRows(t, e, fmt.Sprintf(`SELECT VALUE p.id FROM Points p
				WHERE spatial_intersect(p.loc, create_rectangle(%g, %g, %g, %g));`,
				q.rect.MinX, q.rect.MinY, q.rect.MaxX, q.rect.MaxY))
			var got []int
			for _, v := range rows {
				n, _ := adm.AsInt(v)
				got = append(got, int(n))
			}
			sort.Ints(got)
			if fmt.Sprint(got) != fmt.Sprint(q.want) {
				t.Fatalf("%s query %d: got %d rows, want %d\n got: %v\nwant: %v",
					kind, qi, len(got), len(q.want), got, q.want)
			}
		}
		mustExec(t, e, `DROP INDEX Points.spIdx;`)
	}
}

// Property: a B+tree secondary index answers random range queries exactly
// like a full scan.
func TestPropBtreeIndexMatchesScan(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, pointsDDL)
	seedPoints(t, e, 2000, 17)
	mustExec(t, e, `CREATE INDEX vIdx ON Points(v);`)
	r := rand.New(rand.NewSource(19))
	for qi := 0; qi < 15; qi++ {
		lo := r.Intn(97)
		hi := lo + r.Intn(97-lo)
		q := fmt.Sprintf(`SELECT VALUE p.id FROM Points p WHERE p.v >= %d AND p.v <= %d;`, lo, hi)
		withIdx := queryRows(t, e, q)
		plan, _ := e.Explain(q)
		if !strings.Contains(plan, "index-search") {
			t.Fatalf("plan missing index:\n%s", plan)
		}
		// Force a scan by disabling the sargable shape (v+0 defeats the
		// field-access pattern matcher).
		scanQ := fmt.Sprintf(`SELECT VALUE p.id FROM Points p WHERE p.v + 0 >= %d AND p.v + 0 <= %d;`, lo, hi)
		scanRows := queryRows(t, e, scanQ)
		a := intsOf(t, withIdx)
		b := intsOf(t, scanRows)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("range [%d,%d]: index %d rows, scan %d rows", lo, hi, len(a), len(b))
		}
	}
}

func intsOf(t *testing.T, rows []adm.Value) []int {
	t.Helper()
	var out []int
	for _, v := range rows {
		n, _ := adm.AsInt(v)
		out = append(out, int(n))
	}
	sort.Ints(out)
	return out
}

func TestIndexMaintainedUnderUpdates(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, pointsDDL)
	seedPoints(t, e, 500, 23)
	mustExec(t, e, `CREATE INDEX vIdx ON Points(v);`)
	// Move record 7 to a new v; old index entry must not resurface.
	mustExec(t, e, `UPSERT INTO Points ({"id": 7, "loc": point(0.0, 0.0), "v": 1000});`)
	rows := queryRows(t, e, `SELECT VALUE p.id FROM Points p WHERE p.v = 1000;`)
	if len(rows) != 1 {
		t.Fatalf("updated record not found via index: %v", rows)
	}
	old := queryRows(t, e, `SELECT VALUE p.v FROM Points p WHERE p.id = 7;`)
	if v, _ := adm.AsInt(old[0]); v != 1000 {
		t.Fatalf("record not updated: %v", old)
	}
	// Delete it; the index entry must go too.
	mustExec(t, e, `DELETE FROM Points p WHERE p.id = 7;`)
	rows = queryRows(t, e, `SELECT VALUE p.id FROM Points p WHERE p.v = 1000;`)
	if len(rows) != 0 {
		t.Fatalf("deleted record visible via index: %v", rows)
	}
}

func TestLoadStatement(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, `
		CREATE TYPE RowType AS {id: int, name: string};
		CREATE DATASET Rows(RowType) PRIMARY KEY id;`)
	path := filepath.Join(t.TempDir(), "rows.json")
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&sb, `{"id": %d, "name": "row%d"}`+"\n", i, i)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, fmt.Sprintf(
		`LOAD DATASET Rows USING localfs (("path"="%s"), ("format"="json"));`, path))
	if res[0].Count != 50 {
		t.Fatalf("loaded %d", res[0].Count)
	}
	rows := queryRows(t, e, `SELECT VALUE COUNT(*) FROM Rows r;`)
	if n, _ := adm.AsInt(rows[0]); n != 50 {
		t.Fatalf("count after load: %d", n)
	}
}

// TestConcurrentDMLAndQueries exercises the engine under mixed load:
// writers on distinct key ranges with concurrent readers.
func TestConcurrentDMLAndQueries(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, pointsDDL)
	seedPoints(t, e, 200, 29)
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := 1000 + base*1000 + i
				err := e.UpsertValue("Points", adm.NewObject(
					adm.Field{Name: "id", Value: adm.Int64(int64(id))},
					adm.Field{Name: "loc", Value: adm.Point{X: 1, Y: 1}},
					adm.Field{Name: "v", Value: adm.Int64(int64(i))},
				))
				if err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := e.Query(context.Background(),
					`SELECT VALUE COUNT(*) FROM Points p;`); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	rows := queryRows(t, e, `SELECT VALUE COUNT(*) FROM Points p;`)
	if n, _ := adm.AsInt(rows[0]); n != 400 {
		t.Fatalf("final count: %d", n)
	}
}

func TestInsertArrayPayload(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, pointsDDL)
	res := mustExec(t, e, `INSERT INTO Points ([
		{"id": 1, "loc": point(0.0, 0.0), "v": 1},
		{"id": 2, "loc": point(1.0, 1.0), "v": 2}
	]);`)
	if res[0].Count != 2 {
		t.Fatalf("inserted %d", res[0].Count)
	}
}

func TestUnionAll(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, pointsDDL)
	mustExec(t, e, `INSERT INTO Points ([
		{"id": 1, "loc": point(0.0, 0.0), "v": 10},
		{"id": 2, "loc": point(1.0, 1.0), "v": 20},
		{"id": 3, "loc": point(2.0, 2.0), "v": 30}
	]);`)
	rows := queryRows(t, e, `
		SELECT VALUE p.id FROM Points p WHERE p.v < 15
		UNION ALL
		SELECT VALUE p.id FROM Points p WHERE p.v > 25
		UNION ALL
		SELECT VALUE 99 FROM Points p WHERE p.id = 1;`)
	got := intsOf(t, rows)
	if fmt.Sprint(got) != "[1 3 99]" {
		t.Fatalf("union rows: %v", got)
	}
	// Plan contains the union operator.
	plan, err := e.Explain(`SELECT VALUE 1 FROM Points p UNION ALL SELECT VALUE 2 FROM Points p;`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "union-all(2)") {
		t.Fatalf("plan:\n%s", plan)
	}
	// Interpreter path (nested union) agrees.
	rows = queryRows(t, e, `SELECT VALUE coll_count((
		SELECT VALUE p.id FROM Points p
		UNION ALL
		SELECT VALUE p.id FROM Points p)) FROM [0] one;`)
	if n, _ := adm.AsInt(rows[0]); n != 6 {
		t.Fatalf("nested union count: %d", n)
	}
}

func TestCompressionRoundTripAndToggle(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Compression: true}
	e := newEngine(t, cfg)
	mustExec(t, e, `
		CREATE TYPE BT AS {id: int, blob: string};
		CREATE DATASET Blobs(BT) PRIMARY KEY id;`)
	long := strings.Repeat("compressible text ", 50)
	for i := 0; i < 100; i++ {
		mustExec(t, e, fmt.Sprintf(`UPSERT INTO Blobs ({"id": %d, "blob": %q});`, i, long))
	}
	rows := queryRows(t, e, `SELECT VALUE COUNT(*) FROM Blobs b;`)
	if rows[0].String() != "100" {
		t.Fatalf("count: %v", rows)
	}
	rec, ok, err := e.GetKey("Blobs", adm.Int64(7))
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if rec.Get("blob").String() != fmt.Sprintf("%q", long) {
		t.Fatal("compressed record corrupted")
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	// Reopen WITHOUT compression: old compressed records must still read,
	// and new raw records coexist.
	fixed := e.cfg.Now
	e2, err := Open(Config{DataDir: dir, Compression: false, Now: fixed})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if _, ok, _ := e2.GetKey("Blobs", adm.Int64(7)); !ok {
		t.Fatal("compressed record unreadable after toggle")
	}
	if _, err := e2.Execute(context.Background(),
		fmt.Sprintf(`UPSERT INTO Blobs ({"id": 200, "blob": %q});`, long)); err != nil {
		t.Fatal(err)
	}
	rows = queryRows(t, e2, `SELECT VALUE COUNT(*) FROM Blobs b;`)
	if rows[0].String() != "101" {
		t.Fatalf("mixed-scheme count: %v", rows)
	}
}

func TestCompositePrimaryKey(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, `
		CREATE TYPE EventType AS {day: string, seq: int, what: string};
		CREATE DATASET Events(EventType) PRIMARY KEY day, seq;`)
	for d := 0; d < 3; d++ {
		for s := 0; s < 10; s++ {
			mustExec(t, e, fmt.Sprintf(
				`UPSERT INTO Events ({"day": "2019-04-%02d", "seq": %d, "what": "e%d-%d"});`,
				d+1, s, d, s))
		}
	}
	// Same (day) different (seq) are distinct records.
	rows := queryRows(t, e, `SELECT VALUE COUNT(*) FROM Events e;`)
	if rows[0].String() != "30" {
		t.Fatalf("count: %v", rows)
	}
	// Replace one composite key.
	mustExec(t, e, `UPSERT INTO Events ({"day": "2019-04-02", "seq": 3, "what": "replaced"});`)
	rows = queryRows(t, e, `SELECT VALUE e.what FROM Events e WHERE e.day = "2019-04-02" AND e.seq = 3;`)
	if len(rows) != 1 || rows[0].String() != `"replaced"` {
		t.Fatalf("composite upsert: %v", rows)
	}
	// Programmatic get/delete with composite pk.
	rec, ok, err := e.GetKey("Events", adm.String("2019-04-01"), adm.Int64(5))
	if err != nil || !ok || rec.Get("what").String() != `"e0-5"` {
		t.Fatalf("composite get: %v %v %v", rec, ok, err)
	}
	if err := e.DeleteKey("Events", adm.String("2019-04-01"), adm.Int64(5)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := e.GetKey("Events", adm.String("2019-04-01"), adm.Int64(5)); ok {
		t.Fatal("composite delete failed")
	}
}

func TestInsertFromQuery(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, pointsDDL)
	seedPoints(t, e, 50, 31)
	mustExec(t, e, `
		CREATE TYPE SummaryType AS {id: int, v: int};
		CREATE DATASET HighV(SummaryType) PRIMARY KEY id;`)
	// INSERT INTO ... (subquery): the payload expression is a SELECT, which
	// runs as one cluster job and is cancelled with its statement.
	const stmt = `INSERT INTO HighV (SELECT p.id AS id, p.v AS v FROM Points p WHERE p.v >= 90);`
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Execute(ctx, stmt); err == nil {
		t.Fatal("INSERT … SELECT under a cancelled context succeeded")
	}
	if rows := queryRows(t, e, `SELECT VALUE COUNT(*) FROM HighV h;`); rows[0].String() != "0" {
		t.Fatalf("cancelled INSERT … SELECT stored %v records", rows[0])
	}
	before := e.Cluster().JobStats().Attempts
	res := mustExec(t, e, stmt)
	if got := e.Cluster().JobStats().Attempts - before; got != 1 {
		t.Fatalf("INSERT … SELECT ran %d job attempts, want 1", got)
	}
	want := queryRows(t, e, `SELECT VALUE COUNT(*) FROM Points p WHERE p.v >= 90;`)
	if fmt.Sprint(res[0].Count) != want[0].String() {
		t.Fatalf("insert-from-query count %d, source has %s", res[0].Count, want[0])
	}
	rows := queryRows(t, e, `SELECT VALUE COUNT(*) FROM HighV h;`)
	if rows[0].String() != want[0].String() {
		t.Fatalf("materialized count: %v", rows)
	}
}

// TestCreateIndexFailureLeavesNoIndex fails an index build half way (the
// index's own memory component overflows and its flush hits an injected
// I/O error): the statement must fail, leave no index in the catalog or
// the dataset, keep queries correct through the primary scan, and a
// retry must build the complete index.
func TestCreateIndexFailureLeavesNoIndex(t *testing.T) {
	cases := []struct{ kind, ddl, query, planToken string }{
		{"BTREE", `CREATE INDEX vIdx ON Points(v);`,
			`SELECT VALUE p.id FROM Points p WHERE p.v = 5;`, "BTREE"},
		{"RTREE", `CREATE INDEX vIdx ON Points(loc) TYPE RTREE;`,
			`SELECT VALUE p.id FROM Points p WHERE spatial_intersect(p.loc, create_rectangle(-180.0, -90.0, 0.0, 0.0));`, "RTREE"},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			fault.Disarm()
			defer fault.Disarm()
			e := newEngine(t, Config{MemComponentBudget: 8 << 10})
			mustExec(t, e, pointsDDL)
			seedPoints(t, e, 1500, 7)
			want := intsOf(t, queryRows(t, e, tc.query))
			if len(want) == 0 {
				t.Fatal("query matches nothing; the case proves nothing")
			}

			if err := fault.Arm(fault.PointLSMFlush + ":error:times=0"); err != nil {
				t.Fatal(err)
			}
			_, err := e.Execute(context.Background(), tc.ddl)
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("CREATE INDEX with failing flushes: got %v, want the injected error", err)
			}
			fault.Disarm()

			if defs := e.catalog.IndexesOf("Points"); len(defs) != 0 {
				t.Fatalf("failed CREATE INDEX left %d catalog entries", len(defs))
			}
			if _, ok := e.SecondaryIndexHandle("Points", "vIdx"); ok {
				t.Fatal("failed CREATE INDEX left the half-built index open")
			}
			if plan, _ := e.Explain(tc.query); strings.Contains(plan, tc.planToken) {
				t.Fatalf("query plans over the failed index:\n%s", plan)
			}
			if got := intsOf(t, queryRows(t, e, tc.query)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("after failed CREATE INDEX query returned %d rows, want %d", len(got), len(want))
			}
			check.MustValidate(t, e.MemGovernor())

			mustExec(t, e, tc.ddl)
			if plan, _ := e.Explain(tc.query); !strings.Contains(plan, tc.planToken) {
				t.Fatalf("query does not use the rebuilt index:\n%s", plan)
			}
			if got := intsOf(t, queryRows(t, e, tc.query)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("rebuilt index returned %d rows, want %d", len(got), len(want))
			}
			check.MustValidate(t, e.MemGovernor())
		})
	}
}

// A dataset's secondary indexes are visited in index-name order, whatever
// order they were created or reopened in: the optimizer is offered the same
// one of two indexes on a field every run, and a write dirties their memory
// components in the same order (which decides which the governor flushes
// first, and so the bytes on disk).
func TestSecondaryIndexesAreVisitedInNameOrder(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t, Config{DataDir: dir})
	mustExec(t, e, pointsDDL+`
		CREATE INDEX zByV ON Points(v) TYPE BTREE;
		CREATE INDEX mLoc ON Points(loc) TYPE RTREE;
		CREATE INDEX aByV ON Points(v) TYPE BTREE;`)
	seedPoints(t, e, 50, 1)
	check := func(e *Engine) {
		t.Helper()
		d, _ := e.Dataset("Points")
		var names []string
		for _, si := range d.idxs {
			names = append(names, si.def.Name)
		}
		if got := strings.Join(names, " "); got != "aByV mLoc zByV" {
			t.Errorf("index order %q", got)
		}
		for i := 0; i < 20; i++ {
			ix, ok := (*engineCatalog)(e).ResolveIndex("Points", "v")
			if !ok || ix.(*SecondaryIndex).def.Name != "aByV" {
				t.Fatalf("lookup %d resolved v to %v", i, ix)
			}
		}
		if rows := queryRows(t, e, `SELECT VALUE p.id FROM Points p WHERE p.v = 7;`); len(rows) != 1 {
			t.Errorf("index search returned %d rows", len(rows))
		}
	}
	check(e)
	mustExec(t, e, `DROP INDEX Points.mLoc;`)
	if d, _ := e.Dataset("Points"); len(d.idxs) != 2 || d.idxs[0].def.Name != "aByV" || d.idxs[1].def.Name != "zByV" {
		t.Errorf("after drop: %d indexes", len(d.idxs))
	}
	mustExec(t, e, `CREATE INDEX mLoc ON Points(loc) TYPE RTREE;`)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	check(newEngine(t, Config{DataDir: dir}))
}
