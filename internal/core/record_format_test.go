package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"asterix/internal/adm"
	"asterix/internal/lsm"
)

// A record read back whole lists its declared fields in declared order and
// then its undeclared ones as written — whatever order it was inserted in,
// and whichever access path finds it, in memory and from a disk component.
func TestWholeRecordFieldOrder(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, ingestDDL)
	mustExec(t, e, `UPSERT INTO GleambookMessages ({"message": "declared fields come first", "topic": "order",
		"messageId": 7, "extra": [1, 2], "senderLocation": point(3.0, 4.0), "authorId": 11});`)
	const want = `{"messageId":7,"authorId":11,"senderLocation":point("3,4"),"message":"declared fields come first","topic":"order","extra":[1,2]}`
	for _, state := range []string{"memory component", "disk component"} {
		for q, access := range map[string]string{
			`SELECT VALUE m FROM GleambookMessages m;`:                                         "scan(",
			`SELECT VALUE m FROM GleambookMessages m WHERE m.messageId = 7;`:                   "PRIMARY",
			`SELECT VALUE m FROM GleambookMessages m WHERE m.authorId = 11;`:                   "BTREE",
			`SELECT VALUE m FROM GleambookMessages m WHERE ftcontains(m.message, "declared");`: "KEYWORD",
			`SELECT VALUE m FROM GleambookMessages m
			 WHERE spatial_intersect(m.senderLocation, create_rectangle(0.0, 0.0, 5.0, 5.0));`: "RTREE",
			`SELECT * FROM GleambookMessages m;`: "scan(",
		} {
			r, err := e.Query(context.Background(), q)
			if err != nil || len(r.Rows) != 1 || !strings.Contains(r.PlanText(), access) {
				t.Fatalf("%s: %s: %v, %d rows, plan\n%s", state, q, err, len(r.Rows), r.PlanText())
			}
			got := r.Rows[0].String()
			if strings.HasPrefix(q, "SELECT *") {
				got = r.Rows[0].(*adm.Object).Get("m").String()
			}
			if got != want {
				t.Errorf("%s: %s\n got %s\nwant %s", state, q, got, want)
			}
		}
		if o, ok, err := e.GetKey("GleambookMessages", adm.Int64(7)); err != nil || !ok || o.String() != want {
			t.Errorf("%s: GetKey = %v, %v, %v", state, o, ok, err)
		}
		byField := orderedRows(t, e, `SELECT m.extra AS extra, m.message AS message, m.nope AS nope, m.authorId AS authorId FROM GleambookMessages m;`)
		if len(byField) != 1 || byField[0] != `{"extra":[1,2],"message":"declared fields come first","authorId":11}` {
			t.Errorf("%s: fields read one by one: %v", state, byField)
		}
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
}

const docsDDL = `
CREATE TYPE DocType AS {id: int, grp: int, score: double?, loc: point?, body: string};
CREATE DATASET Docs(DocType) PRIMARY KEY id;`

// docRecord is version ver of document id, its fields in no particular
// order: an int where a double is declared on some, the optional fields
// absent on some, an undeclared field on some.
func docRecord(id, ver int) *adm.Object {
	o := adm.NewObject(
		adm.Field{Name: "body", Value: adm.String(fmt.Sprintf("ver%d word%d %s", ver, id%7, strings.Repeat("pad ", id%40)))},
		adm.Field{Name: "id", Value: adm.Int64(int64(id))},
	)
	switch id % 3 {
	case 0:
		o.Set("score", adm.Int64(int64(id%50)))
	case 1:
		o.Set("score", adm.Double(float64(id%50)+0.5))
	}
	if id%4 != 0 {
		o.Set("tag", adm.String(fmt.Sprintf("t%d", (id+ver)%5)))
	}
	o.Set("grp", adm.Int64(int64((id+ver)%10)))
	if id%2 == 0 {
		o.Set("loc", adm.Point{X: float64(id % 20), Y: float64(ver)})
	}
	return o
}

// checkDocs compares the dataset, through every access path, with the
// oracle's records.
func checkDocs(t *testing.T, e *Engine, oracle map[int]*adm.Object) {
	t.Helper()
	ids := func(keep func(o *adm.Object) bool) string {
		var out []string
		for id, o := range oracle {
			if keep(o) {
				out = append(out, fmt.Sprint(id))
			}
		}
		sort.Strings(out)
		return strings.Join(out, " ")
	}
	// Whole records through a scan: the same fields with the same kinds.
	rows := queryRows(t, e, `SELECT VALUE d FROM Docs d;`)
	if len(rows) != len(oracle) {
		t.Fatalf("scan returns %d records, oracle has %d", len(rows), len(oracle))
	}
	for _, row := range rows {
		o := row.(*adm.Object)
		want := oracle[int(o.Get("id").(adm.Int64))]
		if want == nil || adm.Compare(o, want) != 0 || o.Get("score").Kind() != want.Get("score").Kind() {
			t.Fatalf("scan returns %v, oracle has %v", o, want)
		}
	}
	for id := 0; id < 400; id += 37 {
		o, ok, err := e.GetKey("Docs", adm.Int64(int64(id)))
		if want := oracle[id]; err != nil || ok != (want != nil) || ok && adm.Compare(o, want) != 0 {
			t.Fatalf("GetKey(%d) = %v, %v, %v; oracle has %v", id, o, ok, err, want)
		}
	}
	for _, c := range []struct {
		q, access string
		keep      func(o *adm.Object) bool
	}{
		{`SELECT VALUE d.id FROM Docs d WHERE d.id >= 90 AND d.id < 210 AND d.tag != "t1";`, "PRIMARY", func(o *adm.Object) bool {
			id := int(o.Get("id").(adm.Int64))
			return id >= 90 && id < 210 && o.Has("tag") && o.Get("tag") != adm.String("t1")
		}},
		{`SELECT VALUE d.id FROM Docs d WHERE d.grp = 3;`, "Docs.grp BTREE", func(o *adm.Object) bool { return o.Get("grp") == adm.Int64(3) }},
		{`SELECT VALUE d.id FROM Docs d WHERE spatial_intersect(d.loc, create_rectangle(2.0, 0.0, 9.0, 1.0));`, "RTREE", func(o *adm.Object) bool {
			p, ok := o.Get("loc").(adm.Point)
			return ok && p.X >= 2 && p.X <= 9 && p.Y <= 1
		}},
		{`SELECT VALUE d.id FROM Docs d WHERE ftcontains(d.body, "word3");`, "KEYWORD", func(o *adm.Object) bool {
			return strings.Contains(string(o.Get("body").(adm.String)), "word3")
		}},
		{`SELECT VALUE d.id FROM Docs d WHERE d.score >= 40;`, "Docs.score BTREE", func(o *adm.Object) bool {
			f, ok := adm.AsFloat(o.Get("score"))
			return ok && f >= 40
		}},
	} {
		r, err := e.Query(context.Background(), c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		// The index on score is only built at the end: until then a scan answers.
		if _, built := e.SecondaryIndexHandle("Docs", "docScore"); !strings.Contains(r.PlanText(), c.access) && (built || !strings.Contains(c.access, "score")) {
			t.Errorf("%s: plan has no %s\n%s", c.q, c.access, r.PlanText())
		}
		var got []string
		for _, row := range r.Rows {
			got = append(got, row.String())
		}
		sort.Strings(got)
		if want := ids(c.keep); strings.Join(got, " ") != want {
			t.Errorf("%s:\n got %s\nwant %s", c.q, strings.Join(got, " "), want)
		}
	}
}

// Records of a declared type — an int where a double is declared on some,
// optional fields absent on some, undeclared fields on some, the longer ones
// stored deflated — go through index build, overwrites, deletes, flushes,
// merges, a crash and a second index build: every access path answers like a
// map of the records written.
func TestDeclaredRecordsThroughHistory(t *testing.T) {
	e := newEngine(t, Config{Partitions: 2, MemComponentBudget: 16 << 10, MergePolicy: lsm.ConstantPolicy{Components: 3},
		NoSyncCommits: true, Compression: true})
	mustExec(t, e, docsDDL)
	d, _ := e.Dataset("Docs")
	oracle := map[int]*adm.Object{}
	for id := 0; id < 200; id++ {
		oracle[id] = docRecord(id, 0)
		if err := e.UpsertValue("Docs", oracle[id]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Index build reads them from disk; overwrites replace their index entries.
	mustExec(t, e, `CREATE INDEX docGrp ON Docs(grp);
		CREATE INDEX docLoc ON Docs(loc) TYPE RTREE;
		CREATE INDEX docBody ON Docs(body) TYPE KEYWORD;`)
	checkDocs(t, e, oracle)
	for ver := 1; ver <= 4; ver++ {
		for id := 100; id < 400; id++ {
			oracle[id] = docRecord(id, ver)
			if err := e.UpsertValue("Docs", oracle[id]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for id := 150; id < 400; id += 9 {
		delete(oracle, id)
		if err := e.DeleteKey("Docs", adm.Int64(int64(id))); err != nil {
			t.Fatal(err)
		}
	}
	checkDocs(t, e, oracle)
	if comps, merges := d.LSMStats(); comps == 0 || merges == 0 {
		t.Fatalf("%d disk components and %d merges: the history does not reach a merge", comps, merges)
	}

	if err := e.CrashStop(); err != nil {
		t.Fatal(err)
	}
	e2, err := e.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	checkDocs(t, e2, oracle)
	mustExec(t, e2, `CREATE INDEX docScore ON Docs(score);`)
	checkDocs(t, e2, oracle)
	t.Setenv("ASTERIX_INVARIANTS", "1")
	d2, _ := e2.Dataset("Docs")
	if err := d2.FlushAll(); err != nil { // Validate wants the worker idle
		t.Fatal(err)
	}
	if err := d2.Validate(); err != nil {
		t.Fatal(err)
	}
}

// A dropped dataset's records are gone with it: a dataset created under its
// name later — of another type, under which they could not even be read —
// starts empty, now and after a restart; with a checkpoint between the two
// and without, when the log still holds the dropped one's updates for redo.
func TestDroppedDatasetDoesNotComeBack(t *testing.T) {
	for _, checkpoint := range []bool{true, false} {
		e := newEngine(t, Config{})
		mustExec(t, e, `CREATE TYPE A AS {id: int, x: string};
			CREATE DATASET D(A) PRIMARY KEY id;
			CREATE INDEX dx ON D(x);
			UPSERT INTO D ([{"id": 1, "x": "one"}, {"id": 2, "x": "two"}]);`)
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		mustExec(t, e, `UPSERT INTO D ({"id": 3, "x": "three"});
			DROP DATASET D; DROP TYPE A;
			CREATE TYPE A AS {id: int, y: int?, x: string?};
			CREATE DATASET D(A) PRIMARY KEY id;
			CREATE INDEX dx ON D(x);`)
		if checkpoint {
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		mustExec(t, e, `UPSERT INTO D ({"id": 9, "x": "nine", "y": 9});`)
		for _, eng := range []func() *Engine{
			func() *Engine { return e },
			func() *Engine { return crashAndReopen(t, e) },
		} {
			e := eng()
			for _, q := range []string{`SELECT VALUE d FROM D d;`, `SELECT VALUE d FROM D d WHERE d.x >= "a";`} {
				if got := strings.Join(orderedRows(t, e, q), " "); got != `{"id":9,"y":9,"x":"nine"}` {
					t.Errorf("checkpoint %v: %s after drop and re-create: %s", checkpoint, q, got)
				}
			}
		}
	}
}

// nestedUser is version ver of Gleambook user id: none to three employment
// elements, the optional end date on some, an undeclared field on some
// elements and on some users.
func nestedUser(id, ver int) *adm.Object {
	start, _ := adm.ParseDate("2015-06-01")
	jobs := adm.Array{}
	for j := 0; j < (id+ver)%4; j++ {
		job := adm.NewObject(
			adm.Field{Name: "organizationName", Value: adm.String(fmt.Sprintf("Org%d", (id+j)%5))},
			adm.Field{Name: "startDate", Value: start + adm.Date(j+ver)},
		)
		if j%2 == 1 {
			job.Set("endDate", start+adm.Date(400))
		}
		if id%7 == 0 {
			job.Set("title", adm.String("lead"))
		}
		jobs = append(jobs, job)
	}
	o := userObj(id)
	o.Set("employment", jobs)
	if id%5 == 0 {
		o.Set("nickname", adm.String(fmt.Sprintf("n%d.%d", id, ver)))
	}
	return o
}

// checkUsers compares GleambookUsers with the oracle's records: whole, by
// field, unnested and grouped, and by key.
func checkUsers(t *testing.T, e *Engine, oracle map[int]*adm.Object, when string) {
	t.Helper()
	whole := queryRows(t, e, `SELECT VALUE u FROM GleambookUsers u;`)
	fields := queryRows(t, e, `SELECT u.id AS id, u.employment AS employment FROM GleambookUsers u;`)
	if len(whole) != len(oracle) || len(fields) != len(oracle) {
		t.Fatalf("%s: %d records, %d projected; oracle has %d", when, len(whole), len(fields), len(oracle))
	}
	for i := range whole {
		o, f := whole[i].(*adm.Object), fields[i].(*adm.Object)
		want := oracle[int(o.Get("id").(adm.Int64))]
		if want == nil || adm.Compare(o, want) != 0 {
			t.Fatalf("%s: record %v, oracle has %v", when, o, want)
		}
		if want := oracle[int(f.Get("id").(adm.Int64))]; adm.Compare(f.Get("employment"), want.Get("employment")) != 0 {
			t.Fatalf("%s: employment %v, oracle has %v", when, f.Get("employment"), want.Get("employment"))
		}
	}
	orgs := map[string]int64{}
	for _, o := range oracle {
		for _, job := range o.Get("employment").(adm.Array) {
			orgs[string(job.(*adm.Object).Get("organizationName").(adm.String))]++
		}
	}
	groups := queryRows(t, e, `SELECT e.organizationName AS org, COUNT(*) AS n
		FROM GleambookUsers u UNNEST u.employment e GROUP BY e.organizationName AS org;`)
	if len(groups) != len(orgs) {
		t.Fatalf("%s: %d organizations, oracle has %d", when, len(groups), len(orgs))
	}
	for _, g := range groups {
		g := g.(*adm.Object)
		if n := orgs[string(g.Get("org").(adm.String))]; g.Get("n") != adm.Int64(n) {
			t.Fatalf("%s: group %v, oracle counts %d", when, g, n)
		}
	}
	for id, want := range oracle {
		if o, ok, err := e.GetKey("GleambookUsers", adm.Int64(int64(id))); err != nil || !ok || adm.Compare(o, want) != 0 {
			t.Fatalf("%s: GetKey(%d) = %v, %v, %v; oracle has %v", when, id, o, ok, err, want)
		}
	}
}

// Records with an array of a declared nested type — none to three elements,
// optional and undeclared fields on some — are overwritten across flushes and
// merges: every way of reading them answers like a map of the records
// written, in memory, flushed and merged components. A projection that does
// not read employment does not decode it.
func TestNestedRecordsThroughHistory(t *testing.T) {
	e := newEngine(t, Config{MergePolicy: lsm.ConstantPolicy{Components: 1}, NoSyncCommits: true})
	mustExec(t, e, gleambookDDL)
	d, _ := e.Dataset("GleambookUsers")
	oracle := map[int]*adm.Object{}
	for ver, ids := range [][2]int{{0, 60}, {30, 90}, {60, 120}} {
		for id := ids[0]; id < ids[1]; id++ {
			oracle[id] = nestedUser(id, ver)
			if err := e.UpsertValue("GleambookUsers", oracle[id]); err != nil {
				t.Fatal(err)
			}
		}
		if ver < 2 {
			if err := d.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
		checkUsers(t, e, oracle, fmt.Sprintf("version %d", ver))
	}
	if _, merges := d.LSMStats(); merges == 0 {
		t.Fatal("no merge: the history does not reach a merged component")
	}

	// Damage inside the first employment element of a positional record: a
	// projection of other fields never sees it, one of employment does.
	rec := nestedUser(501, 0)
	raw := adm.EncodeRecord(nil, rec, d.typ)
	at := int(raw[1+5]) // employment's offset; the record is short
	if raw[at] != byte(adm.KindArray) || raw[at+1] != 1 {
		t.Fatalf("employment of %v at %d is not a one-element array: %x", rec, at, raw)
	}
	raw[at+2] = 0xEE
	part, key, _, err := d.locate(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.parts[part].UpsertSpan(key, encodeRecordBytes(raw, false), nil); err != nil {
		t.Fatal(err)
	}
	if got := orderedRows(t, e, `SELECT VALUE u.name FROM GleambookUsers u WHERE u.id = 501;`); len(got) != 1 || got[0] != `"User 501"` {
		t.Errorf("name of the damaged record: %v", got)
	}
	if _, err := e.Query(context.Background(), `SELECT VALUE u.employment FROM GleambookUsers u WHERE u.id = 501;`); !errors.Is(err, adm.ErrCorrupt) {
		t.Errorf("employment of the damaged record: %v, want ErrCorrupt", err)
	}
}
