package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"asterix/internal/adm"
)

func newEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	if cfg.Now == nil {
		fixed, _ := time.Parse(time.RFC3339, "2019-04-01T00:00:00Z")
		cfg.Now = func() time.Time { return fixed }
	}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func mustExec(t testing.TB, e *Engine, script string) []Result {
	t.Helper()
	res, err := e.Execute(context.Background(), script)
	if err != nil {
		t.Fatalf("execute %q: %v", script, err)
	}
	return res
}

func queryRows(t testing.TB, e *Engine, q string) []adm.Value {
	t.Helper()
	r, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return r.Rows
}

const gleambookDDL = `
CREATE TYPE EmploymentType AS {
	organizationName: string,
	startDate: date,
	endDate: date?
};
CREATE TYPE GleambookUserType AS {
	id: int,
	alias: string,
	name: string,
	userSince: datetime,
	friendIds: {{ int }},
	employment: [EmploymentType]
};
CREATE TYPE GleambookMessageType AS {
	messageId: int,
	authorId: int,
	inResponseTo: int?,
	senderLocation: point?,
	message: string
};
CREATE DATASET GleambookUsers(GleambookUserType) PRIMARY KEY id;
CREATE DATASET GleambookMessages(GleambookMessageType) PRIMARY KEY messageId;
`

func seedUsers(t testing.TB, e *Engine, n int) {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `UPSERT INTO GleambookUsers ({
			"id": %d, "alias": "user%03d", "name": "User %d",
			"userSince": datetime("201%d-01-01T00:00:00"),
			"friendIds": {{ %d, %d }},
			"employment": [{"organizationName": "Org%d", "startDate": date("2015-06-01")}]
		});`, i, i, i, i%8, (i+1)%n, (i+2)%n, i%5)
	}
	mustExec(t, e, sb.String())
}

func TestDDLAndUpsertFigure3(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, gleambookDDL)
	// The paper's Figure 3(d) upsert, verbatim shape.
	mustExec(t, e, `
UPSERT INTO GleambookUsers (
	{"id":667,
	 "alias":"dfrump",
	 "name":"DonaldFrump",
	 "nickname":"Frumpkin",
	 "userSince":datetime("2017-01-01T00:00:00"),
	 "friendIds":{{}},
	 "employment":[{"organizationName":"USA",
	                "startDate":date("2017-01-20")}],
	 "gender":"M"}
);`)
	rows := queryRows(t, e, `SELECT VALUE u.name FROM GleambookUsers u WHERE u.id = 667;`)
	if len(rows) != 1 || rows[0].String() != `"DonaldFrump"` {
		t.Fatalf("rows: %v", rows)
	}
	// Upsert replaces.
	mustExec(t, e, `UPSERT INTO GleambookUsers ({
		"id":667, "alias":"dfrump", "name":"Replaced",
		"userSince":datetime("2017-01-01T00:00:00"),
		"friendIds":{{1}}, "employment":[]});`)
	rows = queryRows(t, e, `SELECT VALUE u.name FROM GleambookUsers u WHERE u.id = 667;`)
	if len(rows) != 1 || rows[0].String() != `"Replaced"` {
		t.Fatalf("after upsert: %v", rows)
	}
	// INSERT of a duplicate key must fail.
	if _, err := e.Execute(context.Background(), `INSERT INTO GleambookUsers ({
		"id":667, "alias":"x", "name":"x",
		"userSince":datetime("2017-01-01T00:00:00"),
		"friendIds":{{}}, "employment":[]});`); err == nil {
		t.Fatal("duplicate INSERT should fail")
	}
}

func TestTypeValidationOnInsert(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, gleambookDDL)
	// Missing required field `alias`.
	_, err := e.Execute(context.Background(), `UPSERT INTO GleambookUsers ({
		"id": 1, "name": "NoAlias",
		"userSince": datetime("2017-01-01T00:00:00"),
		"friendIds": {{}}, "employment": []});`)
	if err == nil {
		t.Fatal("missing required field must fail validation")
	}
	if !strings.Contains(err.Error(), "alias") {
		t.Errorf("error should mention field: %v", err)
	}
	// Open type admits extra fields.
	mustExec(t, e, `UPSERT INTO GleambookUsers ({
		"id": 1, "alias": "a", "name": "N",
		"userSince": datetime("2017-01-01T00:00:00"),
		"friendIds": {{}}, "employment": [], "extra": "fine"});`)
}

func TestQueryJoinGroupOrder(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, gleambookDDL)
	seedUsers(t, e, 20)
	var sb strings.Builder
	for i := 0; i < 60; i++ {
		loc := ""
		if i%2 == 0 {
			loc = fmt.Sprintf(`"senderLocation": point(%d, %d),`, i%30, i%20)
		}
		fmt.Fprintf(&sb, `UPSERT INTO GleambookMessages ({
			"messageId": %d, "authorId": %d, %s
			"message": "message number %d about topic%d"});`, i, i%20, loc, i, i%7)
	}
	mustExec(t, e, sb.String())

	rows := queryRows(t, e, `
		SELECT u.name AS name, COUNT(m) AS cnt
		FROM GleambookUsers u JOIN GleambookMessages m ON m.authorId = u.id
		GROUP BY u.name AS name
		ORDER BY name
		LIMIT 5;`)
	if len(rows) != 5 {
		t.Fatalf("rows: %d", len(rows))
	}
	first := rows[0].(*adm.Object)
	if first.Get("name").String() != `"User 0"` {
		t.Errorf("order wrong: %v", first)
	}
	if c, _ := adm.AsInt(first.Get("cnt")); c != 3 {
		t.Errorf("cnt = %v", first.Get("cnt"))
	}
}

func TestSecondaryIndexUsedAndCorrect(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, gleambookDDL)
	seedUsers(t, e, 50)
	mustExec(t, e, `CREATE INDEX gbUserSinceIdx ON GleambookUsers(userSince);`)

	plan, err := e.Explain(`SELECT VALUE u.id FROM GleambookUsers u
		WHERE u.userSince >= datetime("2015-01-01T00:00:00")
		  AND u.userSince < datetime("2017-01-01T00:00:00");`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "index-search") {
		t.Errorf("expected index-search in plan:\n%s", plan)
	}
	rows := queryRows(t, e, `SELECT VALUE u.id FROM GleambookUsers u
		WHERE u.userSince >= datetime("2015-01-01T00:00:00")
		  AND u.userSince < datetime("2017-01-01T00:00:00");`)
	// Users have userSince 201X where X = i%8: years 2015, 2016 → i%8 in {5,6}.
	want := 0
	for i := 0; i < 50; i++ {
		if i%8 == 5 || i%8 == 6 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("index query returned %d, want %d", len(rows), want)
	}
	// Same query without index must agree.
	mustExec(t, e, `DROP INDEX GleambookUsers.gbUserSinceIdx;`)
	rows2 := queryRows(t, e, `SELECT VALUE u.id FROM GleambookUsers u
		WHERE u.userSince >= datetime("2015-01-01T00:00:00")
		  AND u.userSince < datetime("2017-01-01T00:00:00");`)
	if len(rows2) != want {
		t.Fatalf("scan query returned %d, want %d", len(rows2), want)
	}
}

func TestRTreeIndexQuery(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, gleambookDDL)
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, `UPSERT INTO GleambookMessages ({
			"messageId": %d, "authorId": %d,
			"senderLocation": point(%d.5, %d.5),
			"message": "m%d"});`, i, i, i%20, i/20, i)
	}
	mustExec(t, e, sb.String())
	mustExec(t, e, `CREATE INDEX locIdx ON GleambookMessages(senderLocation) TYPE RTREE;`)
	plan, _ := e.Explain(`SELECT VALUE m.messageId FROM GleambookMessages m
		WHERE spatial_intersect(m.senderLocation, create_rectangle(0.0, 0.0, 5.0, 2.0));`)
	if !strings.Contains(plan, "RTREE") {
		t.Errorf("expected rtree index search:\n%s", plan)
	}
	rows := queryRows(t, e, `SELECT VALUE m.messageId FROM GleambookMessages m
		WHERE spatial_intersect(m.senderLocation, create_rectangle(0.0, 0.0, 5.0, 2.0));`)
	// Points (i%20+0.5, i/20+0.5) inside [0,5]x[0,2]: x in {0..4}.5 -> i%20 in 0..4, y in {0,1}.5 -> i/20 in 0..1.
	want := 0
	for i := 0; i < 100; i++ {
		x, y := float64(i%20)+0.5, float64(i/20)+0.5
		if x <= 5 && y <= 2 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("spatial query returned %d, want %d", len(rows), want)
	}
}

func TestKeywordIndexQuery(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, gleambookDDL)
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		word := "common"
		if i%10 == 0 {
			word = "needle"
		}
		fmt.Fprintf(&sb, `UPSERT INTO GleambookMessages ({
			"messageId": %d, "authorId": %d,
			"message": "some %s text here"});`, i, i, word)
	}
	mustExec(t, e, sb.String())
	mustExec(t, e, `CREATE INDEX msgIdx ON GleambookMessages(message) TYPE KEYWORD;`)
	plan, _ := e.Explain(`SELECT VALUE m.messageId FROM GleambookMessages m
		WHERE ftcontains(m.message, "needle");`)
	if !strings.Contains(plan, "KEYWORD") {
		t.Errorf("expected keyword index search:\n%s", plan)
	}
	rows := queryRows(t, e, `SELECT VALUE m.messageId FROM GleambookMessages m
		WHERE ftcontains(m.message, "needle");`)
	if len(rows) != 4 {
		t.Fatalf("keyword query returned %d, want 4", len(rows))
	}
}

func TestDeleteMaintainsIndexes(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, gleambookDDL)
	seedUsers(t, e, 30)
	mustExec(t, e, `CREATE INDEX aliasIdx ON GleambookUsers(alias);`)
	res := mustExec(t, e, `DELETE FROM GleambookUsers u WHERE u.id < 10;`)
	if res[0].Count != 10 {
		t.Fatalf("deleted %d", res[0].Count)
	}
	rows := queryRows(t, e, `SELECT VALUE u.id FROM GleambookUsers u WHERE u.alias = "user005";`)
	if len(rows) != 0 {
		t.Fatalf("deleted record still visible via index: %v", rows)
	}
	rows = queryRows(t, e, `SELECT VALUE u.id FROM GleambookUsers u WHERE u.alias = "user015";`)
	if len(rows) != 1 {
		t.Fatalf("surviving record lost: %v", rows)
	}
	if n, _ := queryCount(t, e, "GleambookUsers"); n != 20 {
		t.Fatalf("count after delete: %d", n)
	}
}

func queryCount(t testing.TB, e *Engine, ds string) (int64, error) {
	rows := queryRows(t, e, fmt.Sprintf(`SELECT VALUE COUNT(*) FROM %s x;`, ds))
	if len(rows) != 1 {
		return 0, fmt.Errorf("count query returned %d rows", len(rows))
	}
	n, _ := adm.AsInt(rows[0])
	return n, nil
}

func TestExternalDatasetFigure3Query(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "accesses.txt")
	var sb strings.Builder
	// ip|time|user|verb|path|stat|size — per Figure 3(b).
	for i := 0; i < 30; i++ {
		day := i%28 + 1
		fmt.Fprintf(&sb, "10.0.0.%d|2019-03-%02dT12:00:00|user%03d|GET|/page%d|200|%d\n",
			i, day, i%15, i, 100+i)
	}
	if err := os.WriteFile(logPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	e := newEngine(t, Config{DataDir: dir + "/engine"})
	mustExec(t, e, gleambookDDL)
	seedUsers(t, e, 15)
	mustExec(t, e, fmt.Sprintf(`
CREATE TYPE AccessLogType AS CLOSED {
	ip: string,
	time: string,
	user: string,
	verb: string,
	'path': string,
	stat: int32,
	size: int32
};
CREATE EXTERNAL DATASET AccessLog(AccessLogType) USING localfs
	(("path"="localhost://%s"), ("format"="delimited-text"), ("delimiter"="|"));`, logPath))

	// The paper's Figure 3(c) query, nearly verbatim (engine Now is fixed
	// at 2019-04-01, so the last 30 days cover all of March).
	rows := queryRows(t, e, `
WITH endTime AS current_datetime(),
     startTime AS endTime - duration("P30D")
SELECT nf AS numFriends, COUNT(user) AS activeUsers
FROM GleambookUsers user
LET nf = COLL_COUNT(user.friendIds)
WHERE SOME logrec IN AccessLog SATISFIES
      user.alias = logrec.user
  AND datetime(logrec.time) >= startTime
  AND datetime(logrec.time) <= endTime
GROUP BY nf;`)
	if len(rows) != 1 {
		t.Fatalf("figure 3 query rows: %v", rows)
	}
	o := rows[0].(*adm.Object)
	if nf, _ := adm.AsInt(o.Get("numFriends")); nf != 2 {
		t.Errorf("numFriends = %v", o.Get("numFriends"))
	}
	if au, _ := adm.AsInt(o.Get("activeUsers")); au != 15 {
		t.Errorf("activeUsers = %v (all 15 users appear in the log)", au)
	}
}

func TestRecoveryAfterCrash(t *testing.T) {
	dir := t.TempDir()
	fixed, _ := time.Parse(time.RFC3339, "2019-04-01T00:00:00Z")
	cfg := Config{DataDir: dir, Now: func() time.Time { return fixed }}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(context.Background(), gleambookDDL); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := e.UpsertValue("GleambookUsers", userObj(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.DeleteKey("GleambookUsers", adm.Int64(3)); err != nil {
		t.Fatal(err)
	}
	// Crash: no checkpoint, no flush — drop the engine on the floor
	// (memory components lost; only the WAL survives).
	e.txmgr.Log.Close()
	e.fm.Close()

	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	n, err := queryCount(t, e2, "GleambookUsers")
	if err != nil {
		t.Fatal(err)
	}
	if n != 24 {
		t.Fatalf("recovered count = %d, want 24", n)
	}
	if _, ok, _ := e2.GetKey("GleambookUsers", adm.Int64(3)); ok {
		t.Error("deleted record resurrected by recovery")
	}
	if rec, ok, _ := e2.GetKey("GleambookUsers", adm.Int64(7)); !ok {
		t.Error("record 7 lost")
	} else if rec.Get("alias").String() != `"user007"` {
		t.Errorf("recovered record wrong: %v", rec)
	}
}

func TestCheckpointLimitsRecovery(t *testing.T) {
	dir := t.TempDir()
	fixed, _ := time.Parse(time.RFC3339, "2019-04-01T00:00:00Z")
	cfg := Config{DataDir: dir, Now: func() time.Time { return fixed }}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(context.Background(), gleambookDDL); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := e.UpsertValue("GleambookUsers", userObj(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		if err := e.UpsertValue("GleambookUsers", userObj(i)); err != nil {
			t.Fatal(err)
		}
	}
	e.txmgr.Log.Close()
	e.fm.Close()

	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	n, _ := queryCount(t, e2, "GleambookUsers")
	if n != 15 {
		t.Fatalf("count after checkpointed recovery = %d, want 15", n)
	}
}

func userObj(i int) *adm.Object {
	since, _ := adm.ParseDatetime(fmt.Sprintf("201%d-01-01T00:00:00", i%8))
	start, _ := adm.ParseDate("2015-06-01")
	return adm.NewObject(
		adm.Field{Name: "id", Value: adm.Int64(i)},
		adm.Field{Name: "alias", Value: adm.String(fmt.Sprintf("user%03d", i))},
		adm.Field{Name: "name", Value: adm.String(fmt.Sprintf("User %d", i))},
		adm.Field{Name: "userSince", Value: since},
		adm.Field{Name: "friendIds", Value: adm.Multiset{adm.Int64(i + 1), adm.Int64(i + 2)}},
		adm.Field{Name: "employment", Value: adm.Array{adm.NewObject(
			adm.Field{Name: "organizationName", Value: adm.String("Org")},
			adm.Field{Name: "startDate", Value: start},
		)}},
	)
}

func TestUnnestEmployment(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, gleambookDDL)
	seedUsers(t, e, 10)
	rows := queryRows(t, e, `
		SELECT e.organizationName AS org, COUNT(*) AS n
		FROM GleambookUsers u UNNEST u.employment e
		GROUP BY e.organizationName AS org
		ORDER BY org;`)
	if len(rows) != 5 {
		t.Fatalf("org groups: %d", len(rows))
	}
	if o := rows[0].(*adm.Object); o.Get("org").String() != `"Org0"` {
		t.Errorf("first org: %v", o)
	}
}

func TestBareExpressionStatement(t *testing.T) {
	e := newEngine(t, Config{})
	rows := queryRows(t, e, `1 + 2;`)
	if len(rows) != 1 || rows[0].String() != "3" {
		t.Fatalf("bare expression: %v", rows)
	}
}

func TestPersistenceAcrossCleanRestart(t *testing.T) {
	dir := t.TempDir()
	fixed, _ := time.Parse(time.RFC3339, "2019-04-01T00:00:00Z")
	cfg := Config{DataDir: dir, Now: func() time.Time { return fixed }}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(context.Background(), gleambookDDL); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := e.UpsertValue("GleambookUsers", userObj(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	// Catalog survived: the type system still validates.
	if _, err := e2.Execute(context.Background(), `UPSERT INTO GleambookUsers ({"id": 100});`); err == nil {
		t.Error("schema lost across restart (validation should fail)")
	}
	n, _ := queryCount(t, e2, "GleambookUsers")
	if n != 40 {
		t.Fatalf("count after restart = %d", n)
	}
}

// TestOpenSweepsStaleRunFiles: a process killed mid-spill leaves run files
// under DataDir/tmp; opening the engine over that directory deletes them
// and nothing else (the cluster constructor does the sweep).
func TestOpenSweepsStaleRunFiles(t *testing.T) {
	dir := t.TempDir()
	spillDir := filepath.Join(dir, "tmp", "nc0")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		t.Fatal(err)
	}
	stale, other := filepath.Join(spillDir, "run-x.tmp"), filepath.Join(spillDir, "keep.dat")
	for _, f := range []string{stale, other} {
		if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	newEngine(t, Config{DataDir: dir})
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale run file survived engine start-up (stat: %v)", err)
	}
	if _, err := os.Stat(other); err != nil {
		t.Errorf("unrelated file was removed: %v", err)
	}
}

// Every partition runs on a node controller of its own: a node count other
// than the partition count is refused at open.
func TestOpenRefusesNodesOtherThanPartitions(t *testing.T) {
	if _, err := Open(Config{DataDir: t.TempDir(), Partitions: 2, Nodes: 3}); err == nil {
		t.Fatal("Open with Partitions 2 and Nodes 3 succeeded")
	}
	e := newEngine(t, Config{Partitions: 2, Nodes: 2})
	if n := len(e.Cluster().Nodes); n != 2 {
		t.Fatalf("engine with 2 partitions has %d nodes", n)
	}
}
