package asterix

import (
	"context"
	"testing"
	"time"

	"asterix/internal/adm"
)

func openDB(t testing.TB) *DB {
	t.Helper()
	fixed, _ := time.Parse(time.RFC3339, "2019-04-01T00:00:00Z")
	db, err := Open(Config{DataDir: t.TempDir(), Now: func() time.Time { return fixed }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestOpenRequiresDataDir(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("missing DataDir must fail")
	}
}

func TestPublicAPISmoke(t *testing.T) {
	db := openDB(t)
	ctx := context.Background()
	_, err := db.Execute(ctx, `
		CREATE TYPE T AS {id: int, name: string};
		CREATE DATASET D(T) PRIMARY KEY id;
		UPSERT INTO D ([{"id": 1, "name": "ann"}, {"id": 2, "name": "bob"}]);
	`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(ctx, `SELECT VALUE d.name FROM D d ORDER BY d.id;`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.JSONRows(); len(got) != 2 || got[0] != `"ann"` || got[1] != `"bob"` {
		t.Fatalf("rows: %v", got)
	}

	// Programmatic record API.
	if err := db.Upsert("D", adm.NewObject(
		adm.Field{Name: "id", Value: adm.Int64(3)},
		adm.Field{Name: "name", Value: adm.String("cal")},
	)); err != nil {
		t.Fatal(err)
	}
	rec, ok, err := db.Get("D", adm.Int64(3))
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if rec.Get("name").String() != `"cal"` {
		t.Fatalf("rec: %v", rec)
	}
	if err := db.Delete("D", adm.Int64(3)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get("D", adm.Int64(3)); ok {
		t.Fatal("delete failed")
	}
}

func TestAQLPeerLanguage(t *testing.T) {
	db := openDB(t)
	ctx := context.Background()
	if _, err := db.Execute(ctx, `
		CREATE TYPE T AS {id: int, v: int};
		CREATE DATASET D(T) PRIMARY KEY id;
	`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := db.Upsert("D", adm.NewObject(
			adm.Field{Name: "id", Value: adm.Int64(int64(i))},
			adm.Field{Name: "v", Value: adm.Int64(int64(i * 10))},
		)); err != nil {
			t.Fatal(err)
		}
	}
	sqlRes, err := db.Query(ctx, `SELECT VALUE d.v FROM D d WHERE d.id < 3 ORDER BY d.v;`)
	if err != nil {
		t.Fatal(err)
	}
	aqlRes, err := db.QueryAQL(ctx, `
		for $d in dataset D
		where $d.id < 3
		order by $d.v
		return $d.v`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sqlRes.Rows) != len(aqlRes.Rows) {
		t.Fatalf("SQL++ %d rows, AQL %d rows", len(sqlRes.Rows), len(aqlRes.Rows))
	}
	for i := range sqlRes.Rows {
		if adm.Compare(sqlRes.Rows[i], aqlRes.Rows[i]) != 0 {
			t.Fatalf("row %d: %v vs %v", i, sqlRes.Rows[i], aqlRes.Rows[i])
		}
	}
}

func TestExplain(t *testing.T) {
	db := openDB(t)
	if _, err := db.Execute(context.Background(), `
		CREATE TYPE T AS {id: int};
		CREATE DATASET D(T) PRIMARY KEY id;
	`); err != nil {
		t.Fatal(err)
	}
	plan, err := db.Explain(`SELECT VALUE d FROM D d WHERE d.id = 1;`)
	if err != nil {
		t.Fatal(err)
	}
	if plan == "" {
		t.Fatal("empty plan")
	}
}

// TestTotalMemoryIsTheOneBudget opens an instance through its one memory
// setting: the governor's pools split the total (internal/core tests the
// split), and a total below 1 MiB is refused.
func TestTotalMemoryIsTheOneBudget(t *testing.T) {
	db, err := Open(Config{DataDir: t.TempDir(), TotalMemory: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap := db.Metrics().Snapshot()
	for name, want := range map[string]float64{
		"mem_total_budget_bytes":         64 << 20,
		"mem_buffercache_reserved_bytes": 16 << 20,
		"mem_component_pool_bytes":       16 << 20,
		"mem_working_pool_bytes":         32 << 20,
	} {
		if got := snap[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if db, err := Open(Config{DataDir: t.TempDir(), TotalMemory: 512 << 10}); err == nil {
		db.Close()
		t.Fatal("a total below 1 MiB must be refused")
	}
}
