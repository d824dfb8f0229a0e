package core

import (
	"context"
	"strings"
	"testing"
	"unsafe"
)

// Error-path coverage: a system headed for users needs errors, not
// panics, on every bad input (the paper's §VII hardening lesson —
// "research projects tend to focus mostly on the happy path").

func expectError(t *testing.T, e *Engine, stmt, wantSubstring string) {
	t.Helper()
	_, err := e.Execute(context.Background(), stmt)
	if err == nil {
		t.Fatalf("statement should fail: %s", stmt)
	}
	if wantSubstring != "" && !strings.Contains(err.Error(), wantSubstring) {
		t.Errorf("error %q should mention %q", err.Error(), wantSubstring)
	}
}

func TestErrorPaths(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, `
		CREATE TYPE T AS {id: int};
		CREATE DATASET D(T) PRIMARY KEY id;`)
	// One row so per-tuple evaluation errors actually surface (expression
	// errors are data-dependent, as in any lazily-evaluated engine).
	mustExec(t, e, `UPSERT INTO D ({"id": 0});`)

	t.Run("unknown dataset in query", func(t *testing.T) {
		expectError(t, e, `SELECT VALUE x FROM Nope x;`, "")
	})
	t.Run("unknown dataset in DML", func(t *testing.T) {
		expectError(t, e, `UPSERT INTO Nope ({"id": 1});`, "Nope")
		expectError(t, e, `DELETE FROM Nope n;`, "Nope")
	})
	t.Run("unknown type", func(t *testing.T) {
		expectError(t, e, `CREATE DATASET D2(NoSuchType) PRIMARY KEY id;`, "NoSuchType")
	})
	t.Run("duplicate dataset", func(t *testing.T) {
		expectError(t, e, `CREATE DATASET D(T) PRIMARY KEY id;`, "already exists")
	})
	t.Run("duplicate type", func(t *testing.T) {
		expectError(t, e, `CREATE TYPE T AS {x: int};`, "already exists")
	})
	t.Run("record missing pk", func(t *testing.T) {
		expectError(t, e, `UPSERT INTO D ({"noid": 5});`, "id")
	})
	t.Run("non-object payload", func(t *testing.T) {
		expectError(t, e, `UPSERT INTO D (42);`, "object")
	})
	t.Run("unknown index kind", func(t *testing.T) {
		expectError(t, e, `CREATE INDEX i ON D(id) TYPE QUADTREE;`, "QUADTREE")
	})
	t.Run("index on unknown dataset", func(t *testing.T) {
		expectError(t, e, `CREATE INDEX i ON Nope(x);`, "Nope")
	})
	t.Run("drop unknown index", func(t *testing.T) {
		expectError(t, e, `DROP INDEX D.nope;`, "nope")
	})
	t.Run("drop unknown dataset", func(t *testing.T) {
		expectError(t, e, `DROP DATASET Nope;`, "Nope")
	})
	t.Run("drop type in use", func(t *testing.T) {
		expectError(t, e, `DROP TYPE T;`, "in use")
	})
	t.Run("syntax error", func(t *testing.T) {
		expectError(t, e, `SELEC VALUE 1;`, "")
		expectError(t, e, `SELECT VALUE FROM D;`, "")
	})
	t.Run("unknown function", func(t *testing.T) {
		expectError(t, e, `SELECT VALUE no_such_fn(d) FROM D d;`, "no_such_fn")
	})
	t.Run("undefined variable", func(t *testing.T) {
		expectError(t, e, `SELECT VALUE zz FROM D d;`, "zz")
	})
	t.Run("negative limit", func(t *testing.T) {
		expectError(t, e, `SELECT VALUE d FROM D d LIMIT -1;`, "LIMIT")
		// A nested block, which the interpreter runs, checks the same way.
		expectError(t, e, `SELECT VALUE (SELECT VALUE d FROM D d LIMIT -1);`, "LIMIT must be a non-negative integer")
		expectError(t, e, `SELECT VALUE (SELECT VALUE d FROM D d OFFSET 1.5);`, "OFFSET must be a non-negative integer")
	})
	t.Run("DML into external dataset", func(t *testing.T) {
		mustExec(t, e, `
			CREATE TYPE LT AS CLOSED {a: string};
			CREATE EXTERNAL DATASET Ext(LT) USING localfs
				(("path"="/does/not/exist"), ("format"="delimited-text"));`)
		expectError(t, e, `UPSERT INTO Ext ({"a": "x"});`, "external")
		// Querying a missing external file errors cleanly too.
		expectError(t, e, `SELECT VALUE x FROM Ext x;`, "")
	})
	t.Run("LOAD bad adapter", func(t *testing.T) {
		expectError(t, e, `LOAD DATASET D USING hdfs (("path"="/x"));`, "hdfs")
	})
	// The engine stays usable after all those errors.
	mustExec(t, e, `UPSERT INTO D ({"id": 1});`)
	rows := queryRows(t, e, `SELECT VALUE COUNT(*) FROM D d;`)
	if rows[0].String() != "2" {
		t.Fatalf("engine unusable after error barrage: %v", rows)
	}
}

func TestScriptStopsAtFirstError(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, `
		CREATE TYPE T AS {id: int};
		CREATE DATASET D(T) PRIMARY KEY id;`)
	results, err := e.Execute(context.Background(), `
		UPSERT INTO D ({"id": 1});
		UPSERT INTO Nope ({"id": 2});
		UPSERT INTO D ({"id": 3});`)
	if err == nil {
		t.Fatal("script should fail")
	}
	if len(results) != 1 {
		t.Fatalf("results before failure: %d", len(results))
	}
	rows := queryRows(t, e, `SELECT VALUE COUNT(*) FROM D d;`)
	if rows[0].String() != "1" {
		t.Fatalf("statement after the failing one must not run: %v", rows)
	}
}

// TestQueryContextCancellation: a cancelled context aborts a running
// parallel query promptly and leaves the engine usable.
func TestQueryContextCancellation(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, pointsDDL)
	seedPoints(t, e, 3000, 41)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the job must fail, not hang
	_, err := e.Query(ctx, `
		SELECT p.v AS v, COUNT(*) AS n FROM Points p, Points q
		WHERE p.v = q.v GROUP BY p.v AS v;`)
	if err == nil {
		t.Fatal("cancelled query should fail")
	}
	// Engine still works.
	rows := queryRows(t, e, `SELECT VALUE COUNT(*) FROM Points p;`)
	if rows[0].String() != "3000" {
		t.Fatalf("engine wedged after cancellation: %v", rows)
	}
}

func TestExplainStatement(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, pointsDDL)
	mustExec(t, e, `CREATE INDEX vIdx ON Points(v);`)
	res := mustExec(t, e, `EXPLAIN SELECT VALUE p.id FROM Points p WHERE p.v = 5;`)
	if len(res[0].Rows) != 1 {
		t.Fatalf("explain rows: %v", res[0].Rows)
	}
	plan := res[0].Rows[0].String()
	if !strings.Contains(plan, "index-search") {
		t.Fatalf("explain output:\n%s", plan)
	}
}

// TestUnboundNameFailsBeforeAnyJob: a name that nothing declares, a row
// variable read after GROUP BY outside a group key and an aggregate, or a
// call of an unknown function or with the wrong argument count, fails
// when the statement is bound, with one error whatever the input holds and
// whichever engine would run the scope it is in — the job (a top-level
// block), the interpreter (a nested block, EXISTS, a quantifier), or a
// constant expression — and no job reads a row first.
func TestUnboundNameFailsBeforeAnyJob(t *testing.T) {
	const (
		unbound = `eval: undefined variable "nosuch"`
		grouped = `eval: "u" is read after GROUP BY outside a group key and an aggregate`
		unknown = `eval: unknown function "nosuch"`
		arity   = `eval: lower expects 1 argument(s), got 3`
	)
	for _, rows := range []int{0, 30} {
		e := newEngine(t, Config{})
		mustExec(t, e, gleambookDDL)
		if rows > 0 {
			seedUsers(t, e, rows)
		}
		read := e.Metrics().Snapshot()["hyracks_rows_read_total"]
		for q, want := range map[string]string{
			`SELECT VALUE nosuch FROM GleambookUsers u WHERE u.id > 100;`:                                        unbound,
			`SELECT VALUE u.id FROM GleambookUsers u WHERE EXISTS (SELECT VALUE 1 FROM [1] x WHERE x = nosuch);`: unbound,
			`SELECT VALUE (SELECT VALUE nosuch FROM GleambookUsers v) FROM GleambookUsers u;`:                    unbound,
			`SELECT VALUE u.id FROM GleambookUsers u WHERE (SOME x IN u.friendIds SATISFIES x = nosuch);`:        unbound,
			`SELECT VALUE u.id FROM GleambookUsers u LIMIT nosuch;`:                                              unbound,
			`nosuch + 1;`:                          unbound,
			`UPSERT INTO GleambookUsers (nosuch);`: unbound,
			`SELECT u.id AS i FROM GleambookUsers u GROUP BY u.name;`:                                         grouped,
			`SELECT u.id AS i FROM GleambookUsers u WHERE u.id > 100 GROUP BY u.name;`:                        grouped,
			`SELECT n, COUNT(*) AS c FROM GleambookUsers u GROUP BY u.name AS n HAVING u.id > 1;`:             grouped,
			`SELECT VALUE (SELECT u.id AS i FROM GleambookUsers u GROUP BY u.name) FROM [1] x;`:               grouped,
			`SELECT n FROM GleambookUsers u GROUP BY u.name AS n ORDER BY (SELECT VALUE u.id FROM [1] x)[0];`: grouped,
			`SELECT VALUE u FROM GleambookUsers u WHERE nosuch(1);`:                                           unknown,
			`SELECT VALUE u FROM GleambookUsers u WHERE u.id > 100 AND nosuch(1);`:                            unknown,
			`SELECT VALUE (SELECT VALUE x FROM [] AS x WHERE nosuch(1)) FROM [1] y;`:                          unknown,
			`SELECT n, NOSUCH(COUNT(*)) AS c FROM GleambookUsers u GROUP BY u.name AS n;`:                     unknown,
			`nosuch(1);`: unknown,
			`SELECT VALUE lower(u.name, 1, 2) FROM GleambookUsers u WHERE u.id > 100;`: arity,
			`UPSERT INTO GleambookUsers ({"id": 1, "alias": lower("A", "b", "c")});`:   arity,
		} {
			if _, err := e.Query(context.Background(), q); err == nil || err.Error() != want {
				t.Errorf("%d rows, %s: error %v, want %q", rows, q, err, want)
			}
		}
		if after := e.Metrics().Snapshot()["hyracks_rows_read_total"]; after != read {
			t.Errorf("%d rows: a job read rows before the name failed (%v, then %v)", rows, read, after)
		}
	}
}

// TestStoredParamsDoNotAliasStatement: a string literal is a span of the
// statement that holds it, so the catalog keeps a copy of an external
// dataset's parameters, not the request text they were read from.
func TestStoredParamsDoNotAliasStatement(t *testing.T) {
	e := newEngine(t, Config{})
	script := `CREATE TYPE LT AS CLOSED {a: string};
		CREATE EXTERNAL DATASET Ext(LT) USING localfs (("path"="/does/not/exist"), ("format"="delimited-text"));`
	mustExec(t, e, script)
	def, ok := e.catalog.Dataset("Ext")
	if !ok || len(def.Params) != 2 {
		t.Fatalf("catalog entry %+v, %v", def, ok)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(script)))
	for k, v := range def.Params {
		for _, s := range []string{k, v} {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); lo <= p && p < lo+uintptr(len(script)) {
				t.Errorf("stored parameter %q shares the statement's memory", s)
			}
		}
	}
}
