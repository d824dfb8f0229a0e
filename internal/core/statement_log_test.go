package core

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asterix/internal/adm"
	"asterix/internal/fault"
	"asterix/internal/txn"
)

const statementDDL = `CREATE TYPE VT AS {id: int, v: string};
CREATE DATASET D(VT) PRIMARY KEY id;`

// ids returns the ids D holds, in key order, as "[1 2 3]".
func ids(t *testing.T, e *Engine) string {
	t.Helper()
	return "[" + strings.Join(orderedRows(t, e, `SELECT VALUE d.id FROM D d ORDER BY d.id;`), " ") + "]"
}

// logWrites returns the write system calls the engine's WAL has issued.
func logWrites(e *Engine) int64 {
	return int64(e.Metrics().Snapshot()["txn_log_writes_total"].(float64))
}

// crashAndReopen hard-stops e and recovers a fresh engine over its DataDir.
func crashAndReopen(t *testing.T, e *Engine) *Engine {
	t.Helper()
	if err := e.CrashStop(); err != nil {
		t.Fatal(err)
	}
	e2, err := e.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e2.Close() })
	return e2
}

// A statement is checked whole before anything of it is logged or applied:
// a record that fails its type or repeats a key leaves nothing of the
// statement visible, not even until the next restart, and costs no log write.
func TestStatementIsCheckedWhole(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, statementDDL+`UPSERT INTO D ({"id": 9, "v": "nine"});`)
	before := logWrites(e)
	for _, c := range []struct{ stmt, err string }{
		{`UPSERT INTO D ([{"id": 1, "v": "a"}, {"id": 2, "v": 7}]);`, "expected string"},
		{`INSERT INTO D ([{"id": 5, "v": "x"}, {"id": 5, "v": "y"}]);`, "duplicate primary key"},
		{`INSERT INTO D ([{"id": 6, "v": "x"}, {"id": 9, "v": "y"}]);`, "duplicate primary key"},
	} {
		expectError(t, e, c.stmt, c.err)
		if got := ids(t, e); got != "[9]" {
			t.Errorf("after %s: ids %s, want [9]", c.stmt, got)
		}
	}
	if n := logWrites(e) - before; n != 0 {
		t.Errorf("refused statements wrote the log %d times", n)
	}
	if got := ids(t, crashAndReopen(t, e)); got != "[9]" {
		t.Errorf("after a crash: ids %s, want [9]", got)
	}
}

// A statement costs two log writes whatever its size — its update records
// in one, its commit in the other — and so does DELETE.
func TestStatementCostsTwoLogWrites(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, statementDDL)
	var batch []string
	for i := 0; i < 20; i++ {
		batch = append(batch, fmt.Sprintf(`{"id": %d, "v": "v%d"}`, i, i))
	}
	for _, c := range []struct {
		what string
		run  func() error
	}{
		{"a 20-record UPSERT", func() error {
			_, err := e.Execute(context.Background(), `UPSERT INTO D ([`+strings.Join(batch, ",")+`]);`)
			return err
		}},
		{"UpsertValue", func() error {
			return e.UpsertValue("D", adm.NewObject(adm.Field{Name: "id", Value: adm.Int64(40)}, adm.Field{Name: "v", Value: adm.String("x")}))
		}},
		{"a 20-record DELETE", func() error {
			_, err := e.Execute(context.Background(), `DELETE FROM D d WHERE d.id < 20;`)
			return err
		}},
		{"DeleteKey", func() error { return e.DeleteKey("D", adm.Int64(40)) }},
	} {
		before := logWrites(e)
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		if n := logWrites(e) - before; n != 2 {
			t.Errorf("%s: %d log writes, want 2", c.what, n)
		}
	}
	if got := ids(t, e); got != "[]" {
		t.Errorf("ids %s, want none", got)
	}
	if n := e.Metrics().Snapshot()["txn_log_bytes_total"].(float64); n <= 0 {
		t.Errorf("txn_log_bytes_total = %v", n)
	}
}

// A statement that did not commit stays undone through any number of
// restarts: the statement after it never takes over its transaction id, so
// that statement's commit cannot make redo replay the undone updates.
func TestAbortedStatementStaysAborted(t *testing.T) {
	for _, c := range []struct {
		name string
		fail func(t *testing.T, e *Engine) *Engine
	}{
		{"refused statement, clean restart", func(t *testing.T, e *Engine) *Engine {
			expectError(t, e, `UPSERT INTO D ([{"id": 2, "v": "b"}, {"id": 3, "v": 7}]);`, "expected string")
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e2, err := e.Reopen()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { e2.Close() })
			return e2
		}},
		{"crash between update records and commit", func(t *testing.T, e *Engine) *Engine {
			fault.Disarm()
			defer fault.Disarm()
			// The statement's first append (its updates) passes, the second
			// (its commit) is torn.
			if err := fault.Arm(fault.PointWALAppend + ":torn:after=1:times=1"); err != nil {
				t.Fatal(err)
			}
			expectError(t, e, `UPSERT INTO D ([{"id": 2, "v": "b"}, {"id": 3, "v": "c"}]);`, "injected")
			fault.Disarm()
			return crashAndReopen(t, e)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := newEngine(t, Config{})
			mustExec(t, e, statementDDL+`UPSERT INTO D ({"id": 1, "v": "a"});`)
			e = c.fail(t, e)
			if got := ids(t, e); got != "[1]" {
				t.Fatalf("after the failed statement: ids %s, want [1]", got)
			}
			mustExec(t, e, `UPSERT INTO D ({"id": 4, "v": "d"});`)
			if got := ids(t, crashAndReopen(t, e)); got != "[1 4]" {
				t.Errorf("after the next statement and a crash: ids %s, want [1 4]", got)
			}
		})
	}
}

// A crash that tears a statement's one write at any record boundary — or its
// commit anywhere — redoes none of the statement and all that came before.
func TestTornStatementRedoesNothing(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, statementDDL+`UPSERT INTO D ({"id": 100, "v": "before"});`)
	var batch []string
	for i := 0; i < 20; i++ {
		batch = append(batch, fmt.Sprintf(`{"id": %d, "v": "v%d"}`, i, i))
	}
	mustExec(t, e, `UPSERT INTO D ([`+strings.Join(batch, ",")+`]);`)
	dir := e.cfg.DataDir
	if err := e.CrashStop(); err != nil {
		t.Fatal(err)
	}
	// The statement is the log's last transaction: its 20 updates, then its
	// commit.
	lm, err := txn.OpenLog(filepath.Join(dir, "txnlog"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []*txn.LogRecord
	if err := lm.Scan(0, func(r *txn.LogRecord) bool { recs = append(recs, r); return true }); err != nil {
		t.Fatal(err)
	}
	lm.Close()
	recs = recs[len(recs)-21:]
	var cuts []int64
	for i, r := range recs {
		if i < 20 && (r.Type != txn.RecUpdate || r.TxnID != recs[20].TxnID) || i == 20 && r.Type != txn.RecCommit {
			t.Fatalf("log record %d of the statement: %+v", i, r)
		}
		cuts = append(cuts, r.LSN)
	}
	cuts = append(cuts, recs[20].LSN+3) // inside the commit record
	for _, cut := range cuts {
		torn := filepath.Join(t.TempDir(), "data")
		if err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
			rel, _ := filepath.Rel(dir, path)
			if err != nil || de.IsDir() {
				return errors.Join(err, os.MkdirAll(filepath.Join(torn, rel), 0o755))
			}
			data, err := os.ReadFile(path)
			return errors.Join(err, os.WriteFile(filepath.Join(torn, rel), data, 0o644))
		}); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(filepath.Join(torn, "txnlog", "txn.log"), cut); err != nil {
			t.Fatal(err)
		}
		cfg := e.cfg
		cfg.DataDir = torn
		e2 := newEngine(t, cfg)
		if got := ids(t, e2); got != "[100]" {
			t.Errorf("log cut at %d: ids %s, want [100]", cut, got)
		}
		e2.Close()
	}
}
