package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"asterix/internal/adm"
	"asterix/internal/check"
	"asterix/internal/fault"
	"asterix/internal/lsm"
	"asterix/internal/metadata"
	"asterix/internal/txn"
)

// The crash dataset carries one secondary index of every LSM kind, so
// every fault and recovery path runs over B+tree, R-tree and keyword
// (B+tree-backed inverted) indexes alike.
const crashDDL = `
CREATE TYPE KVType AS { id: int, val: string, loc: point };
CREATE DATASET KV(KVType) PRIMARY KEY id;
CREATE INDEX kvLoc ON KV(loc) TYPE RTREE;
CREATE INDEX kvVal ON KV(val) TYPE KEYWORD;
`

func crashRec(id int) *adm.Object {
	return adm.NewObject(
		adm.Field{Name: "id", Value: adm.Int64(int64(id))},
		adm.Field{Name: "val", Value: adm.String(fmt.Sprintf("v%04d", id))},
		adm.Field{Name: "loc", Value: adm.Point{X: float64(id % 10), Y: float64(id / 10)}},
	)
}

// checkCrashIndexes verifies the recovered secondary indexes against the
// primary scan: the R-tree answers a whole-world spatial query with
// exactly the scanned ids, and the keyword index finds every one of them
// by its own token.
func checkCrashIndexes(t *testing.T, e *Engine, scanned []adm.Value) {
	t.Helper()
	const spatialQ = `SELECT VALUE v.id FROM KV v
		WHERE spatial_intersect(v.loc, create_rectangle(-1.0, -1.0, 1000.0, 1000.0));`
	if plan, _ := e.Explain(spatialQ); !strings.Contains(plan, "RTREE") {
		t.Fatalf("spatial query does not use the R-tree index:\n%s", plan)
	}
	want := map[string]bool{}
	for _, v := range scanned {
		want[v.String()] = true
	}
	got := queryRows(t, e, spatialQ)
	if len(got) != len(want) {
		t.Fatalf("R-tree index returned %d rows, primary scan %d", len(got), len(want))
	}
	for _, v := range got {
		if !want[v.String()] {
			t.Fatalf("R-tree index returned id %s the primary scan does not have", v)
		}
	}
	for _, v := range scanned {
		id := int(v.(adm.Int64))
		q := fmt.Sprintf(`SELECT VALUE v.id FROM KV v WHERE ftcontains(v.val, "v%04d");`, id)
		if rows := queryRows(t, e, q); len(rows) != 1 || rows[0].String() != v.String() {
			t.Fatalf("keyword index lookup of id %d returned %v", id, rows)
		}
	}
}

// TestCrashRecoveryMatrix is the crash-point matrix: for each armed fault
// point, ingest until the injection surfaces, hard-crash the engine
// (CrashStop: no buffer-cache flush, no checkpoint), disarm, Reopen, and
// verify that recovery (a) replays every acknowledged commit, (b) does
// not resurrect writes whose commit errored — except where the commit
// record itself may already be durable — and (c) leaves every structure
// satisfying its deep validators.
func TestCrashRecoveryMatrix(t *testing.T) {
	cases := []struct {
		name  string
		spec  string
		point string
		// extrasOK: writes whose commit returned an error may still be
		// present after recovery. True for the failed-sync case: the
		// commit record was appended (and may be durable) before the
		// sync error was reported to the client.
		extrasOK bool
		// checkpoints: run Checkpoint between ingest rounds so the
		// flush/merge paths execute and hit their fault points.
		checkpoints bool
	}{
		{"flush-io", fault.PointLSMFlush + ":error:times=1", fault.PointLSMFlush, false, true},
		{"merge-io", fault.PointLSMMerge + ":error:times=1", fault.PointLSMMerge, false, true},
		{"wal-append-torn", fault.PointWALAppend + ":torn:after=25:times=1", fault.PointWALAppend, false, false},
		{"wal-sync", fault.PointWALSync + ":error:after=10:times=1", fault.PointWALSync, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv("ASTERIX_INVARIANTS", "1")
			fault.Disarm()
			defer fault.Disarm()

			fixed, _ := time.Parse(time.RFC3339, "2019-04-01T00:00:00Z")
			cfg := Config{
				DataDir: t.TempDir(),
				// Merge after two disk components so round two of the
				// checkpointing cases reaches the merge path.
				MergePolicy: lsm.ConstantPolicy{Components: 2},
				Now:         func() time.Time { return fixed },
			}
			e, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Execute(context.Background(), crashDDL); err != nil {
				t.Fatal(err)
			}

			if err := fault.Arm(tc.spec); err != nil {
				t.Fatal(err)
			}
			acked := map[int]bool{}
			failed := map[int]bool{}
			id := 0
			for round := 0; round < 3; round++ {
				for i := 0; i < 20; i++ {
					if err := e.UpsertValue("KV", crashRec(id)); err != nil {
						failed[id] = true
					} else {
						acked[id] = true
					}
					id++
				}
				if tc.checkpoints {
					// The injected flush/merge failure surfaces here;
					// crash consistency must hold either way.
					_ = e.Checkpoint()
				}
			}
			if fault.Fired(tc.point) == 0 {
				t.Fatalf("fault %s never fired (acked=%d failed=%d)", tc.point, len(acked), len(failed))
			}
			if len(acked) == 0 {
				t.Fatal("no acknowledged writes before the crash; matrix case proves nothing")
			}

			if err := e.CrashStop(); err != nil {
				t.Fatalf("crash stop: %v", err)
			}
			fault.Disarm()
			e2, err := e.Reopen()
			if err != nil {
				t.Fatalf("reopen after %s crash: %v", tc.name, err)
			}
			defer e2.Close()

			for id := range acked {
				o, ok, err := e2.GetKey("KV", adm.Int64(int64(id)))
				if err != nil {
					t.Fatalf("get %d after recovery: %v", id, err)
				}
				if !ok {
					t.Fatalf("acknowledged commit %d lost in %s crash", id, tc.name)
				}
				if got := o.Get("val").String(); got != fmt.Sprintf("%q", fmt.Sprintf("v%04d", id)) {
					t.Fatalf("record %d recovered with val %s", id, got)
				}
			}
			for id := range failed {
				_, ok, err := e2.GetKey("KV", adm.Int64(int64(id)))
				if err != nil {
					t.Fatalf("get failed-id %d: %v", id, err)
				}
				if ok && !tc.extrasOK {
					t.Errorf("unacknowledged write %d resurrected by recovery", id)
				}
			}

			// End-to-end read path over recovered state.
			rows := queryRows(t, e2, `SELECT VALUE v.id FROM KV v;`)
			if len(rows) < len(acked) {
				t.Fatalf("scan found %d rows, want >= %d acknowledged", len(rows), len(acked))
			}
			if !tc.extrasOK && len(rows) != len(acked) {
				t.Fatalf("scan found %d rows, want exactly %d", len(rows), len(acked))
			}
			checkCrashIndexes(t, e2, rows)

			// Deep structural validators over every partition and index.
			d, ok := e2.Dataset("KV")
			if !ok {
				t.Fatal("dataset KV missing after recovery")
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("post-recovery validation: %v", err)
			}
			// The governor's books must balance after recovery too: a
			// crash must not strand working-memory grants or component
			// charges from the pre-crash incarnation.
			check.MustValidate(t, e2.MemGovernor())
		})
	}
}

// TestCrashBetweenRTreeBuildAndManifest crashes after an R-tree component
// was built and its pages reached disk but before the manifest named it.
// The reopened index hands the same sequence number out again, so the
// first checkpoint after recovery flushes over the orphan file: it must
// replace it, and the index must answer from the replayed log.
func TestCrashBetweenRTreeBuildAndManifest(t *testing.T) {
	t.Setenv("ASTERIX_INVARIANTS", "1")
	fault.Disarm()
	defer fault.Disarm()

	fixed, _ := time.Parse(time.RFC3339, "2019-04-01T00:00:00Z")
	e, err := Open(Config{DataDir: t.TempDir(), Now: func() time.Time { return fixed }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(context.Background(), crashDDL); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 40; id++ {
		if err := e.UpsertValue("KV", crashRec(id)); err != nil {
			t.Fatal(err)
		}
	}
	si, ok := e.SecondaryIndexHandle("KV", "kvLoc")
	if !ok {
		t.Fatal("index kvLoc not open")
	}
	if err := fault.Arm(fault.PointLSMFlush + ":error:times=0"); err != nil {
		t.Fatal(err)
	}
	for p, rt := range si.rts { // 40 keys: neither partition is empty
		if err := rt.Flush(); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("R-tree partition %d flush with armed fault: got %v", p, err)
		}
	}
	if fault.Fired(fault.PointLSMFlush) == 0 {
		t.Fatal("flush fault never fired on an R-tree")
	}
	fault.Disarm()
	// The orphan components' pages reach disk, then the process dies.
	if err := e.bc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := e.CrashStop(); err != nil {
		t.Fatal(err)
	}

	e2, err := e.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if err := e2.Checkpoint(); err != nil {
		t.Fatalf("first checkpoint after reopen over orphan R-tree components: %v", err)
	}
	rows := queryRows(t, e2, `SELECT VALUE v.id FROM KV v;`)
	if len(rows) != 40 {
		t.Fatalf("scan found %d rows, want 40", len(rows))
	}
	checkCrashIndexes(t, e2, rows)
	d, _ := e2.Dataset("KV")
	if err := d.Validate(); err != nil {
		t.Fatalf("post-recovery validation: %v", err)
	}
}

// TestReopenAfterCleanCrashKeepsWorking makes sure a recovered engine is
// fully writable: new DML lands after the repaired WAL tail and survives a
// second crash/reopen cycle.
func TestCrashReopenTwice(t *testing.T) {
	t.Setenv("ASTERIX_INVARIANTS", "1")
	fault.Disarm()
	defer fault.Disarm()

	fixed, _ := time.Parse(time.RFC3339, "2019-04-01T00:00:00Z")
	cfg := Config{DataDir: t.TempDir(), Now: func() time.Time { return fixed }}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(context.Background(), crashDDL); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := e.UpsertValue("KV", crashRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash with a torn tail in the WAL.
	if err := fault.Arm(fault.PointWALAppend + ":torn:times=1"); err != nil {
		t.Fatal(err)
	}
	if err := e.UpsertValue("KV", crashRec(10)); err == nil {
		t.Fatal("torn append must fail the upsert")
	}
	fault.Disarm()
	if err := e.CrashStop(); err != nil {
		t.Fatal(err)
	}

	e2, err := e.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	// The recovered log must accept new appends at the repaired tail.
	for i := 10; i < 20; i++ {
		if err := e2.UpsertValue("KV", crashRec(i)); err != nil {
			t.Fatalf("post-recovery upsert %d: %v", i, err)
		}
	}
	if err := e2.CrashStop(); err != nil {
		t.Fatal(err)
	}

	e3, err := e2.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	rows := queryRows(t, e3, `SELECT VALUE v.id FROM KV v;`)
	if len(rows) != 20 {
		t.Fatalf("after two crash cycles: %d rows, want 20", len(rows))
	}
	d, _ := e3.Dataset("KV")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// editCatalog rewrites the catalog of the closed engine over dir as edit
// leaves its JSON document.
func editCatalog(t *testing.T, dir string, edit func(cat map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, "metadata.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cat map[string]any
	if err := json.Unmarshal(raw, &cat); err != nil {
		t.Fatal(err)
	}
	edit(cat)
	if raw, err = json.Marshal(cat); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// dirFiles maps every file under dir to its content.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	if err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		files[path] = string(data)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return files
}

// A data directory of another storage format is refused before anything in
// it is opened for writing: Open fails with metadata.ErrStorageFormat, and
// every file keeps its bytes — the WAL's torn tail is not truncated, and the
// run file a killed spill left is not deleted.
func TestStorageFormatRefusalLeavesDirectory(t *testing.T) {
	fault.Disarm()
	defer fault.Disarm()
	e := newEngine(t, Config{})
	mustExec(t, e, crashDDL)
	for i := 0; i < 10; i++ {
		if err := e.UpsertValue("KV", crashRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := fault.Arm(fault.PointWALAppend + ":torn:times=1"); err != nil {
		t.Fatal(err)
	}
	if err := e.UpsertValue("KV", crashRec(10)); err == nil {
		t.Fatal("torn append must fail the upsert")
	}
	fault.Disarm()
	if err := e.CrashStop(); err != nil {
		t.Fatal(err)
	}
	dir := e.cfg.DataDir
	lm, err := txn.OpenLog(filepath.Join(dir, "txnlog"))
	if err != nil {
		t.Fatal(err)
	}
	if err := lm.Scan(0, func(*txn.LogRecord) bool { return true }); err != nil || lm.TornTails() != 1 {
		t.Fatalf("the log has %d torn tails (%v), want 1", lm.TornTails(), err)
	}
	lm.Close()
	if err := os.WriteFile(filepath.Join(dir, "tmp", "nc0", "run-1.tmp"), []byte("spilled"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A directory written before the format was recorded, and one of
	// format 2, whose B+tree keys are stored whole: this build reads format 3.
	for _, c := range []struct {
		name string
		edit func(cat map[string]any)
	}{
		{"format 0", func(cat map[string]any) { delete(cat, "format") }},
		{"format 2", func(cat map[string]any) { cat["format"] = 2 }},
	} {
		editCatalog(t, dir, c.edit)
		before := dirFiles(t, dir)
		e2, err := Open(e.cfg)
		if err == nil {
			e2.Close()
		}
		if !errors.Is(err, metadata.ErrStorageFormat) || !strings.Contains(err.Error(), c.name) || !strings.Contains(err.Error(), "format 3") {
			t.Errorf("Open of a %s directory: %v, want ErrStorageFormat naming %s and format 3", c.name, err, c.name)
		}
		after := dirFiles(t, dir)
		for path, data := range before {
			if got, ok := after[path]; !ok || got != data {
				t.Errorf("%s: %s: %d bytes, then %d (present: %v)", c.name, path, len(data), len(got), ok)
			}
		}
		if len(after) != len(before) {
			t.Errorf("%s: the refused directory had %d files, then %d", c.name, len(before), len(after))
		}
	}
}
