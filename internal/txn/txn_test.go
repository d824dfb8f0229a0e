package txn

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"asterix/internal/fault"
	"asterix/internal/obs"
)

func newLog(t testing.TB) (*LogManager, string) {
	t.Helper()
	dir := t.TempDir()
	lm, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lm.Close() })
	return lm, dir
}

// logOne logs one update of key in incarnation 1 of dataset ds.
func logOne(tx *Txn, ds string, op Op, key, value []byte) error {
	return tx.LogUpdates(ds, 1, []LogRecord{{Op: op, Key: key, Value: value}})
}

func TestLogAppendScanRoundTrip(t *testing.T) {
	lm, _ := newLog(t)
	recs := []*LogRecord{
		{Type: RecUpdate, TxnID: 1, Incarnation: 3, Partition: 2, Op: OpUpsert, Key: []byte("k1"), Value: []byte("v1")},
		{Type: RecUpdate, TxnID: 1, Incarnation: 3, Partition: 0, Op: OpDelete, Key: []byte("k2")},
		{Type: RecCommit, TxnID: 1},
	}
	for _, r := range recs {
		if err := lm.Append(*r); err != nil {
			t.Fatal(err)
		}
	}
	var got []*LogRecord
	if err := lm.Scan(0, func(r *LogRecord) bool { got = append(got, r); return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("scanned %d records", len(got))
	}
	if got[0].Incarnation != 3 || string(got[0].Key) != "k1" || string(got[0].Value) != "v1" {
		t.Errorf("record 0 mismatch: %+v", got[0])
	}
	if got[1].Op != OpDelete || got[1].Partition != 0 {
		t.Errorf("record 1 mismatch: %+v", got[1])
	}
	if got[2].Type != RecCommit {
		t.Errorf("record 2 mismatch: %+v", got[2])
	}
	// LSNs are strictly increasing.
	if !(got[0].LSN < got[1].LSN && got[1].LSN < got[2].LSN) {
		t.Error("LSNs not increasing")
	}
}

func TestLogTornTailIgnored(t *testing.T) {
	lm, dir := newLog(t)
	lm.Append(LogRecord{Type: RecUpdate, TxnID: 1, Incarnation: 1, Op: OpUpsert, Key: []byte("k"), Value: []byte("v")})
	lm.Append(LogRecord{Type: RecCommit, TxnID: 1})
	lm.Close()
	// Simulate a crash mid-append: garbage partial header at the tail.
	path := filepath.Join(dir, "txn.log")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 99, 1, 2})
	f.Close()

	lm2, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer lm2.Close()
	n := 0
	if err := lm2.Scan(0, func(r *LogRecord) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("scan over torn log returned %d records", n)
	}
}

func TestRecoverReplaysOnlyCommitted(t *testing.T) {
	lm, _ := newLog(t)
	m := NewManager(lm)

	t1 := m.Begin()
	logOne(t1, "Users", OpUpsert, []byte("a"), []byte("1"))
	t1.Commit()

	t2 := m.Begin() // never commits (loser)
	logOne(t2, "Users", OpUpsert, []byte("b"), []byte("2"))

	t3 := m.Begin()
	logOne(t3, "Users", OpDelete, []byte("a"), nil)
	t3.Commit()

	var applied []string
	n, err := m.Recover(func(rec *LogRecord) error {
		applied = append(applied, fmt.Sprintf("%d:%s", rec.Op, rec.Key))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("redone %d, want 2 (loser excluded)", n)
	}
	if applied[0] != fmt.Sprintf("%d:a", OpUpsert) || applied[1] != fmt.Sprintf("%d:a", OpDelete) {
		t.Errorf("replay order wrong: %v", applied)
	}
}

func TestCheckpointLimitsRedo(t *testing.T) {
	lm, _ := newLog(t)
	m := NewManager(lm)
	t1 := m.Begin()
	logOne(t1, "d", OpUpsert, []byte("old"), []byte("x"))
	t1.Commit()
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	t2 := m.Begin()
	logOne(t2, "d", OpUpsert, []byte("new"), []byte("y"))
	t2.Commit()

	var keys []string
	if _, err := m.Recover(func(rec *LogRecord) error {
		keys = append(keys, string(rec.Key))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "new" {
		t.Fatalf("redo after checkpoint should only replay 'new': %v", keys)
	}
}

func TestAbortExcludesUpdates(t *testing.T) {
	lm, _ := newLog(t)
	m := NewManager(lm)
	tx := m.Begin()
	logOne(tx, "d", OpUpsert, []byte("k"), []byte("v"))
	tx.Abort()
	n, err := m.Recover(func(rec *LogRecord) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("aborted txn was redone (%d records)", n)
	}
	if err := tx.Commit(); err == nil {
		t.Error("commit after abort must fail")
	}
}

func TestLockConflictAndRelease(t *testing.T) {
	lm := NewLockManager(200 * time.Millisecond)
	if err := lm.Lock(1, "d", []byte("k")); err != nil {
		t.Fatal(err)
	}
	// Re-entrant acquire is fine.
	if err := lm.Lock(1, "d", []byte("k")); err != nil {
		t.Fatal(err)
	}
	// Conflicting lock times out.
	if err := lm.Lock(2, "d", []byte("k")); err == nil {
		t.Fatal("conflicting lock should time out")
	}
	// Different key does not conflict.
	if err := lm.Lock(2, "d", []byte("other")); err != nil {
		t.Fatal(err)
	}
	lm.UnlockAll(1)
	if err := lm.Lock(2, "d", []byte("k")); err != nil {
		t.Fatalf("lock after release failed: %v", err)
	}
	lm.UnlockAll(2)
}

func TestLockHandoffUnderContention(t *testing.T) {
	lm := NewLockManager(5 * time.Second)
	var counter int
	var wg sync.WaitGroup
	for g := 1; g <= 8; g++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := lm.Lock(id, "d", []byte("hot")); err != nil {
					t.Error(err)
					return
				}
				counter++ // protected by the record lock
				lm.UnlockAll(id)
			}
		}(int64(g))
	}
	wg.Wait()
	if counter != 200 {
		t.Fatalf("counter = %d, lock exclusion broken", counter)
	}
}

func TestManagerIDsMonotonic(t *testing.T) {
	lm, _ := newLog(t)
	m := NewManager(lm)
	a, b := m.Begin(), m.Begin()
	if a.ID >= b.ID {
		t.Error("txn ids must increase")
	}
}

func TestRepairTailTruncatesGarbage(t *testing.T) {
	lm, dir := newLog(t)
	lm.Append(LogRecord{Type: RecUpdate, TxnID: 1, Incarnation: 1, Op: OpUpsert, Key: []byte("k"), Value: []byte("v")})
	lm.Append(LogRecord{Type: RecCommit, TxnID: 1})
	lm.Close()
	// Crash mid-append: a plausible-looking torn header + partial body.
	path := filepath.Join(dir, "txn.log")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 40, 9, 9, 9, 9, 1, 2, 3})
	f.Close()

	lm2, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer lm2.Close()
	m := NewManager(lm2)
	m.NoSync = true
	if _, err := m.Recover(func(*LogRecord) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := lm2.TornTails(); got != 1 {
		t.Fatalf("TornTails = %d, want 1", got)
	}
	// Post-repair appends must be reachable by a future scan: without the
	// truncation they would sit behind the garbage and be lost.
	tx := m.Begin()
	if err := logOne(tx, "d", OpUpsert, []byte("after"), []byte("w")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	if err := lm2.Scan(0, func(r *LogRecord) bool {
		if r.Type == RecUpdate {
			keys = append(keys, string(r.Key))
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[1] != "after" {
		t.Fatalf("post-repair append unreachable: scanned keys %v", keys)
	}
}

func TestTornWriteFaultWedgesLog(t *testing.T) {
	fault.Disarm()
	defer fault.Disarm()
	lm, _ := newLog(t)
	m := NewManager(lm)
	m.NoSync = true
	t1 := m.Begin()
	if err := logOne(t1, "d", OpUpsert, []byte("pre"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := fault.Arm("txn.wal.append:torn"); err != nil {
		t.Fatal(err)
	}
	t2 := m.Begin()
	err := logOne(t2, "d", OpUpsert, []byte("torn"), []byte("2"))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("want injected torn write, got %v", err)
	}
	fault.Disarm()
	// The log is wedged: even the abort record must not land after the
	// torn fragment.
	if err := t2.Abort(); err == nil {
		t.Fatal("abort should fail on a wedged log")
	}

	// Recovery repairs the tail; the pre-crash commit survives, the torn
	// txn is gone, and the log accepts (reachable) appends again.
	var keys []string
	if _, err := m.Recover(func(rec *LogRecord) error {
		keys = append(keys, string(rec.Key))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "pre" {
		t.Fatalf("recovered keys %v, want [pre]", keys)
	}
	t3 := m.Begin()
	if err := logOne(t3, "d", OpUpsert, []byte("post"), []byte("3")); err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestWALSyncFault(t *testing.T) {
	fault.Disarm()
	defer fault.Disarm()
	lm, _ := newLog(t)
	m := NewManager(lm)
	if err := fault.Arm("txn.wal.sync:error"); err != nil {
		t.Fatal(err)
	}
	tx := m.Begin()
	if err := logOne(tx, "d", OpUpsert, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("commit with failing sync: got %v", err)
	}
}

func TestLockTimeoutTypedAndMetered(t *testing.T) {
	lm := NewLockManager(100 * time.Millisecond)
	r := obs.NewRegistry()
	lm.BindMetrics(r)
	if err := lm.Lock(1, "d", []byte("k")); err != nil {
		t.Fatal(err)
	}
	err := lm.Lock(2, "d", []byte("k"))
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("want ErrLockTimeout, got %v", err)
	}
	snap := r.Snapshot()
	if v := snap["txn_lock_waits_total"].(int64); v != 1 {
		t.Fatalf("txn_lock_waits_total = %d, want 1", v)
	}
	if v := snap["txn_lock_timeouts_total"].(int64); v != 1 {
		t.Fatalf("txn_lock_timeouts_total = %d, want 1", v)
	}
	hs := snap["txn_lock_wait_seconds"].(obs.HistogramSnapshot)
	if hs.Count != 1 {
		t.Fatalf("txn_lock_wait_seconds count = %d, want 1", hs.Count)
	}
	lm.UnlockAll(1)
}
