package txn

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// A statement's update records go out with one write — two past a walChunk
// — and read back as written, incarnation and all.
func TestLogUpdatesIsOneWrite(t *testing.T) {
	lm, _ := newLog(t)
	m := NewManager(lm)
	m.NoSync = true
	for _, c := range []struct{ records, size, writes int }{{1, 10, 1}, {20, 100, 1}, {3, walChunk / 2, 2}} {
		ups := make([]LogRecord, c.records)
		for i := range ups {
			ups[i] = LogRecord{Partition: int32(i), Op: OpUpsert, Key: []byte{byte(i)}, Value: bytes.Repeat([]byte{byte(i)}, c.size)}
		}
		from := lm.Size()
		w0, b0 := lm.Writes()
		tx := m.Begin()
		if err := tx.LogUpdates("d", 42, ups); err != nil {
			t.Fatal(err)
		}
		if w, b := lm.Writes(); w-w0 != int64(c.writes) || b-b0 != lm.Size()-from {
			t.Errorf("%d records of %d bytes: %d writes of %d bytes, want %d of %d", c.records, c.size, w-w0, b-b0, c.writes, lm.Size()-from)
		}
		var got []*LogRecord
		if err := lm.Scan(from, func(r *LogRecord) bool { got = append(got, r); return true }); err != nil {
			t.Fatal(err)
		}
		if len(got) != c.records {
			t.Fatalf("scanned %d records, logged %d", len(got), c.records)
		}
		for i, r := range got {
			if r.Type != RecUpdate || r.TxnID != tx.ID || r.Incarnation != 42 || r.Partition != int32(i) ||
				r.LSN != ups[i].LSN || !bytes.Equal(r.Key, ups[i].Key) || !bytes.Equal(r.Value, ups[i].Value) {
				t.Fatalf("record %d reads back as %+v", i, r)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// A torn last record, cut at any byte, is where recovery stops: what came
// before it is redone, one torn tail is counted, and the next append lands
// at the repaired end.
func TestRepairTailAtEveryOffset(t *testing.T) {
	lm, dir := newLog(t)
	m := NewManager(lm)
	m.NoSync = true
	for _, key := range []string{"a", "b"} {
		tx := m.Begin()
		if err := logOne(tx, "d", OpUpsert, []byte(key), []byte("value of "+key)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var last int64 // the LSN of the last record, b's commit
	if err := lm.Scan(0, func(r *LogRecord) bool { last = r.LSN; return true }); err != nil {
		t.Fatal(err)
	}
	end := lm.Size()
	lm.Close()
	whole, err := os.ReadFile(filepath.Join(dir, "txn.log"))
	if err != nil {
		t.Fatal(err)
	}
	for cut := last + 1; cut < end; cut++ {
		if err := os.WriteFile(filepath.Join(dir, "txn.log"), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lm, err := OpenLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := NewManager(lm)
		m.NoSync = true
		var redone []string
		if _, err := m.Recover(func(r *LogRecord) error { redone = append(redone, string(r.Key)); return nil }); err != nil {
			t.Fatal(err)
		}
		if strings.Join(redone, " ") != "a" || lm.TornTails() != 1 {
			t.Fatalf("cut at %d: redone %v, %d torn tails; want [a], 1", cut, redone, lm.TornTails())
		}
		tx := m.Begin()
		if err := logOne(tx, "d", OpUpsert, []byte("c"), nil); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		var at int64 = -1
		if err := lm.Scan(0, func(r *LogRecord) bool {
			if string(r.Key) == "c" {
				at = r.LSN
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if at != last {
			t.Fatalf("cut at %d: the next append is at %d, want %d", cut, at, last)
		}
		lm.Close()
	}
}

// Recovery resumes transaction ids past every id the log holds — of
// committed, aborted and unfinished transactions alike.
func TestRecoverResumesPastEveryID(t *testing.T) {
	for _, end := range []string{"commit", "abort", "none"} {
		lm, _ := newLog(t)
		m := NewManager(lm)
		m.NoSync = true
		for i := 0; i < 3; i++ {
			tx := m.Begin()
			if err := logOne(tx, "d", OpUpsert, []byte("k"), nil); err != nil {
				t.Fatal(err)
			}
			switch {
			case i < 2 || end == "commit":
				err := tx.Commit()
				if err != nil {
					t.Fatal(err)
				}
			case end == "abort":
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
			}
		}
		m2 := NewManager(lm)
		if _, err := m2.Recover(func(*LogRecord) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if id := m2.Begin().ID; id != 4 {
			t.Errorf("third transaction ends with %s: the next id is %d, want 4", end, id)
		}
	}
}

// readSyscalls is the process's read system calls so far, from
// /proc/self/io; -1 where the kernel does not say.
func readSyscalls() int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "syscr: "); ok {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	return -1
}

// BenchmarkRecover times recovery over a log of 100 000 committed update
// records, 5 000 statements of 20 with 100-byte values: ns and read system
// calls (Linux only) per record redone.
func BenchmarkRecover(b *testing.B) {
	const statements, per = 5000, 20
	lm, dir := newLog(b)
	m := NewManager(lm)
	m.NoSync = true
	value := bytes.Repeat([]byte{'v'}, 100)
	for s := 0; s < statements; s++ {
		ups := make([]LogRecord, per)
		for i := range ups {
			ups[i] = LogRecord{Op: OpUpsert, Key: binary.BigEndian.AppendUint64(nil, uint64(s*per+i)), Value: value}
		}
		tx := m.Begin()
		if err := tx.LogUpdates("d", 1, ups); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	lm.Close()
	var elapsed time.Duration
	var reads, records int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lm, err := OpenLog(dir)
		if err != nil {
			b.Fatal(err)
		}
		r0, t0 := readSyscalls(), time.Now()
		n, err := NewManager(lm).Recover(func(*LogRecord) error { return nil })
		elapsed += time.Since(t0)
		reads += readSyscalls() - r0
		records += int64(n)
		if err != nil || n != statements*per {
			b.Fatalf("redone %d records: %v", n, err)
		}
		lm.Close()
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(records), "ns/record")
	if readSyscalls() >= 0 {
		b.ReportMetric(float64(reads)/float64(records), "reads/record")
	}
}
