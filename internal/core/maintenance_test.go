package core

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asterix/internal/adm"
	"asterix/internal/check"
	"asterix/internal/fault"
	"asterix/internal/lsm"
)

// Tests of flush and merge on the engine's maintenance worker: that the
// worker's timing never shows in what reaches the disk, what a crash in
// the middle of its work leaves behind, and the write path under load.

// ingestDDL is the shape of the benchmark's ingest workload: a primary
// index and a B-tree, an R-tree and a keyword secondary index.
const ingestDDL = gleambookDDL + `
CREATE INDEX msgAuthorIdx ON GleambookMessages(authorId);
CREATE INDEX msgLocIdx ON GleambookMessages(senderLocation) TYPE RTREE;
CREATE INDEX msgTextIdx ON GleambookMessages(message) TYPE KEYWORD;`

var ingestWords = strings.Fields("the quick brown fox jumps over a lazy dog while seven wizards box with vexed daft zebras near some quiet river bank")

// ingestMessage is version ver of message id: about 140 bytes, half of
// the messages with a location, every field but the key a function of
// the version.
func ingestMessage(id, ver int) *adm.Object {
	r := rand.New(rand.NewSource(int64(id)*7919 + int64(ver)))
	words := make([]string, 12+r.Intn(8))
	for i := range words {
		words[i] = ingestWords[r.Intn(len(ingestWords))]
	}
	// Fields in declared order: a record read back whole lists them so.
	o := adm.NewObject(
		adm.Field{Name: "messageId", Value: adm.Int64(int64(id))},
		adm.Field{Name: "authorId", Value: adm.Int64(int64(r.Intn(2000)))},
	)
	if id%2 == 0 {
		o.Set("senderLocation", adm.Point{X: r.Float64()*360 - 180, Y: r.Float64()*180 - 90})
	}
	o.Set("message", adm.String(fmt.Sprintf("v%d %s", ver, strings.Join(words, " "))))
	return o
}

// ingestHistory writes n statements' worth of one writer's history: new
// keys in order, and a fifth of the writes overwrite a recent key. after
// runs after every write.
func ingestHistory(t *testing.T, e *Engine, seed int64, n int, after func()) (versions []int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		id := len(versions)
		if id > 0 && r.Intn(5) == 0 {
			id -= 1 + int(r.ExpFloat64()*1000)%id
			versions[id]++
		} else {
			versions = append(versions, 0)
		}
		if err := e.UpsertValue("GleambookMessages", ingestMessage(id, versions[id])); err != nil {
			t.Fatal(err)
		}
		if after != nil {
			after()
		}
	}
	return versions
}

// storageLayout lists every file under the engine's storage directory
// with its size, manifests with their content.
func storageLayout(t *testing.T, dataDir string) string {
	t.Helper()
	var sb strings.Builder
	root := filepath.Join(dataDir, "storage")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(&sb, "%s %d", rel, info.Size())
		if strings.HasSuffix(rel, ".manifest") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(&sb, " [%s]", strings.Join(strings.Fields(string(data)), " "))
		}
		sb.WriteByte('\n')
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestMaintenanceTimingNeverReachesTheDisk writes the same single-writer
// history (the benchmark's ingest set-up: three secondary index kinds,
// 1 MiB components, a fifth of the writes overwrites) four times and
// checkpoints: three times with the worker delayed at random in every
// flush and merge, once waiting for the worker after every write, so that
// each sealed component is on disk before the next write. All four must
// leave the same manifests, the same component files of the same sizes,
// and the same flush and merge counts: where components are sealed, which
// the governor's arbitration picks, and what the merge policy sees are
// all decided by the writes, not by how far the worker has got.
//
// PR 22 once saw the benchmark's ingest set-up store 11 624 482 bytes in
// one run and 11 632 674 (a page more) in another. That is not
// reproducible at the parent of this change: six runs of the set-up at
// one seed stored 11 567 138 bytes six times. PR 23's name-sorted d.idxs
// (the order in which a write dirties the indexes, and so the order the
// arbitration flushes them in, used to come from a map) removed it; this
// test would catch its return.
func TestMaintenanceTimingNeverReachesTheDisk(t *testing.T) {
	fault.Disarm()
	defer fault.Disarm()
	const writes = 20000 // the benchmark's preload
	run := func(name string, arm string, drained bool) (layout string, flushes, merges int64) {
		fault.Disarm()
		if arm != "" {
			if err := fault.Arm(arm); err != nil {
				t.Fatal(err)
			}
		}
		e := newEngine(t, Config{Partitions: 2, Nodes: 2, MemComponentBudget: 1 << 20, NoSyncCommits: true})
		mustExec(t, e, ingestDDL)
		var after func()
		if drained {
			after = e.maint.Drain
		}
		ingestHistory(t, e, 26, writes, after)
		if err := e.Checkpoint(); err != nil {
			t.Fatalf("%s: checkpoint: %v", name, err)
		}
		snap := e.Metrics().Snapshot()
		return storageLayout(t, e.cfg.DataDir), snap["lsm_flushes_total"].(int64), snap["lsm_merges_total"].(int64)
	}
	want, flushes, merges := run("drained", "", true)
	if flushes < 20 || merges < 2 {
		t.Fatalf("the history caused %d flushes and %d merges: too few to show anything", flushes, merges)
	}
	for i := 0; i < 3; i++ {
		fault.Seed(int64(100 + i))
		spec := fault.PointLSMFlush + ":delay=3ms:times=0:p=0.5," + fault.PointLSMMerge + ":delay=10ms:times=0:p=0.5"
		got, f, m := run(fmt.Sprintf("delayed %d", i), spec, false)
		if f != flushes || m != merges {
			t.Errorf("delayed run %d: %d flushes and %d merges, the drained run %d and %d", i, f, m, flushes, merges)
		}
		if got != want {
			t.Errorf("delayed run %d left a different storage directory:\n%s\nthe drained run:\n%s", i, got, want)
		}
	}
}

// componentFiles counts the LSM component files under the storage
// directory and the components its manifests name.
func componentFiles(t *testing.T, dataDir string) (files, listed int) {
	t.Helper()
	for _, line := range strings.Split(storageLayout(t, dataDir), "\n") {
		switch {
		case line == "":
		case strings.Contains(line, ".manifest "):
			if i := strings.Index(line, "["); i >= 0 {
				listed += len(strings.Fields(strings.Trim(line[i:], "[]")))
			}
		default:
			files++
		}
	}
	return files, listed
}

// TestCrashDuringBackgroundMaintenance adds the rows of the crash matrix
// that only exist with a worker: CrashStop while a sealed component's
// flush is between build and publish, and in the middle of a merge. The
// worker abandons the job, so its half-built file stays behind as an
// orphan no manifest names. Recovery must bring back the last
// acknowledged version of every key from the log, COUNT(*) must match,
// every index must agree with the primary, and the first checkpoint
// after reopen must leave no file that is not a listed component.
func TestCrashDuringBackgroundMaintenance(t *testing.T) {
	for _, point := range []string{fault.PointLSMFlush, fault.PointLSMMerge} {
		t.Run(point, func(t *testing.T) {
			t.Setenv("ASTERIX_INVARIANTS", "1")
			fault.Disarm()
			defer fault.Disarm()
			fixed, _ := time.Parse(time.RFC3339, "2019-04-01T00:00:00Z")
			e, err := Open(Config{
				DataDir:            t.TempDir(),
				MemComponentBudget: 4 << 10, // a seal every few dozen records
				MergePolicy:        lsm.ConstantPolicy{Components: 2},
				Now:                func() time.Time { return fixed },
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Execute(context.Background(), crashDDL); err != nil {
				t.Fatal(err)
			}
			// Let some maintenance complete first, so that the crash finds
			// flushed components, a sealed one and (for the merge) victims.
			const before = 600
			id := 0
			for ; id < before; id++ {
				if err := e.UpsertValue("KV", crashRec(id)); err != nil {
					t.Fatal(err)
				}
			}
			e.maint.Drain()
			// The job that reaches the point sleeps there; the crash comes
			// while it does.
			if err := fault.Arm(point + ":delay=100ms:times=1"); err != nil {
				t.Fatal(err)
			}
			for ; fault.Fired(point) == 0; id++ {
				if id > before+5000 {
					t.Fatalf("%s not reached", point)
				}
				// Overwrites too: the last version must be the one recovered.
				if err := e.UpsertValue("KV", crashRec(id)); err != nil {
					t.Fatal(err)
				}
				if err := e.UpsertValue("KV", crashRec(id%before)); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.CrashStop(); err != nil {
				t.Fatal(err)
			}
			fault.Disarm()
			if files, listed := componentFiles(t, e.cfg.DataDir); files <= listed {
				t.Fatalf("%d component files for %d listed components: the abandoned job left no orphan, so the crash came too late", files, listed)
			}
			// A component built and not yet flushed has its pages allocated
			// and none written: allocation writes nothing, so the orphan is an
			// empty file, which the reopened engine must clean up like any other.
			if point == fault.PointLSMFlush && !strings.Contains(storageLayout(t, e.cfg.DataDir), " 0\n") {
				t.Fatalf("no empty component file after a crash between build and flush:\n%s", storageLayout(t, e.cfg.DataDir))
			}

			e2, err := e.Reopen()
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer e2.Close()
			rows := queryRows(t, e2, `SELECT VALUE v.id FROM KV v;`)
			if len(rows) != id {
				t.Fatalf("scan found %d rows after recovery, want %d", len(rows), id)
			}
			if n := queryRows(t, e2, `SELECT VALUE COUNT(*) FROM KV v;`); n[0].String() != fmt.Sprint(id) {
				t.Fatalf("COUNT(*) = %s after recovery, want %d", n[0], id)
			}
			for k := 0; k < id; k++ {
				o, ok, err := e2.GetKey("KV", adm.Int64(int64(k)))
				if err != nil || !ok || o.Get("val").String() != fmt.Sprintf("%q", fmt.Sprintf("v%04d", k)) {
					t.Fatalf("key %d after recovery: %v found=%v err=%v", k, o, ok, err)
				}
			}
			checkCrashIndexes(t, e2, rows)
			if err := e2.Checkpoint(); err != nil {
				t.Fatalf("checkpoint over the orphan: %v", err)
			}
			if files, listed := componentFiles(t, e2.cfg.DataDir); files != listed {
				t.Fatalf("%d component files for %d listed components after the checkpoint", files, listed)
			}
			d, _ := e2.Dataset("KV")
			if err := d.Validate(); err != nil {
				t.Fatalf("post-recovery validation: %v", err)
			}
			check.MustValidate(t, e2.MemGovernor())
		})
	}
}

// TestWritePathStress runs two writers and two readers for two seconds
// over a dataset with a primary and three kinds of secondary index whose
// small components keep the worker flushing and merging throughout. Each
// writer owns half of the keys and records, per key, the version it has
// been acknowledged; a reader must find, through the primary index and
// through each secondary, a version no older than the one acknowledged
// before it looked. At the end everything is compared with the oracle.
// `make verify` runs it under the race detector.
func TestWritePathStress(t *testing.T) {
	length := 2 * time.Second
	if testing.Short() {
		length = 300 * time.Millisecond
	}
	e := newEngine(t, Config{Partitions: 2, Nodes: 2, MemComponentBudget: 32 << 10, MergePolicy: lsm.ConstantPolicy{Components: 3}, NoSyncCommits: true})
	mustExec(t, e, ingestDDL)
	const keys = 600
	acked := make([]atomic.Int64, keys) // version+1 of the last acknowledged write; 0 = none
	version := func(o *adm.Object) int64 {
		var v int64
		fmt.Sscanf(string(o.Get("message").(adm.String)), "v%d", &v)
		return v + 1
	}
	deadline := time.Now().Add(length)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for time.Now().Before(deadline) && !t.Failed() {
				id := r.Intn(keys/2)*2 + w
				ver := acked[id].Load()
				if err := e.UpsertValue("GleambookMessages", ingestMessage(id, int(ver))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				acked[id].Store(ver + 1)
			}
		}(w)
	}
	for rd := 0; rd < 2; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + rd)))
			for time.Now().Before(deadline) && !t.Failed() {
				id := r.Intn(keys)
				was := acked[id].Load()
				o, ok, err := e.GetKey("GleambookMessages", adm.Int64(int64(id)))
				if err != nil || ok != (was > 0 || ok) || ok && version(o) < was {
					t.Errorf("reader: key %d acknowledged at %d, got %v found=%v err=%v", id, was, o, ok, err)
					return
				}
				// The same through a scan (every key once) or the B-tree
				// secondary, in turn.
				q := `SELECT VALUE m FROM GleambookMessages m;`
				if r.Intn(2) == 0 {
					q = fmt.Sprintf(`SELECT VALUE m FROM GleambookMessages m WHERE m.authorId = %d;`, r.Intn(2000))
				}
				before := make([]int64, keys)
				for k := range before {
					before[k] = acked[k].Load()
				}
				res, err := e.Query(context.Background(), q)
				if err != nil {
					t.Errorf("reader: %s: %v", q, err)
					return
				}
				seen := map[int64]bool{}
				for _, row := range res.Rows {
					m := row.(*adm.Object)
					k := int64(m.Get("messageId").(adm.Int64))
					if seen[k] {
						t.Errorf("reader: %s returned key %d twice", q, k)
					}
					seen[k] = true
				}
				if strings.Contains(q, "WHERE") {
					continue
				}
				for k, was := range before {
					if was > 0 && !seen[int64(k)] {
						t.Errorf("reader: scan misses key %d, acknowledged at version %d", k, was)
						return
					}
				}
			}
		}(rd)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The oracle: every acknowledged key at its last version, through the
	// primary and through each secondary index.
	var want []string
	for k := range acked {
		if v := acked[k].Load(); v > 0 {
			want = append(want, ingestMessage(k, int(v-1)).String())
		}
	}
	sort.Strings(want)
	for _, q := range []string{
		`SELECT VALUE m FROM GleambookMessages m;`,
		`SELECT VALUE m FROM GleambookMessages m WHERE m.authorId >= 0;`,
		`SELECT VALUE m FROM GleambookMessages m WHERE m.messageId % 2 = 1
		 UNION ALL SELECT VALUE m FROM GleambookMessages m
		 WHERE spatial_intersect(m.senderLocation, create_rectangle(-181.0, -91.0, 181.0, 91.0));`,
		`SELECT VALUE m FROM GleambookMessages m WHERE ftcontains(m.message, "v0")
		 UNION ALL SELECT VALUE m FROM GleambookMessages m WHERE NOT ftcontains(m.message, "v0");`,
	} {
		var got []string
		for _, row := range queryRows(t, e, q) {
			got = append(got, row.String())
		}
		sort.Strings(got)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s\nreturned %d rows that differ from the oracle's %d", q, len(got), len(want))
		}
	}
	snap := e.Metrics().Snapshot()
	if f, m := snap["lsm_flushes_total"].(int64), snap["lsm_merges_total"].(int64); f < 10 || m == 0 {
		t.Errorf("%d flushes and %d merges in the background: the stress did not stress", f, m)
	}
	d, _ := e.Dataset("GleambookMessages")
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	t.Setenv("ASTERIX_INVARIANTS", "1")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	check.MustValidate(t, e.MemGovernor())
}
