package core

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"asterix/internal/fault"
	"asterix/internal/hyracks"
)

// TestTaskFaultPointMidJoin arms hyracks.task.fail once on a spilling
// join and group-by over 4 partitions, in each mode. The query fails fast
// with the typed error, and gives back its working memory, its run files
// and its goroutines. The same query resent unarmed returns the healthy
// rows exactly.
func TestTaskFaultPointMidJoin(t *testing.T) {
	const query = `
		SELECT u.id AS id, COUNT(m) AS cnt
		FROM GleambookUsers u JOIN GleambookMessages m ON m.authorId = u.id
		GROUP BY u.id AS id;`
	for _, mode := range []string{"error", "panic"} {
		t.Run(mode, func(t *testing.T) {
			fault.Disarm()
			defer fault.Disarm()
			dir := t.TempDir()
			e := newEngine(t, Config{DataDir: dir, Partitions: 4, WorkingMemory: 64 << 10})
			mustExec(t, e, gleambookDDL)
			seedUsers(t, e, 2000)
			var sb strings.Builder
			for i := 0; i < 4000; i++ {
				fmt.Fprintf(&sb, `UPSERT INTO GleambookMessages ({"messageId": %d, "authorId": %d, "message": "%s"});`,
					i, i%2000, strings.Repeat("m", 100))
			}
			mustExec(t, e, sb.String())

			spills := e.Cluster().TotalStats().Spills
			healthy := sortedRows(t, e, query)
			if len(healthy) != 2000 {
				t.Fatalf("healthy run returned %d groups, want 2000", len(healthy))
			}
			if e.Cluster().TotalStats().Spills == spills {
				t.Fatal("the healthy run never spilled; the run-file check proves nothing")
			}
			base := runtime.NumGoroutine()

			// The third task of the job to start fails.
			if err := fault.Arm(fault.PointTaskFail + ":" + mode + ":after=2:times=1"); err != nil {
				t.Fatal(err)
			}
			_, err := e.Query(context.Background(), query)
			var tp *hyracks.TaskPanic
			switch {
			case mode == "error" && (!errors.Is(err, fault.ErrInjected) || errors.As(err, &tp)):
				t.Fatalf("query = %v, want the injected error", err)
			case mode == "panic" && !errors.As(err, &tp):
				t.Fatalf("query = %v, want a *hyracks.TaskPanic", err)
			}
			if got := e.MemGovernor().WorkingGranted(); got != 0 {
				t.Errorf("after the failed query the governor still grants %d bytes", got)
			}
			var left []string
			if err := filepath.WalkDir(filepath.Join(dir, "tmp"), func(path string, d fs.DirEntry, err error) error {
				if err == nil && !d.IsDir() {
					left = append(left, path)
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if len(left) > 0 {
				t.Errorf("the failed query left run files: %v", left)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base+2; {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d now vs %d before the query", runtime.NumGoroutine(), base)
				}
				time.Sleep(10 * time.Millisecond)
			}

			fault.Disarm()
			if got := sortedRows(t, e, query); !slices.Equal(got, healthy) {
				t.Fatalf("the resent query returned %d rows, want the %d healthy ones", len(got), len(healthy))
			}
		})
	}
}
