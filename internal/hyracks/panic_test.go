package hyracks

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"asterix/internal/adm"
	"asterix/internal/storage"
)

// TestTaskPanicIsJobFailure: an operator that panics on its 3rd tuple
// fails its job with a *TaskPanic naming the operator, the partition and
// the stack, and the process keeps serving. On the way out the operators'
// defers give back what they held: the working-memory grant, the page the
// panicking operator pinned, and the sort's run files. The cluster counts
// the failure, and the next job on it succeeds.
func TestTaskPanicIsJobFailure(t *testing.T) {
	const rows = 40000
	c := newSpillCluster(t, 1, 4<<10) // the sort spills; no run file may outlive the job
	fm, err := storage.NewFileManager(t.TempDir(), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer fm.Close()
	bc := storage.NewBufferCache(fm, 4)
	file, err := fm.Open("pinned")
	if err != nil {
		t.Fatal(err)
	}

	j := NewJob()
	input := j.Add(NewScan("input", 1, func(tc *TaskContext, emit func(Tuple) error) error {
		for i := 0; i < rows; i++ {
			if err := emit(Tuple{adm.Int64(rows - i), adm.String("padding-padding-padding")}); err != nil {
				return err
			}
		}
		return nil
	}))
	sorted := j.Add(NewSort("sort", 1, Comparator{Columns: []int{0}}))
	seen := 0
	boom := j.Add(NewMap("boom", 1, func(tc *TaskContext, tp Tuple, emit func(Tuple) error) error {
		p, err := bc.NewPage(file)
		if err != nil {
			return err
		}
		defer bc.Unpin(p, false)
		if seen++; seen == 3 {
			panic("boom on the third tuple")
		}
		return emit(tp)
	}))
	sink := j.Add(NewFuncSink("sink", 1, func(int, Tuple) error { return nil }))
	j.MustConnect(input, sorted, 0, OneToOne())
	j.MustConnect(sorted, boom, 0, OneToOne())
	j.MustConnect(boom, sink, 0, OneToOne())

	err = c.Run(context.Background(), j)
	var tp *TaskPanic
	if !errors.As(err, &tp) {
		t.Fatalf("job error = %v, want a *TaskPanic", err)
	}
	if tp.Op != "boom" || tp.Partition != 0 || tp.Value != "boom on the third tuple" ||
		!strings.Contains(string(tp.Stack), "TestTaskPanicIsJobFailure") {
		t.Errorf("panic carries op %q, partition %d, value %v and this stack:\n%s", tp.Op, tp.Partition, tp.Value, tp.Stack)
	}
	if c.TotalStats().Spills == 0 {
		t.Fatal("the sort never spilled; the run-file check proves nothing")
	}
	if got := c.Gov.WorkingGranted(); got != 0 {
		t.Errorf("after the panic the governor still grants %d bytes", got)
	}
	if n := bc.Pinned(); n != 0 {
		t.Errorf("after the panic %d pages stay pinned", n)
	}
	if st := c.JobStats(); st.TaskPanics != 1 {
		t.Errorf("task panics counted: %d, want 1", st.TaskPanics)
	}

	j = NewJob()
	coll := &Collector{}
	scan := j.Add(NewScan("scan", 1, rangeScan(100)))
	j.MustConnect(scan, j.Add(NewSink("sink", 1, coll)), 0, OneToOne())
	if err := c.Run(context.Background(), j); err != nil || len(coll.Tuples()) != 100 {
		t.Fatalf("the job after the panic: %d tuples, err %v", len(coll.Tuples()), err)
	}
}

// A running job holds one goroutine per task: no watcher per node or task
// and no closer per edge. Seven tasks on three nodes, parked in their scan,
// stay within tasks + a slack of two (the goroutine calling Run, and one
// spare).
func TestBlockedJobGoroutines(t *testing.T) {
	const tasks, nodes, slack = 7, 3, 2
	c := newCluster(t, nodes)
	base := runtime.NumGoroutine()
	release := make(chan struct{})
	started := make(chan struct{}, 3)
	j := NewJob()
	scan := j.Add(NewScan("scan", 3, func(tc *TaskContext, emit func(Tuple) error) error {
		started <- struct{}{}
		select {
		case <-release:
		case <-tc.Ctx.Done():
			return tc.Ctx.Err()
		}
		return emit(Tuple{adm.Int64(tc.Partition)})
	}))
	pass := j.Add(NewMap("pass", 3, func(tc *TaskContext, tp Tuple, emit func(Tuple) error) error { return emit(tp) }))
	coll := &Collector{}
	sink := j.Add(NewSink("sink", 1, coll))
	j.MustConnect(scan, pass, 0, HashPartition(0))
	j.MustConnect(pass, sink, 0, MergeUnordered())

	done := make(chan error, 1)
	go func() { done <- c.Run(context.Background(), j) }()
	for i := 0; i < 3; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("the scans never started")
		}
	}
	// Run starts the later tasks' goroutines after the scans': give them a
	// moment to start and park on their inputs.
	time.Sleep(20 * time.Millisecond)
	if n := runtime.NumGoroutine() - base; n > tasks+slack {
		buf := make([]byte, 1<<16)
		t.Errorf("a blocked %d-task job on %d nodes holds %d goroutines, want at most %d\n%s",
			tasks, nodes, n, tasks+slack, buf[:runtime.Stack(buf, true)])
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(coll.Tuples()) != 3 {
		t.Fatalf("sink got %d tuples, want 3", len(coll.Tuples()))
	}
	waitForGoroutines(t, base)
}
