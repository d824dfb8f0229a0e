package hyracks

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"asterix/internal/adm"
	"asterix/internal/fault"
	"asterix/internal/mem"
)

// waitForGoroutines polls until the goroutine count drops back to (or
// below) base plus a small slack, failing the test if it never does —
// the leak guard for job teardown.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d now vs %d at baseline\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTaskFaultPoint arms hyracks.task.fail once on a join's tasks in each
// mode: the job fails with the injected error or a *TaskPanic, counts a
// panic only as a panic, gives back its working memory and goroutines, and
// the same job then runs to its full answer on the same cluster.
func TestTaskFaultPoint(t *testing.T) {
	for _, mode := range []string{"error", "panic"} {
		t.Run(mode, func(t *testing.T) {
			fault.Disarm()
			defer fault.Disarm()
			c := newCluster(t, 4)
			c.Gov = mem.NewGovernor(mem.Config{WorkingBytes: 8 << 20})
			base := runtime.NumGoroutine()
			build := func(coll *Collector) *Job {
				j := NewJob()
				left := j.Add(NewScan("left", 4, rangeScan(8000)))
				right := j.Add(NewScan("right", 4, rangeScan(4000)))
				join := j.Add(NewHashJoin("join", 4, []int{0}, []int{0}, InnerJoin, 2, nil))
				sink := j.Add(NewSink("sink", 4, coll))
				j.MustConnect(left, join, 0, HashPartition(0))
				j.MustConnect(right, join, 1, HashPartition(0))
				j.MustConnect(join, sink, 0, OneToOne())
				return j
			}
			// The sixth of the job's sixteen tasks to start fails.
			if err := fault.Arm(fault.PointTaskFail + ":" + mode + ":after=5:times=1"); err != nil {
				t.Fatal(err)
			}
			err := c.Run(context.Background(), build(&Collector{}))
			var tp *TaskPanic
			switch {
			case mode == "error" && (!errors.Is(err, fault.ErrInjected) || errors.As(err, &tp)):
				t.Fatalf("Run = %v, want the injected error", err)
			case mode == "panic" && !errors.As(err, &tp):
				t.Fatalf("Run = %v, want a *TaskPanic", err)
			}
			wantPanics := int64(0)
			if mode == "panic" {
				wantPanics = 1
			}
			if st := c.JobStats(); st.Attempts != 1 || st.TaskPanics != wantPanics {
				t.Errorf("job stats %+v, want 1 attempt and %d task panics", st, wantPanics)
			}
			if got := c.Gov.WorkingGranted(); got != 0 {
				t.Errorf("after the failed run the governor still grants %d bytes", got)
			}
			waitForGoroutines(t, base)

			coll := &Collector{}
			if err := c.Run(context.Background(), build(coll)); err != nil {
				t.Fatalf("the resent job: %v", err)
			}
			if got := len(coll.Tuples()); got != 4000 {
				t.Fatalf("the resent join produced %d tuples, want 4000", got)
			}
			waitForGoroutines(t, base)
		})
	}
}

// TestFailedProducerLeavesEdgesOpen: a producer that fails does not close
// its edges, even as the edge's last producer. Its consumer then ends on
// the run's cancellation, never on a clean end of input, so no operator
// can finish a result from a failed producer's prefix. The consumer starts
// reading a moment after the run is cancelled, so a close (if there were
// one) and the cancellation would both be ready when it selects.
func TestFailedProducerLeavesEdgesOpen(t *testing.T) {
	errScan := errors.New("scan failed")
	c := newCluster(t, 1)
	for i := 0; i < 20; i++ {
		var sawEnd atomic.Bool
		j := NewJob()
		scan := j.Add(NewScan("scan", 1, func(*TaskContext, func(Tuple) error) error { return errScan }))
		consumer := j.Add(&Operator{Name: "consumer", Parallelism: 1, New: func(int) Runner {
			return RunnerFunc(func(tc *TaskContext, in []*Input, _ []*Output) error {
				<-tc.Ctx.Done()
				time.Sleep(time.Millisecond)
				err := in[0].ForEach(func(Tuple) error { return nil })
				sawEnd.Store(err == nil)
				return err
			})
		}})
		j.MustConnect(scan, consumer, 0, OneToOne())
		if err := c.Run(context.Background(), j); !errors.Is(err, errScan) {
			t.Fatalf("Run = %v, want the scan's failure", err)
		}
		if sawEnd.Load() {
			t.Fatal("the consumer of a failed producer saw a clean end of input")
		}
	}
}

// TestCancelMidQueryNoGoroutineLeak covers the satellite requirement:
// cancelling a running job must return promptly and leak nothing, across
// both the ordered-merge path (unboundedBuffer feeding newMergingInput)
// and the hash-exchange path (connWriter frame buffering).
func TestCancelMidQueryNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	c := newCluster(t, 3)

	// Endless sorted producers into an ordered merge plus a hash exchange:
	// every shutdown path in exec.go is on the hook.
	build := func() *Job {
		j := NewJob()
		scan := j.Add(NewScan("scan", 3, func(tc *TaskContext, emit func(Tuple) error) error {
			for i := 0; ; i++ {
				if err := emit(Tuple{adm.Int64(i), adm.Int64(tc.Partition)}); err != nil {
					return err
				}
			}
		}))
		hashed := j.Add(NewMap("hashed", 3, func(tc *TaskContext, tp Tuple, emit func(Tuple) error) error {
			return emit(tp)
		}))
		coll := &Collector{}
		sink := j.Add(NewOrderedSink("sink", coll))
		j.MustConnect(scan, hashed, 0, HashPartition(0))
		j.MustConnect(hashed, sink, 0, MergeOrdered(Comparator{Columns: []int{0}}))
		return j
	}

	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- c.Run(ctx, build()) }()
		time.Sleep(20 * time.Millisecond) // let the pipeline fill
		cancel()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("cancelled run returned nil")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run returned %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled run did not return promptly")
		}
	}
	waitForGoroutines(t, base)
}
