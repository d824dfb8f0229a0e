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

func TestKillNodeMidJoinRetriesOnSurvivors(t *testing.T) {
	c := newCluster(t, 4)
	base := runtime.NumGoroutine()

	var seen int32
	var coll *Collector
	build := func() (*Job, error) {
		j := NewJob()
		left := j.Add(NewScan("left", 4, rangeScan(8000)))
		right := j.Add(NewScan("right", 4, rangeScan(4000)))
		// killer passes tuples through and takes node nc3 down partway
		// through the first attempt (the counter fires exactly once).
		killer := j.Add(NewMap("killer", 4, func(tc *TaskContext, tp Tuple, emit func(Tuple) error) error {
			if atomic.AddInt32(&seen, 1) == 2000 {
				c.Nodes[3].Kill()
			}
			return emit(tp)
		}))
		join := j.Add(NewHashJoin("join", 4, []int{0}, []int{0}, InnerJoin, 2, nil))
		coll = &Collector{}
		sink := j.Add(NewSink("sink", 4, coll))
		j.MustConnect(left, killer, 0, OneToOne())
		j.MustConnect(killer, join, 0, HashPartition(0))
		j.MustConnect(right, join, 1, HashPartition(0))
		j.MustConnect(join, sink, 0, OneToOne())
		return j, nil
	}

	// First, show the bare Run fails fast with a typed node failure.
	j, _ := build()
	err := c.Run(context.Background(), j)
	var nf *NodeFailure
	if !errors.As(err, &nf) {
		t.Fatalf("want *NodeFailure, got %v", err)
	}
	if nf.Node != "nc3" {
		t.Fatalf("failure attributed to %s, want nc3", nf.Node)
	}
	waitForGoroutines(t, base)

	// Then the retry path completes the job on the three survivors.
	rep, err := c.RunWithRetry(context.Background(), build)
	if err != nil {
		t.Fatalf("RunWithRetry on survivors: %v", err)
	}
	if rep.Attempts != 1 {
		// nc3 is already dead at this point, so the rebuilt job runs
		// entirely on survivors and succeeds first try.
		t.Fatalf("attempts = %d, want 1", rep.Attempts)
	}
	if got := len(coll.Tuples()); got != 4000 {
		t.Fatalf("join produced %d tuples on survivors, want 4000", got)
	}
	waitForGoroutines(t, base)

	st := c.RetryStats()
	if st.NodeFailures < 1 {
		t.Fatalf("node failure not counted: %+v", st)
	}
}

func TestRunWithRetryRecoversMidRunKill(t *testing.T) {
	c := newCluster(t, 4)
	base := runtime.NumGoroutine()

	var seen int32
	var coll *Collector
	build := func() (*Job, error) {
		j := NewJob()
		left := j.Add(NewScan("left", 4, rangeScan(6000)))
		killer := j.Add(NewMap("killer", 4, func(tc *TaskContext, tp Tuple, emit func(Tuple) error) error {
			if atomic.AddInt32(&seen, 1) == 1500 {
				c.Nodes[1].Kill()
			}
			return emit(tp)
		}))
		join := j.Add(NewHashJoin("join", 4, []int{0}, []int{0}, InnerJoin, 2, nil))
		right := j.Add(NewScan("right", 4, rangeScan(3000)))
		coll = &Collector{}
		sink := j.Add(NewSink("sink", 4, coll))
		j.MustConnect(left, killer, 0, OneToOne())
		j.MustConnect(killer, join, 0, HashPartition(0))
		j.MustConnect(right, join, 1, HashPartition(0))
		j.MustConnect(join, sink, 0, OneToOne())
		return j, nil
	}

	rep, err := c.RunWithRetry(context.Background(), build)
	if err != nil {
		t.Fatalf("RunWithRetry: %v (report %+v)", err, rep)
	}
	if rep.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one failure, one success)", rep.Attempts)
	}
	if len(rep.DeadNodes) != 1 || rep.DeadNodes[0] != "nc1" {
		t.Fatalf("dead nodes %v, want [nc1]", rep.DeadNodes)
	}
	if got := len(coll.Tuples()); got != 3000 {
		t.Fatalf("join produced %d tuples, want 3000", got)
	}
	waitForGoroutines(t, base)
	if st := c.RetryStats(); st.Retries != 1 || st.NodeFailures != 1 || st.Attempts != 2 {
		t.Fatalf("retry stats %+v", st)
	}
}

func TestRunFailsWithNoAliveNodes(t *testing.T) {
	c := newCluster(t, 2)
	for _, n := range c.Nodes {
		n.Kill()
	}
	j := NewJob()
	coll := &Collector{}
	scan := j.Add(NewScan("scan", 1, rangeScan(10)))
	sink := j.Add(NewSink("sink", 1, coll))
	j.MustConnect(scan, sink, 0, OneToOne())
	if err := c.Run(context.Background(), j); err == nil {
		t.Fatal("Run on a fully-dead cluster must fail")
	}
	if err := newCluster(t, 2).Run(context.Background(), j); err != nil {
		t.Fatalf("Run on a fresh cluster: %v", err)
	}
	if len(coll.Tuples()) != 10 {
		t.Fatalf("the fresh cluster's run produced %d tuples", len(coll.Tuples()))
	}
}

func TestNodeCrashFaultPoint(t *testing.T) {
	fault.Disarm()
	defer fault.Disarm()
	c := newCluster(t, 4)
	// The third task to start crashes its node.
	if err := fault.Arm("hyracks.node.crash:error:after=2:times=1"); err != nil {
		t.Fatal(err)
	}
	j := NewJob()
	scan := j.Add(NewScan("scan", 4, rangeScan(1000)))
	coll := &Collector{}
	sink := j.Add(NewSink("sink", 4, coll))
	j.MustConnect(scan, sink, 0, OneToOne())
	err := c.Run(context.Background(), j)
	var nf *NodeFailure
	if !errors.As(err, &nf) {
		t.Fatalf("want *NodeFailure from injected crash, got %v", err)
	}
	if len(c.AliveNodes()) != 3 {
		t.Fatalf("alive nodes = %d, want 3", len(c.AliveNodes()))
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
