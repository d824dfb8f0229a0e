package hyracks

import (
	"context"
	"math/rand"
	"testing"

	"asterix/internal/adm"
	"asterix/internal/obs"
)

// These tests guard the wait-attribution plumbing end to end: a spilling
// operator run under a traced job must surface its spill I/O (both the
// run-file writes and the read-back during merge/probe) as WaitSpill on
// the job span. The asterixlint wait-attrib rule statically guarantees
// every blocking call on an operator path is routed through AddWait;
// these tests check the routed time actually reaches the span, which is
// what the slow-query log and E-series wait breakdowns consume.

func runTracedJob(t *testing.T, c *Cluster, j *Job) *obs.Span {
	t.Helper()
	span := obs.NewSpan("test-job")
	ctx := obs.ContextWithSpan(context.Background(), span)
	if err := c.Run(ctx, j); err != nil {
		t.Fatal(err)
	}
	span.End()
	return span
}

// TestSortSpillWaitAttributed covers the external-sort merge phase: run
// read-back is spill I/O and must be attributed (the merge-phase Next
// calls were once untracked, so spill writes showed up in the breakdown
// but the read half of the same I/O vanished).
func TestSortSpillWaitAttributed(t *testing.T) {
	c := newSpillCluster(t, 1, 4<<10)
	j := NewJob()
	n := 3000
	scan := j.Add(NewScan("scan", 1, func(tc *TaskContext, emit func(Tuple) error) error {
		r := rand.New(rand.NewSource(11))
		for i := 0; i < n; i++ {
			if err := emit(Tuple{adm.Int64(r.Intn(1 << 20)), adm.String("padding-padding-padding")}); err != nil {
				return err
			}
		}
		return nil
	}))
	sortOp := j.Add(NewSort("sort", 1, Comparator{Columns: []int{0}}))
	coll := &Collector{}
	sink := j.Add(NewOrderedSink("sink", coll))
	j.MustConnect(scan, sortOp, 0, OneToOne())
	j.MustConnect(sortOp, sink, 0, OneToOne())

	span := runTracedJob(t, c, j)
	if coll.Len() != n {
		t.Fatalf("got %d tuples, want %d", coll.Len(), n)
	}
	if c.Nodes[0].Spills == 0 {
		t.Fatal("test needs a spilling sort; raise n or lower the budget")
	}
	// Timed where the file is written and read, a buffer at a time: more
	// than nothing, and — one sort task — no more than the job took.
	if got := span.WaitRollup()[obs.WaitSpill]; got <= 0 || got > span.Duration() {
		t.Errorf("spilling sort recorded %v of WaitSpill on a job span of %v", got, span.Duration())
	}
}

// TestGraceJoinSpillWaitAttributed covers the grace hash join: both the
// build-side partition read-back and the probe-side Finish/Next reads
// are spill I/O. The probe side was once untracked, halving the join's
// visible spill wait.
func TestGraceJoinSpillWaitAttributed(t *testing.T) {
	c := newSpillCluster(t, 1, 2<<10)
	j := NewJob()
	n := 2000
	left := j.Add(NewScan("left", 1, rangeScan(n)))
	right := j.Add(NewScan("right", 1, func(tc *TaskContext, emit func(Tuple) error) error {
		for i := 0; i < n; i++ {
			if err := emit(Tuple{adm.Int64(i), adm.String("right-payload-right-payload")}); err != nil {
				return err
			}
		}
		return nil
	}))
	join := j.Add(NewHashJoin("join", 1, []int{0}, []int{0}, InnerJoin, 2, nil))
	coll := &Collector{}
	sink := j.Add(NewSink("sink", 1, coll))
	j.MustConnect(left, join, 0, OneToOne())
	j.MustConnect(right, join, 1, OneToOne())
	j.MustConnect(join, sink, 0, OneToOne())

	span := runTracedJob(t, c, j)
	if coll.Len() != n {
		t.Fatalf("grace join returned %d, want %d", coll.Len(), n)
	}
	if c.Nodes[0].Spills == 0 {
		t.Fatal("test needs grace mode; lower the budget")
	}
	if got := span.WaitRollup()[obs.WaitSpill]; got <= 0 {
		t.Errorf("grace join recorded no WaitSpill time on the job span (got %v)", got)
	}
}
