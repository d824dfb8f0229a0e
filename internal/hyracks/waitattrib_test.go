package hyracks

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"asterix/internal/adm"
	"asterix/internal/obs"
)

// These tests guard spill-wait attribution. A run file's I/O is timed
// where it happens — RunWriter.flush, RunReader.fill and runSet.writer —
// so TestRunFileReadIsSpillWait checks each half at that level, and the
// operator tests check that a spilling sort or grace join under a traced
// job surfaces the time on the job span, which is what the slow-query log
// and the E-series wait breakdowns consume.

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

// TestRunFileReadIsSpillWait times each half of a run file apart: writing
// it, then reading it back, must each add to the task's WaitSpill. A
// job-level test cannot tell the halves apart, since the writes alone make
// the job's total positive.
func TestRunFileReadIsSpillWait(t *testing.T) {
	tc := bareTask(t)
	tc.Span = obs.NewSpan("spill")
	spill := func() time.Duration { return tc.Span.Waits()[obs.WaitSpill] }
	s := newRunSet(tc, false)
	defer s.close()
	// Four buffers' worth, so the read-back is four reads.
	pad := adm.String(strings.Repeat("x", 1000))
	n := 4 * runBufSize / 1000
	for i := 0; i < n; i++ {
		if err := s.write(0, Tuple{adm.Int64(i), pad}); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := s.open(0, true); !ok || err != nil {
		t.Fatalf("open: %v, %v", ok, err)
	}
	written := spill()
	if written <= 0 {
		t.Fatalf("writing a run file recorded %v of WaitSpill", written)
	}
	for i := 0; ; i++ {
		tp, ok, err := s.next(0)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != n {
				t.Fatalf("read back %d tuples, want %d", i, n)
			}
			break
		}
		if v, _ := adm.AsInt(tp[0]); v != int64(i) {
			t.Fatalf("tuple %d read back as %v", i, tp[0])
		}
	}
	if read := spill() - written; read <= 0 {
		t.Errorf("reading a run file back recorded %v of WaitSpill (writing it: %v)", read, written)
	}
}
