package hyracks

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"asterix/internal/mem"
)

// TestRunReleasesAdmissionOnEveryExit fails a job on each exit of Run
// that comes after its admission — an unconnected input port, a task that
// fails, a context cancelled while the tasks run — and
// checks that the admission was held when the job failed and is given
// back once Run returns.
//
// The whole working pool is reserved while the job starts and freed only
// once the job queues for admission, so Run cannot reach any of these
// exits before it was admitted. A task that fails records the working
// memory granted at its failure.
func TestRunReleasesAdmissionOnEveryExit(t *testing.T) {
	errTask := errors.New("task failed")
	// sortJob scans with scanFn, sorts (the memory task the job is
	// admitted for) and hands every sorted tuple to sink.
	sortJob := func(scanFn func(*TaskContext, func(Tuple) error) error, sink func(int, Tuple) error) *Job {
		j := NewJob()
		scan := j.Add(NewScan("scan", 2, scanFn))
		sorter := j.Add(NewSort("sort", 2, Comparator{Columns: []int{0}}))
		out := j.Add(NewFuncSink("sink", 2, sink))
		j.MustConnect(scan, sorter, 0, HashPartition(0))
		j.MustConnect(sorter, out, 0, OneToOne())
		return j
	}
	noSink := func(int, Tuple) error { return nil }
	cases := []struct {
		name string
		// job builds the failing job. held records the working memory
		// granted when a task fails; cancel cancels Run's context.
		job  func(c *Cluster, held *int64, cancel context.CancelFunc) *Job
		want func(error) bool
	}{
		{
			name: "unconnected input port",
			job: func(*Cluster, *int64, context.CancelFunc) *Job {
				j := NewJob()
				scan := j.Add(NewScan("scan", 2, rangeScan(100)))
				sorter := j.Add(NewSort("sort", 2, Comparator{Columns: []int{0}}))
				j.MustConnect(scan, sorter, 1, HashPartition(0))
				return j
			},
			want: func(err error) bool { return err != nil && strings.Contains(err.Error(), "input port 0 unconnected") },
		},
		{
			name: "task fails",
			job: func(c *Cluster, held *int64, _ context.CancelFunc) *Job {
				return sortJob(func(tc *TaskContext, emit func(Tuple) error) error {
					if tc.Partition == 0 {
						*held = c.Gov.WorkingGranted()
						return errTask
					}
					return rangeScan(100)(tc, emit)
				}, noSink)
			},
			want: func(err error) bool { return errors.Is(err, errTask) },
		},
		{
			name: "cancelled after admission",
			job: func(c *Cluster, held *int64, cancel context.CancelFunc) *Job {
				return sortJob(func(tc *TaskContext, _ func(Tuple) error) error {
					if tc.Partition == 0 {
						*held = c.Gov.WorkingGranted()
						cancel()
					}
					<-tc.Ctx.Done()
					return tc.Ctx.Err()
				}, noSink)
			},
			want: func(err error) bool { return errors.Is(err, context.Canceled) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 2)
			c.Gov = mem.NewGovernor(mem.Config{WorkingBytes: 1 << 20})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			held := int64(-1)
			j := tc.job(c, &held, cancel)

			pool, err := c.Gov.Reserve(context.Background(), c.Gov.WorkingCap())
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- c.Run(ctx, j) }()
			for c.Gov.Waiters() == 0 {
				select {
				case err := <-done:
					pool.Release()
					t.Fatalf("Run = %v before the job queued for admission: the exit comes before it", err)
				case <-time.After(time.Millisecond):
				}
			}
			pool.Release()
			err = <-done

			if !tc.want(err) {
				t.Fatalf("Run = %v, want the %s failure", err, tc.name)
			}
			if held == 0 {
				t.Errorf("no working memory was granted when the task failed")
			}
			if got := c.Gov.WorkingGranted(); got != 0 {
				t.Errorf("after the failed run the governor still grants %d bytes", got)
			}
		})
	}
}
