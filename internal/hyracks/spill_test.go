package hyracks

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"asterix/internal/adm"
	"asterix/internal/fault"
	"asterix/internal/mem"
)

// newSpillCluster is newCluster with a working-memory pool small enough
// that every memory operator spills. When the test ends, every node temp
// dir must be empty of run files: a task deletes what it spilled on every
// exit, successful or not.
func newSpillCluster(t testing.TB, nodes int, workingBytes int64) *Cluster {
	t.Helper()
	c := newCluster(t, nodes)
	c.Gov = mem.NewGovernor(mem.Config{WorkingBytes: workingBytes})
	t.Cleanup(func() { assertNoRunFiles(t, c) })
	return c
}

func assertNoRunFiles(t testing.TB, c *Cluster) {
	t.Helper()
	for _, n := range c.Nodes {
		left, err := filepath.Glob(filepath.Join(n.TempDir, runFilePattern))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) > 0 {
			t.Errorf("node %s: %d run files left behind, e.g. %s", n.ID, len(left), left[0])
		}
	}
}

// openFDs counts this process's open descriptors (-1 where /proc is not
// there to ask).
func openFDs(t testing.TB) int {
	t.Helper()
	if runtime.GOOS != "linux" {
		return -1
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(fds)
}

// TestSpillErrorExitsLeaveNothingBehind fails every spilling operator in
// every way a task can end early — its input fails, the job is cancelled,
// the spill I/O itself fails, its output fails — each time after it has
// spilled, and checks that the error is the one injected and that no run
// file, and no descriptor of one, outlives the job.
func TestSpillErrorExitsLeaveNothingBehind(t *testing.T) {
	const rows = 40000
	var (
		errUpstream   = errors.New("upstream failed")
		errDownstream = errors.New("downstream failed")
	)
	type failure struct {
		name string
		want error
		// arm prepares the failure and returns the hook the input scan
		// calls once the operator has spilled.
		arm func(t *testing.T, cancel context.CancelFunc) (onSpilled func() error)
		// sink is what the job's sink does with each tuple.
		sink func(int, Tuple) error
	}
	failures := []failure{
		{
			name: "upstream error",
			want: errUpstream,
			arm: func(*testing.T, context.CancelFunc) func() error {
				return func() error { return errUpstream }
			},
		},
		{
			name: "cancellation",
			want: context.Canceled,
			arm: func(_ *testing.T, cancel context.CancelFunc) func() error {
				return func() error { cancel(); return nil }
			},
		},
		{
			name: "spill.io fault",
			want: fault.ErrInjected,
			arm: func(t *testing.T, _ context.CancelFunc) func() error {
				// The first run file is created, a later one fails.
				if err := fault.Arm(fault.PointSpillIO + ":error:after=1"); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(fault.Disarm)
				return nil
			},
		},
		{
			name: "downstream error",
			want: errDownstream,
			sink: func(int, Tuple) error { return errDownstream },
		},
	}

	// Each operator is fed `rows` distinct keys on the port named input, so
	// sort spills runs, group-by spills one partial per key, and the join
	// (a second scan on its build port) goes grace and emits a row per key.
	operators := []struct {
		name  string
		op    func() *Operator
		build bool
	}{
		{"sort", func() *Operator { return NewSort("op", 1, Comparator{Columns: []int{0}}) }, false},
		// Descending, so every arrival displaces a kept tuple and the 1000
		// kept ones, which overflow the grant, go out as runs of at most 1000.
		{"bounded sort", func() *Operator { return NewTopK("op", 1, Comparator{Columns: []int{0}, Desc: []bool{true}}, 1000) }, false},
		{"group-by", func() *Operator { return NewGroupBy("op", 1, []int{0}, []AggSpec{CountAgg(-1)}) }, false},
		{"inner join", func() *Operator { return NewHashJoin("op", 1, []int{0}, []int{0}, InnerJoin, 2, nil) }, true},
		{"left-outer join", func() *Operator { return NewHashJoin("op", 1, []int{0}, []int{0}, LeftOuterJoin, 2, nil) }, true},
		{"semi join", func() *Operator { return NewHashJoin("op", 1, []int{0}, []int{0}, LeftSemiJoin, 2, nil) }, true},
		{"aggregating join", func() *Operator {
			return NewAggregatingHashJoin("op", 1, []int{0}, []int{0}, []AggSpec{CountAgg(-1)}, nil)
		}, true},
	}

	for _, o := range operators {
		for _, f := range failures {
			t.Run(o.name+"/"+f.name, func(t *testing.T) {
				fault.Disarm()
				c := newSpillCluster(t, 1, 4<<10)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var onSpilled func() error
				if f.arm != nil {
					onSpilled = f.arm(t, cancel)
				}
				sinkFn := f.sink
				if sinkFn == nil {
					sinkFn = func(int, Tuple) error { return nil }
				}

				j := NewJob()
				// The input scan keeps emitting until the operator has
				// spilled, then fires the failure and emits the rest.
				input := j.Add(NewScan("input", 1, func(tc *TaskContext, emit func(Tuple) error) error {
					fired := onSpilled == nil
					for i := 0; i < rows; i++ {
						if !fired && i > rows/4 && c.TotalStats().Spills > 0 {
							fired = true
							if err := onSpilled(); err != nil {
								return err
							}
						}
						if err := emit(Tuple{adm.Int64(i), adm.String("padding-padding-padding")}); err != nil {
							return err
						}
					}
					if !fired {
						t.Error("operator never spilled while its input ran; lower the grant")
					}
					return nil
				}))
				op := j.Add(o.op())
				sink := j.Add(NewFuncSink("sink", 1, sinkFn))
				j.MustConnect(input, op, 0, OneToOne())
				if o.build {
					j.MustConnect(j.Add(NewScan("build", 1, rangeScan(rows))), op, 1, OneToOne())
				}
				j.MustConnect(op, sink, 0, OneToOne())

				before := openFDs(t)
				err := c.Run(ctx, j)
				if !errors.Is(err, f.want) {
					t.Fatalf("job error = %v, want %v", err, f.want)
				}
				if c.TotalStats().Spills == 0 {
					t.Fatal("operator failed before it spilled; the case proves nothing")
				}
				// newSpillCluster checks the temp dirs when the case ends.
				if after := openFDs(t); after != before {
					t.Errorf("open descriptors: %d before the job, %d after", before, after)
				}
			})
		}
	}
}

// TestClusterSweepsStaleRunFiles: a process killed mid-spill leaves run
// files nobody will read; the next cluster over the same directory deletes
// them, and nothing else.
func TestClusterSweepsStaleRunFiles(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "nc0")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	stale, other := filepath.Join(dir, "run-x.tmp"), filepath.Join(dir, "keep.dat")
	for _, f := range []string{stale, other} {
		if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewCluster(1, base); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale run file survived cluster start-up (stat: %v)", err)
	}
	if _, err := os.Stat(other); err != nil {
		t.Errorf("unrelated file was removed: %v", err)
	}
}
