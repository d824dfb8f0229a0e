package hyracks

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"asterix/internal/adm"
)

// bareTask is a task context good for spilling outside a job: a node with
// a spill directory and nothing else.
func bareTask(t testing.TB) *TaskContext {
	return &TaskContext{Node: &NodeController{TempDir: t.TempDir()}}
}

// TestRunSetEachReuse pins the contract that reading a run back with reuse
// rests on: fn sees exactly the written values whatever width the previous
// tuple had, in one container for the whole run; without reuse every tuple
// is its own and stays valid.
func TestRunSetEachReuse(t *testing.T) {
	const rounds = 300 // wide, narrow, wide, ...
	// Values below 256 box without allocating, so what a read-back
	// allocates beyond the fixed cost of opening and deleting the file is
	// containers only.
	want := make([]Tuple, 0, 3*rounds)
	for i := 0; i < rounds; i++ {
		wide := Tuple{}
		for c := 0; c < 8; c++ {
			wide = append(wide, adm.Int64((i+c)%200))
		}
		want = append(want, wide, Tuple{adm.Int64(i % 7), adm.Int64(i % 3)}, wide[:6])
	}
	// prepared returns a set holding the tuples twice: AllocsPerRun warms
	// up on run 0 and measures run 1.
	prepared := func() *runSet {
		s := newRunSet(bareTask(t), false)
		for p := 0; p < 2; p++ {
			for _, tp := range want {
				if err := s.write(p, tp); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s
	}
	sameValues := func(i int, got Tuple) {
		if len(got) != len(want[i]) {
			t.Fatalf("tuple %d: width %d, want %d", i, len(got), len(want[i]))
		}
		for c := range got {
			if adm.Compare(got[c], want[i][c]) != 0 {
				t.Fatalf("tuple %d col %d: %v, want %v", i, c, got[c], want[i][c])
			}
		}
	}
	readBack := func(reuse bool, fn func(i int, got Tuple)) float64 {
		s := prepared()
		defer s.close()
		p := 0
		return testing.AllocsPerRun(1, func() {
			i := 0
			err := s.each(p, reuse, func(got Tuple) error {
				fn(i, got)
				i++
				return nil
			})
			if err != nil || i != len(want) {
				t.Fatalf("run %d: %d tuples, err %v", p, i, err)
			}
			p++
		})
	}

	kept := make([]Tuple, len(want))
	fresh := readBack(false, func(i int, got Tuple) { kept[i] = got })
	for i, got := range kept {
		sameValues(i, got) // still what was written, a whole run later
	}
	reused := readBack(true, sameValues)
	if containers := reused - (fresh - float64(len(want))); containers > 1 {
		t.Errorf("reuse allocated %.0f containers for one run, want at most 1 (%.0f allocs against %.0f for %d fresh tuples)",
			containers, reused, fresh, len(want))
	}
}

// TestRunReaderRejectsCorruptFile damages a finished run file the three
// ways its framing can lie and expects the typed error each time — no
// panic, no allocation sized by the damage — and the file gone once the
// set closes.
func TestRunReaderRejectsCorruptFile(t *testing.T) {
	value := adm.Encode(nil, adm.String("a value of some length"))
	record := func(count uint64, body []byte) []byte {
		rec := append(binary.AppendUvarint(nil, count), body...)
		return append(binary.AppendUvarint(nil, uint64(len(rec))), rec...)
	}
	good := record(1, value)
	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"count beyond the record", record(1<<40, value)},
		{"file ends mid-value", good[:len(good)-3]},
		{"record ends mid-value", record(1, value[:len(value)-3])},
	} {
		t.Run(tc.name, func(t *testing.T) {
			task := bareTask(t)
			s := newRunSet(task, false)
			if err := s.write(0, Tuple{adm.String("a value of some length")}); err != nil {
				t.Fatal(err)
			}
			name := s.runs[0].w.f.Name()
			if ok, err := s.open(0, false); !ok || err != nil {
				t.Fatal(ok, err)
			}
			if err := os.WriteFile(name, tc.file, 0o600); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := s.next(0); ok || !errors.Is(err, errCorruptRun) {
				t.Errorf("next: ok %v, err %v, want %v", ok, err, errCorruptRun)
			}
			s.close()
			if left, _ := filepath.Glob(filepath.Join(task.TempDir(), runFilePattern)); len(left) > 0 {
				t.Errorf("run file left behind: %v", left)
			}
		})
	}
}

// TestUnboundedBufferReleasesDeliveredFrames holds an ordered merge's
// buffer behind a consumer that lags: what it has taken must be collectable
// while later frames still wait in the queue.
func TestUnboundedBufferReleasesDeliveredFrames(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan []Tuple)
	out := unboundedBuffer(ctx, in)
	const frames, taken = 20, 9
	var freed atomic.Int32
	for i := 0; i < frames; i++ {
		rec := adm.NewObject(adm.Field{Name: "i", Value: adm.Int64(i)})
		if i < taken {
			runtime.SetFinalizer(rec, func(*adm.Object) { freed.Add(1) })
		}
		in <- []Tuple{{rec}}
	}
	// out's own buffer holds 8 frames, so the ninth taken was popped from
	// the queue with nothing appended behind it since: only the pop itself
	// can have let go of it.
	for i := 0; i < taken; i++ {
		<-out
	}
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() < taken && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if got := freed.Load(); got < taken {
		t.Errorf("%d of %d delivered frames collectable with %d still queued", got, taken, frames-taken)
	}
}

// TestSpilledOperatorsMatchInMemory runs the operators that read runs back
// — group-by, the grace join of every kind and the aggregating join — under
// a 64 KiB grant and with ample memory, and requires the same rows and
// every grant given back.
func TestSpilledOperatorsMatchInMemory(t *testing.T) {
	const n = 6000
	payload := func(i int) adm.Value { return adm.String(fmt.Sprintf("payload-%06d-payload-payload", i)) }
	left := func(tc *TaskContext, emit func(Tuple) error) error {
		for i := tc.Partition; i < n; i += tc.NumPartitions {
			key := adm.Value(adm.Int64(i))
			if i%100 == 7 { // a null key never reaches a partition
				key = adm.Null
			}
			if err := emit(Tuple{key, payload(i)}); err != nil {
				return err
			}
		}
		return nil
	}
	right := func(tc *TaskContext, emit func(Tuple) error) error {
		for i := tc.Partition; i < n; i += tc.NumPartitions {
			if i%3 == 0 { // two thirds of the left side find no partner
				continue
			}
			if err := emit(Tuple{adm.Int64(i), payload(-i)}); err != nil {
				return err
			}
		}
		return nil
	}
	join := func(kind JoinKind) func(*Job) *Operator {
		return func(j *Job) *Operator {
			l, r := j.Add(NewScan("left", 2, left)), j.Add(NewScan("right", 2, right))
			op := j.Add(NewHashJoin("join", 2, []int{0}, []int{0}, kind, 2, nil))
			j.MustConnect(l, op, 0, HashPartition(0))
			j.MustConnect(r, op, 1, HashPartition(0))
			return op
		}
	}
	for _, tc := range []struct {
		name  string
		build func(*Job) *Operator
	}{
		{"group-by", func(j *Job) *Operator {
			scan := j.Add(NewScan("scan", 2, func(tc *TaskContext, emit func(Tuple) error) error {
				for i := tc.Partition; i < 4*n; i += tc.NumPartitions {
					if err := emit(Tuple{payload(i % n), adm.Int64(i)}); err != nil {
						return err
					}
				}
				return nil
			}))
			gb := j.Add(NewGroupBy("gb", 2, []int{0}, []AggSpec{CountAgg(-1), SumAgg(1), MaxAgg(1)}))
			j.MustConnect(scan, gb, 0, HashPartition(0))
			return gb
		}},
		{"inner join", join(InnerJoin)},
		{"left outer join", join(LeftOuterJoin)},
		{"semi join", join(LeftSemiJoin)},
		// Three probe tuples for each key of the first third, against build
		// keys that skip every third one.
		{"aggregating join", func(j *Job) *Operator {
			l := j.Add(NewScan("left", 2, func(tc *TaskContext, emit func(Tuple) error) error {
				for i := tc.Partition; i < n; i += tc.NumPartitions {
					if err := emit(Tuple{adm.Int64(i % (n / 3)), adm.Int64(i)}); err != nil {
						return err
					}
				}
				return nil
			}))
			r := j.Add(NewScan("right", 2, right))
			op := j.Add(NewAggregatingHashJoin("join", 2, []int{0}, []int{0}, []AggSpec{CountAgg(-1), SumAgg(1), MaxAgg(1)}, nil))
			j.MustConnect(l, op, 0, HashPartition(0))
			j.MustConnect(r, op, 1, HashPartition(0))
			return op
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(c *Cluster) []string {
				j := NewJob()
				coll := &Collector{}
				sink := j.Add(NewSink("sink", 1, coll))
				j.MustConnect(tc.build(j), sink, 0, MergeUnordered())
				if err := c.Run(context.Background(), j); err != nil {
					t.Fatal(err)
				}
				if g := c.Gov.WorkingGranted(); g != 0 {
					t.Errorf("%d working bytes still granted after the job", g)
				}
				rows := make([]string, 0, coll.Len())
				for _, tp := range coll.Tuples() {
					rows = append(rows, fmt.Sprint(tp))
				}
				sort.Strings(rows)
				return rows
			}
			want := run(newCluster(t, 2))
			tight := newSpillCluster(t, 2, 64<<10)
			got := run(tight)
			if tight.TotalStats().Spills == 0 {
				t.Fatal("nothing spilled under 64 KiB")
			}
			if len(got) != len(want) {
				t.Fatalf("spilled %d rows, in memory %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d: spilled %s, in memory %s", i, got[i], want[i])
				}
			}
		})
	}
}
