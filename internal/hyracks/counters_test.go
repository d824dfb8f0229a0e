package hyracks

import (
	"context"
	"errors"
	"strings"
	"testing"

	"asterix/internal/adm"
	"asterix/internal/obs"
)

// spanCounter sums a counter over the task spans of one operator
// ("name[partition]") in a traced job's span tree.
func spanCounter(root *obs.Span, op, counter string) int64 {
	var n int64
	for _, c := range root.Tree().Children {
		if strings.HasPrefix(c.Name, op+"[") {
			n += c.Counters[counter]
		}
	}
	return n
}

// filteringScan is rangeScan as a leaf whose filter lets one row in three
// out: it reads three stored rows for every tuple it emits.
func filteringScan(n int) func(tc *TaskContext, emit func(Tuple) error) error {
	return func(tc *TaskContext, emit func(Tuple) error) error {
		return rangeScan(n)(tc, func(t Tuple) error {
			tc.RowsRead += 3
			return emit(t)
		})
	}
}

// Writers count tuples privately and publish per frame; at task end the
// node counters and the task spans must hold the exact number written —
// here 1000 tuples from two producers, so every producer's last frame is
// partial — whatever the connector, and a Broadcast write counts once. The
// rows a leaf read are published the same way.
func TestTupleCountersExactAtTaskEnd(t *testing.T) {
	const n = 1000
	byKey := Comparator{Columns: []int{0}}
	for _, tc := range []struct {
		name     string
		conn     Connector
		sinkPar  int
		received int64
	}{
		{"one-to-one", OneToOne(), 2, n},
		{"hash", HashPartition(0), 3, n},
		{"broadcast", Broadcast(), 3, 3 * n},
		{"merge-unordered", MergeUnordered(), 1, n},
		{"merge-ordered", MergeOrdered(byKey), 1, n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 2)
			j := NewJob()
			scan := j.Add(NewScan("scan", 2, filteringScan(n)))
			sink := j.Add(NewFuncSink("sink", tc.sinkPar, func(int, Tuple) error { return nil }))
			j.MustConnect(scan, sink, 0, tc.conn)
			span := obs.NewSpan("job")
			span.SetDetailed(true)
			if err := c.Run(obs.ContextWithSpan(context.Background(), span), j); err != nil {
				t.Fatal(err)
			}
			if s := c.TotalStats(); s.TuplesOut != n || s.TuplesIn != tc.received || s.RowsRead != 3*n {
				t.Errorf("node counters: out %d in %d read %d, want %d, %d and %d", s.TuplesOut, s.TuplesIn, s.RowsRead, n, tc.received, 3*n)
			}
			if out, read := spanCounter(span, "scan", "tuplesOut"), spanCounter(span, "scan", "rowsRead"); out != n || read != 3*n {
				t.Errorf("span tuplesOut = %d, rowsRead = %d, want %d and %d", out, read, n, 3*n)
			}
			if read := spanCounter(span, "sink", "rowsRead"); read != 0 {
				t.Errorf("a task that is no leaf reports rowsRead = %d", read)
			}
		})
	}
}

// A task that fails never closes its writers; what it wrote and what it
// read before failing — the rows after its last tuple too — is still
// counted, to the row.
func TestTupleCountersExactUnderTaskError(t *testing.T) {
	const written = 300 // one full frame and a partial one
	c := newCluster(t, 1)
	j := NewJob()
	boom := errors.New("injected task error")
	scan := j.Add(NewScan("scan", 1, func(tc *TaskContext, emit func(Tuple) error) error {
		for i := 0; i < written; i++ {
			tc.RowsRead += 2
			if err := emit(Tuple{adm.Int64(i)}); err != nil {
				return err
			}
		}
		tc.RowsRead += 7
		return boom
	}))
	sink := j.Add(NewFuncSink("sink", 1, func(int, Tuple) error { return nil }))
	j.MustConnect(scan, sink, 0, OneToOne())
	span := obs.NewSpan("job")
	span.SetDetailed(true)
	if err := c.Run(obs.ContextWithSpan(context.Background(), span), j); !errors.Is(err, boom) {
		t.Fatalf("run: %v", err)
	}
	if s := c.TotalStats(); s.TuplesOut != written || s.RowsRead != 2*written+7 {
		t.Errorf("node TuplesOut = %d, RowsRead = %d, want %d and %d", s.TuplesOut, s.RowsRead, written, 2*written+7)
	}
	if out, read := spanCounter(span, "scan", "tuplesOut"), spanCounter(span, "scan", "rowsRead"); out != written || read != 2*written+7 {
		t.Errorf("span tuplesOut = %d, rowsRead = %d, want %d and %d", out, read, written, 2*written+7)
	}
}

// BenchmarkExchangeWrite is the contended-counter case: two producer tasks
// of one node each write half of a million tuples through a OneToOne edge at
// the same time, so everything they share per tuple shows.
func BenchmarkExchangeWrite(b *testing.B) {
	const n = 1_000_000
	c := newCluster(b, 1)
	tuple := Tuple{adm.Int64(1), adm.Int64(2)}
	b.ReportAllocs()
	for iter := 0; iter < b.N; iter++ {
		j := NewJob()
		scan := j.Add(NewScan("scan", 2, func(tc *TaskContext, emit func(Tuple) error) error {
			for i := 0; i < n/2; i++ {
				if err := emit(tuple); err != nil {
					return err
				}
			}
			return nil
		}))
		sink := j.Add(NewFuncSink("sink", 2, func(int, Tuple) error { return nil }))
		j.MustConnect(scan, sink, 0, OneToOne())
		if err := c.Run(context.Background(), j); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/tuple")
}
