package hyracks

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"asterix/internal/adm"
)

// exchangeJob builds the exchange hot path end to end: parallel scans hash-
// partitioned into a verifying sink, plus a sorted branch merged ordered.
func exchangeJob(rows, parallelism int, coll *Collector, ordered *Collector) *Job {
	j := NewJob()
	scan := j.Add(NewScan("scan", parallelism, func(tc *TaskContext, emit func(Tuple) error) error {
		for i := tc.Partition; i < rows; i += tc.NumPartitions {
			if err := emit(Tuple{adm.Int64(i), adm.Int64(i * 10)}); err != nil {
				return err
			}
		}
		return nil
	}))
	filter := j.Add(NewMap("filter", parallelism, func(tc *TaskContext, tp Tuple, emit func(Tuple) error) error { return emit(tp) }))
	sink := j.Add(NewSink("sink", parallelism, coll))
	j.MustConnect(scan, filter, 0, HashPartition(0))
	j.MustConnect(filter, sink, 0, OneToOne())

	scan2 := j.Add(NewScan("scan2", parallelism, func(tc *TaskContext, emit func(Tuple) error) error {
		r := rand.New(rand.NewSource(int64(tc.Partition)))
		for i := 0; i < rows/parallelism; i++ {
			if err := emit(Tuple{adm.Int64(r.Intn(1 << 16))}); err != nil {
				return err
			}
		}
		return nil
	}))
	cmp := Comparator{Columns: []int{0}}
	sortOp := j.Add(NewSort("sort", parallelism, cmp))
	osink := j.Add(NewOrderedSink("osink", ordered))
	j.MustConnect(scan2, sortOp, 0, OneToOne())
	j.MustConnect(sortOp, osink, 0, MergeOrdered(cmp))
	return j
}

// verifyExchange checks exact row counts and tuple integrity: every id
// exactly once, every payload still paired with its id. A frame touched
// after it was handed on shows up here as a missing, duplicated, or
// cross-wired row.
func verifyExchange(t *testing.T, coll *Collector, ordered *Collector, rows, parallelism int) {
	t.Helper()
	ts := coll.Tuples()
	if len(ts) != rows {
		t.Fatalf("got %d rows, want %d", len(ts), rows)
	}
	seen := make([]bool, rows)
	for _, tp := range ts {
		id, _ := adm.AsInt(tp[0])
		v, _ := adm.AsInt(tp[1])
		if v != id*10 {
			t.Fatalf("row %d carries payload %d, want %d (aliasing corruption)", id, v, id*10)
		}
		if seen[id] {
			t.Fatalf("row %d delivered twice", id)
		}
		seen[id] = true
	}
	os := ordered.Tuples()
	if len(os) != (rows/parallelism)*parallelism {
		t.Fatalf("ordered branch got %d rows, want %d", len(os), (rows/parallelism)*parallelism)
	}
	for i := 1; i < len(os); i++ {
		if adm.Compare(os[i-1][0], os[i][0]) > 0 {
			t.Fatalf("merge order violated at %d", i)
		}
	}
}

// TestPooledExchangeSoak runs the exchange concurrently and repeatedly
// (several jobs in flight on one cluster) and requires exact results every
// round.
func TestPooledExchangeSoak(t *testing.T) {
	c := newCluster(t, 2)
	const rows, parallelism, rounds, lanes = 4000, 4, 3, 3
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make([]error, lanes)
		colls := make([]*Collector, lanes)
		ords := make([]*Collector, lanes)
		for lane := 0; lane < lanes; lane++ {
			lane := lane
			colls[lane] = &Collector{}
			ords[lane] = &Collector{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[lane] = c.Run(context.Background(), exchangeJob(rows, parallelism, colls[lane], ords[lane]))
			}()
		}
		wg.Wait()
		for lane := 0; lane < lanes; lane++ {
			if errs[lane] != nil {
				t.Fatalf("round %d lane %d: %v", round, lane, errs[lane])
			}
			verifyExchange(t, colls[lane], ords[lane], rows, parallelism)
		}
	}
}
