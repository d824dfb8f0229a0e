package anet

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asterix/internal/adm"
	"asterix/internal/hyracks"
	"asterix/internal/mem"
)

// recordingPeer is a node's peer that records the job id of every edge it
// opens.
type recordingPeer struct {
	*Peer
	mu  *sync.Mutex
	ids map[string]bool
}

func (r recordingPeer) OpenEdge(ctx context.Context, desc hyracks.EdgeDesc) (hyracks.EdgeHandle, error) {
	r.mu.Lock()
	r.ids[desc.JobID] = true
	r.mu.Unlock()
	return r.Peer.OpenEdge(ctx, desc)
}

// TestLoopbackAdmitsOnceUnderDistinctJobIDs runs hash-partitioned sorts
// across two loopback nodes, four at a time, on a working pool that holds
// the minimum grants of exactly one job's two sorts. Each attempt is
// admitted once for the tasks of both nodes, so no two jobs can each hold
// one node's half and wait for the other's: every run completes, the
// admissions are given back, and each run opens its edges under a job id
// of its own.
func TestLoopbackAdmitsOnceUnderDistinctJobIDs(t *testing.T) {
	c, err := hyracks.NewCluster(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const minTaskGrant = 256 << 10
	c.Gov = mem.NewGovernor(mem.Config{WorkingBytes: 2 * minTaskGrant, MinTaskGrant: minTaskGrant, AdmitTimeout: 2 * time.Second})
	lb, err := AttachLoopback(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	var mu sync.Mutex
	ids := map[string]bool{}
	recording := map[string]hyracks.Transport{}
	for _, n := range c.Nodes {
		recording[n.ID] = recordingPeer{Peer: lb.peers[n.ID], mu: &mu, ids: ids}
	}
	c.AttachTransports(recording)

	const rows, runs = 1000, 4
	var got atomic.Int64
	build := func(int) (*hyracks.Job, error) {
		j := hyracks.NewJob()
		scan := j.Add(hyracks.NewScan("scan", 2, func(tc *hyracks.TaskContext, emit func(hyracks.Tuple) error) error {
			for i := tc.Partition; i < rows; i += tc.NumPartitions {
				if err := emit(hyracks.Tuple{adm.Int64(i)}); err != nil {
					return err
				}
			}
			return nil
		}))
		sorter := j.Add(hyracks.NewSort("sort", 2, hyracks.Comparator{Columns: []int{0}}))
		sink := j.Add(hyracks.NewFuncSink("sink", 1, func(int, hyracks.Tuple) error {
			got.Add(1)
			return nil
		}))
		j.MustConnect(scan, sorter, 0, hyracks.HashPartition(0))
		j.MustConnect(sorter, sink, 0, hyracks.MergeUnordered())
		return j, nil
	}
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for r := 0; r < runs; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rep, err := c.RunWithRetry(context.Background(), build, hyracks.RetryPolicy{}); err != nil || rep.Attempts != 1 {
					t.Errorf("round %d: %d attempts, error %v", round, rep.Attempts, err)
				}
			}()
		}
		wg.Wait()
	}
	if held := c.Gov.WorkingGranted(); held != 0 {
		t.Errorf("the governor still grants %d bytes", held)
	}
	if got.Load() != 3*runs*rows {
		t.Errorf("%d rows arrived, want %d", got.Load(), 3*runs*rows)
	}
	if len(ids) != 3*runs {
		t.Errorf("%d runs opened edges under %d job ids", 3*runs, len(ids))
	}
}
