package hyracks

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"asterix/internal/mem"
)

// NodeController is one simulated cluster node: it owns a spill directory
// and I/O counters. Partition p of every operator runs on node
// p % len(Nodes), standing in for the paper's shared-nothing node
// controllers (Figure 1).
type NodeController struct {
	ID      string
	TempDir string

	// Counters (atomic).
	TuplesIn  int64
	TuplesOut int64
	RowsRead  int64
	Spills    int64
}

func (n *NodeController) addIn(c int64)   { atomic.AddInt64(&n.TuplesIn, c) }
func (n *NodeController) addOut(c int64)  { atomic.AddInt64(&n.TuplesOut, c) }
func (n *NodeController) addRead(c int64) { atomic.AddInt64(&n.RowsRead, c) }

// AddSpill counts one run-file spill on this node.
func (n *NodeController) AddSpill() { atomic.AddInt64(&n.Spills, 1) }

// NodeStats is an atomic snapshot of one node's counters.
type NodeStats struct {
	TuplesIn  int64
	TuplesOut int64
	Spills    int64
	// RowsRead counts the stored records leaf tasks visited; what their
	// filters let out is part of TuplesOut.
	RowsRead int64
}

// Stats snapshots the node's counters with atomic loads — the only
// race-safe way to read them while jobs run (plain field reads race with
// the executor's atomic adds).
func (n *NodeController) Stats() NodeStats {
	return NodeStats{
		TuplesIn:  atomic.LoadInt64(&n.TuplesIn),
		TuplesOut: atomic.LoadInt64(&n.TuplesOut),
		Spills:    atomic.LoadInt64(&n.Spills),
		RowsRead:  atomic.LoadInt64(&n.RowsRead),
	}
}

// Cluster is a simulated Hyracks cluster: a cluster controller's worth of
// coordination over N node controllers, all in one process.
type Cluster struct {
	Nodes []*NodeController
	// Gov arbitrates working memory across concurrent jobs. Set it
	// before the first Run; left nil, a governor with mem's default
	// pools is created lazily.
	Gov *mem.Governor

	govOnce sync.Once

	// Job lifecycle counters (atomic).
	jobAttempts int64
	taskPanics  int64
}

// frameSize is the tuple-batch size moved through connectors.
const frameSize = 256

// governor resolves the cluster's memory governor, building the default
// one on first use.
func (c *Cluster) governor() *mem.Governor {
	c.govOnce.Do(func() {
		if c.Gov == nil {
			c.Gov = mem.NewGovernor(mem.Config{})
		}
	})
	return c.Gov
}

// JobStats is an atomic snapshot of the cluster's job counters.
type JobStats struct {
	// Attempts counts job executions.
	Attempts int64
	// TaskPanics counts jobs that failed because an operator panicked.
	TaskPanics int64
}

// JobStats snapshots the job counters.
func (c *Cluster) JobStats() JobStats {
	return JobStats{
		Attempts:   atomic.LoadInt64(&c.jobAttempts),
		TaskPanics: atomic.LoadInt64(&c.taskPanics),
	}
}

// NewCluster creates an n-node cluster with node ids nc0..nc(n-1).
//
// Each node's spill directory is baseDir/<id>. Run files a previous
// process left there when it was killed mid-spill are deleted: a live
// task deletes its own on every exit, so whatever is found at start-up
// is dead bytes. Only run files are touched.
func NewCluster(n int, baseDir string) (*Cluster, error) {
	c := &Cluster{}
	for i := 0; i < max(n, 1); i++ {
		id := fmt.Sprintf("nc%d", i)
		dir := filepath.Join(baseDir, id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("hyracks: node temp dir: %w", err)
		}
		stale, err := filepath.Glob(filepath.Join(dir, runFilePattern))
		if err != nil {
			return nil, fmt.Errorf("hyracks: node temp dir: %w", err)
		}
		for _, f := range stale {
			if err := os.Remove(f); err != nil {
				return nil, fmt.Errorf("hyracks: stale run file: %w", err)
			}
		}
		c.Nodes = append(c.Nodes, &NodeController{ID: id, TempDir: dir})
	}
	return c, nil
}

// TotalStats sums counter snapshots across all nodes.
func (c *Cluster) TotalStats() NodeStats {
	var t NodeStats
	for _, n := range c.Nodes {
		s := n.Stats()
		t.TuplesIn += s.TuplesIn
		t.TuplesOut += s.TuplesOut
		t.Spills += s.Spills
		t.RowsRead += s.RowsRead
	}
	return t
}

// ResetStats zeroes all node counters. Safe to call concurrently with
// running jobs: every counter access is atomic, so a concurrent reset
// simply loses the in-flight job's updates made before the reset (the
// counters stay consistent, never torn).
func (c *Cluster) ResetStats() {
	for _, n := range c.Nodes {
		atomic.StoreInt64(&n.TuplesIn, 0)
		atomic.StoreInt64(&n.TuplesOut, 0)
		atomic.StoreInt64(&n.Spills, 0)
		atomic.StoreInt64(&n.RowsRead, 0)
	}
}
