package hyracks

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// NodeFailure is the error a job fails with when a node controller dies
// while one of its tasks is in flight. It is retriable: RunWithRetry
// re-executes the job on the surviving nodes.
type NodeFailure struct {
	Node string // node controller id
	Op   string // operator whose task observed the death
}

func (e *NodeFailure) Error() string {
	return fmt.Sprintf("node %s died running %s", e.Node, e.Op)
}

// TaskPanic is the error a job fails with when one of its operators
// panics. The task's goroutine recovers the panic, so the process keeps
// serving; it is not retriable, since a re-run would panic again.
type TaskPanic struct {
	Op        string // operator whose task panicked
	Partition int
	Value     any    // what the operator panicked with
	Stack     []byte // the panicking goroutine's stack
}

func (e *TaskPanic) Error() string {
	return fmt.Sprintf("hyracks: %s[%d] panicked: %v", e.Op, e.Partition, e.Value)
}

// Retriable reports whether err is a failure class RunWithRetry
// re-plans around (node death), and the dead node's id.
func Retriable(err error) (deadNode string, ok bool) {
	var nf *NodeFailure
	if errors.As(err, &nf) {
		return nf.Node, true
	}
	return "", false
}

// maxAttempts bounds RunWithRetry's executions of one job, the first
// included.
const maxAttempts = 3

// RunReport describes one RunWithRetry execution.
type RunReport struct {
	// Attempts is how many times the job ran (>= 1 unless build failed).
	Attempts int
	// DeadNodes lists the nodes observed dead over the run.
	DeadNodes []string
	// PeakWorkingBytes is the largest working-memory high-water mark any
	// attempt reached (0 when no operator drew memory).
	PeakWorkingBytes int64
}

// RunWithRetry executes the job produced by build, re-building and
// re-running it at once on the surviving nodes when a node failure kills
// an attempt, up to maxAttempts executions. A killed node never comes
// back, so there is nothing to wait for between attempts.
// build is called once per attempt and must return a fresh Job — sinks
// and collectors hold per-run state, so a Job value cannot be re-run.
// Other errors are returned immediately.
func (c *Cluster) RunWithRetry(ctx context.Context, build func() (*Job, error)) (RunReport, error) {
	var rep RunReport
	for {
		j, err := build()
		if err != nil {
			return rep, err
		}
		rep.Attempts++
		err = c.Run(ctx, j)
		rep.PeakWorkingBytes = max(rep.PeakWorkingBytes, j.PeakWorkingBytes())
		if err == nil {
			return rep, nil
		}
		deadNode, ok := Retriable(err)
		if !ok {
			return rep, err
		}
		rep.DeadNodes = mergeDead(rep.DeadNodes, c.DeadNodeIDs(), deadNode)
		if rep.Attempts >= maxAttempts {
			return rep, fmt.Errorf("hyracks: job failed after %d attempts: %w", rep.Attempts, err)
		}
		if len(c.AliveNodes()) == 0 {
			return rep, fmt.Errorf("hyracks: no surviving nodes: %w", err)
		}
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		atomic.AddInt64(&c.jobRetries, 1)
	}
}

// mergeDead unions dead-node ids into have, preserving first-seen order.
func mergeDead(have, current []string, extra string) []string {
	seen := make(map[string]bool, len(have))
	for _, id := range have {
		seen[id] = true
	}
	for _, id := range append(current, extra) {
		if id != "" && !seen[id] {
			seen[id] = true
			have = append(have, id)
		}
	}
	return have
}
