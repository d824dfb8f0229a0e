package hyracks

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"asterix/internal/mem"
)

// Transport moves frames between the nodes of a cluster whose jobs run
// across a network. The executor routes every connector channel through
// exactly one of two paths: channels whose consumer task runs on this
// node stay on the in-process channel fabric, and channels whose
// consumer runs on another node are handed to the transport, which owns
// serialization, backpressure, and reconnection. The TCP implementation
// lives in internal/net.
//
// Contract, per job attempt:
//   - OpenEdge is called once per edge before any task starts (the
//     READY/START barrier in Placement guarantees every node has
//     registered its receive queues before the first frame is sent).
//   - For locally-consumed channels the executor passes a receive
//     channel in desc.Recv; the transport must deliver remote frames
//     into it, honoring ctx (a send that can no longer complete because
//     the attempt was cancelled must be dropped, not block forever).
//   - Each remote producer partition signals end-of-stream once per
//     edge; the transport surfaces that by calling desc.EOS once per
//     remote producer, after every frame that producer sent on this
//     edge has been delivered into its receive channel.
//   - CloseJob drops all registrations for the attempt. Frames arriving
//     for an unregistered (stale) attempt are discarded — that is what
//     makes RunWithRetry safe over the network: a retried attempt runs
//     under a fresh attempt-scoped job id and never sees frames from
//     the attempt it replaced.
//   - A frame the transport delivers into desc.Recv belongs to the
//     consumer.
type Transport interface {
	// OpenEdge registers one edge of a job attempt and returns the
	// handle producers use to reach the edge's remote channels.
	OpenEdge(ctx context.Context, desc EdgeDesc) (EdgeHandle, error)
	// CloseJob drops every registration made for the attempt.
	CloseJob(jobID string)
}

// EdgeDesc describes one connector edge's channel topology to the
// transport.
type EdgeDesc struct {
	// JobID is the attempt-scoped job id ("job17#2"): unique per
	// RunWithRetry attempt, so stale frames from a dead attempt can
	// never be mistaken for live ones.
	JobID string
	// Edge is the edge's index within the job, identical on every node
	// (every node builds the job from the same plan).
	Edge int
	// Owners names the node that consumes each channel; "" means this
	// node. Non-merge connectors have one channel per consumer
	// partition; merge connectors concentrate onto partition 0's node.
	Owners []string
	// Recv holds, for each locally-owned channel, the queue remote
	// frames are delivered into (nil for remote-owned channels).
	Recv []chan []Tuple
	// Producers is the edge's total producer partition count, local and
	// remote combined.
	Producers int
	// Senders is the number of DISTINCT remote nodes producing into
	// this edge; 0 means no remote node does. Each sending node holds
	// its own credit window per channel, so this bounds how many windows
	// can be in flight toward one locally-owned channel — which is what
	// sizes the receive queues.
	Senders int
	// EOS is invoked once per remote producer partition that finishes
	// the edge, after all of that producer's frames were delivered.
	EOS func()
	// Fail, when non-nil, aborts the attempt with a (retriable) error —
	// the transport's escape hatch for failures it cannot attribute to
	// any one local task (a peer overrunning its credit window, a frame
	// lost on the way in).
	Fail func(error)
}

// EdgeHandle is the producer-side face of one registered edge.
type EdgeHandle interface {
	// Send delivers a frame to a remote-owned channel, blocking under
	// credit backpressure until the consumer has window for it. It
	// returns a *LinkFailure when the stream breaks (connection reset,
	// partition, peer decline) — retriable via RunWithRetry.
	Send(ctx context.Context, ch int, frame []Tuple) error
	// ProducerDone signals that one local producer partition finished
	// this edge; the transport forwards end-of-stream to every remote
	// node owning channels of the edge.
	ProducerDone() error
}

// Placement makes a Run execute one node's share of a job: it tells the
// executor which (operator, partition) tasks belong to the node, and
// wires the cross-node fabric plus the start barrier. A nil Placement on
// a Job is the channel-fabric mode: every task local, every channel
// in-process.
type Placement struct {
	// JobID is the attempt-scoped id shared by every node running this
	// attempt.
	JobID string
	// Node is this node's id (must match a cluster node).
	Node string
	// Assign maps (operator name, partition) to the node id that runs
	// it. Every node must compute the identical assignment.
	Assign func(op string, part int) string
	// Transport carries frames between nodes.
	Transport Transport
	// Ready is called after this node has registered all of its
	// receive queues but before any task starts.
	Ready func()
	// Start gates task launch: the executor waits for it to close after
	// Ready. Without the barrier a fast producer could emit frames at a
	// node that has not registered the attempt yet, and they would be
	// dropped as stale.
	Start <-chan struct{}
	// Grant, when non-nil, is the attempt's admission, taken once for
	// the tasks of every node: the node's tasks draw their grants from
	// it, and the caller releases it. Nil makes Run admit the node's own
	// memory tasks.
	Grant *mem.JobGrant
}

// localNode resolves the placement's node controller on c.
func (p *Placement) localNode(c *Cluster) (*NodeController, error) {
	for _, n := range c.Nodes {
		if n.ID == p.Node {
			return n, nil
		}
	}
	return nil, fmt.Errorf("hyracks: placement node %q is not in the cluster", p.Node)
}

// AttachTransports makes RunWithRetry run every later job across the
// cluster's alive nodes, one plan per node, with ts[id] carrying node
// id's frames. Nil detaches: jobs take the channel fabric again. Jobs
// already running keep the transports they started with.
func (c *Cluster) AttachTransports(ts map[string]Transport) {
	c.netMu.Lock()
	c.transports = ts
	c.netMu.Unlock()
}

// buildAttempt builds attempt n of a RunWithRetry: one job for the
// channel fabric or, with transports attached, one per alive node, each
// placed on its node under the attempt's job id. Partitions go to nodes
// as a channel run places them (partition p on alive node p mod count).
func (c *Cluster) buildAttempt(build func(attempt int) (*Job, error), run uint64, n int) ([]*Job, error) {
	c.netMu.Lock()
	ts := c.transports
	c.netMu.Unlock()
	if ts == nil {
		j, err := build(n)
		if err != nil {
			return nil, err
		}
		return []*Job{j}, nil
	}
	alive := c.AliveNodes()
	if len(alive) == 0 {
		return nil, fmt.Errorf("hyracks: no alive nodes in the cluster")
	}
	jobID := fmt.Sprintf("job%d#%d", run, n)
	assign := func(_ string, part int) string { return alive[part%len(alive)].ID }
	jobs := make([]*Job, len(alive))
	for i, nc := range alive {
		if ts[nc.ID] == nil {
			return nil, fmt.Errorf("hyracks: no transport for node %s", nc.ID)
		}
		j, err := build(n)
		if err != nil {
			return nil, err
		}
		j.SetPlacement(&Placement{JobID: jobID, Node: nc.ID, Assign: assign, Transport: ts[nc.ID]})
		jobs[i] = j
	}
	return jobs, nil
}

// runAcross runs one attempt's node jobs side by side, as the node
// controllers of a cluster would: the whole job is admitted once, every
// node registers its edges before any node starts a task, and the first
// node to fail cancels the attempt on every node. The attempt's error is
// that first failure.
func (c *Cluster) runAcross(ctx context.Context, jobs []*Job) error {
	atomic.AddInt64(&c.jobAttempts, 1)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	memTasks := 0
	for _, op := range jobs[0].ops {
		if op.Memory {
			memTasks += op.Parallelism
		}
	}
	var grant *mem.JobGrant
	if memTasks > 0 {
		g, err := c.governor().AdmitJob(ctx, memTasks)
		if err != nil {
			return fmt.Errorf("hyracks: job admission: %w", err)
		}
		grant = g
		defer grant.Release()
	}
	start := make(chan struct{})
	pending := int32(len(jobs))
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for _, j := range jobs {
		pl := j.placement
		pl.Grant = grant
		pl.Start = start
		pl.Ready = func() {
			if atomic.AddInt32(&pending, -1) == 0 {
				close(start)
			}
		}
		wg.Add(1)
		go func(j *Job) {
			defer wg.Done()
			if err := c.run(ctx, j); err != nil {
				once.Do(func() {
					first = err
					cancel()
				})
			}
		}(j)
	}
	wg.Wait()
	return c.countFailure(first)
}
