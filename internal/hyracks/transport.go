package hyracks

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
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
//     attempt's start barrier guarantees every node has registered its
//     receive queues before the first frame is sent).
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

// placement makes a run execute one node's share of an attempt: the
// tasks of the partitions the attempt puts on the node, with the
// channels consumed on other nodes routed through the transport. A job
// without one runs on the channel fabric: every task local, every
// channel in-process.
type placement struct {
	node      *NodeController
	transport Transport
	att       *attempt
}

// attempt is what the nodes running one attempt share.
type attempt struct {
	// jobID is the attempt-scoped id every node registers its edges
	// under.
	jobID string
	// nodes are the alive nodes the attempt was built on: partition p
	// of every operator runs on nodes[p % len(nodes)].
	nodes []*NodeController
	// start closes once every node has registered its edges: without
	// the barrier a fast producer could send frames to a node that has
	// not registered the attempt yet, and they would be dropped as
	// stale.
	start   chan struct{}
	pending atomic.Int32 // nodes yet to register
}

// ready records that one node registered its edges.
func (a *attempt) ready() {
	if a.pending.Add(-1) == 0 {
		close(a.start)
	}
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
	att := &attempt{jobID: fmt.Sprintf("job%d#%d", run, n), nodes: alive, start: make(chan struct{})}
	att.pending.Store(int32(len(alive)))
	jobs := make([]*Job, len(alive))
	for i, nc := range alive {
		if ts[nc.ID] == nil {
			return nil, fmt.Errorf("hyracks: no transport for node %s", nc.ID)
		}
		j, err := build(n)
		if err != nil {
			return nil, err
		}
		j.placement = &placement{node: nc, transport: ts[nc.ID], att: att}
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
	grant, err := c.admit(ctx, jobs[0])
	if err != nil {
		return err
	}
	defer grant.Release()
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for _, j := range jobs {
		wg.Add(1)
		go func(j *Job) {
			defer wg.Done()
			if err := c.run(ctx, j, grant); err != nil {
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
