package hyracks

import (
	"context"
	"fmt"
)

// Transport moves frames between the processes of a multi-process
// cluster. The executor routes every connector channel through exactly
// one of two paths: channels whose consumer task runs in this process
// stay on the in-process channel fabric, and channels whose consumer
// lives elsewhere are handed to the transport, which owns
// serialization, backpressure, and reconnection. The TCP implementation
// lives in internal/net.
//
// Contract, per job attempt:
//   - OpenEdge is called once per edge before any task starts (the
//     READY/START barrier in Placement guarantees every process has
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
	// JobID is the attempt-scoped job id ("q17#2"): unique per
	// RunWithRetry attempt, so stale frames from a dead attempt can
	// never be mistaken for live ones.
	JobID string
	// Edge is the edge's index within the job, identical on every
	// process (all processes build the job from the same spec).
	Edge int
	// Owners names the node that consumes each channel; "" means this
	// process. Non-merge connectors have one channel per consumer
	// partition; merge connectors concentrate onto partition 0's node.
	Owners []string
	// Recv holds, for each locally-owned channel, the queue remote
	// frames are delivered into (nil for remote-owned channels).
	Recv []chan []Tuple
	// Producers is the edge's total producer partition count, local and
	// remote combined.
	Producers int
	// Senders is the number of DISTINCT remote processes producing into
	// this edge; 0 means no remote process does. Each sending process
	// holds its own credit window per channel, so this bounds how many
	// windows can be in flight toward one locally-owned channel — which
	// is what sizes the receive queues.
	Senders int
	// EOS is invoked once per remote producer partition that finishes
	// the edge, after all of that producer's frames were delivered.
	EOS func()
	// Fail, when non-nil, aborts the attempt with a (retriable) error —
	// the transport's escape hatch for protocol violations it cannot
	// attribute to any one local task (e.g. a peer overrunning its
	// credit window).
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

// Placement makes a job run span processes: it tells the executor which
// (operator, partition) tasks belong to this process, and wires the
// cross-process fabric plus the start barrier. A nil Placement on a Job
// is the single-process mode that existed before the transport: every
// task local, every channel in-process.
type Placement struct {
	// JobID is the attempt-scoped id shared by every process running
	// this attempt.
	JobID string
	// Node is this process's node id (must match a cluster node).
	Node string
	// Assign maps (operator name, partition) to the node id that runs
	// it. Every process must compute the identical assignment.
	Assign func(op string, part int) string
	// Transport carries frames between processes.
	Transport Transport
	// Ready is called after this process has registered all of its
	// receive queues but before any task starts — the hook the control
	// plane uses to report READY to the driver.
	Ready func()
	// Start gates task launch: the executor waits for it to close (the
	// driver's START broadcast) after Ready. Without the barrier a fast
	// producer could emit frames at a process that has not registered
	// the attempt yet, and they would be dropped as stale.
	Start <-chan struct{}
	// Abort, when non-nil, lets the control plane fail the run from
	// outside — e.g. a worker reporting a typed NodeFailure or
	// LinkFailure for a task this process never saw.
	Abort <-chan error
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
