package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	anet "asterix/internal/net"

	"asterix/internal/hyracks"
)

// Control-plane message, JSON over anet's control channel. The sender's
// node id arrives out of band (anet stamps it), so messages carry only
// job-scoped fields.
type ctlMsg struct {
	Type   string              `json:"type"` // job | ready | start | status | cancel
	JobID  string              `json:"jobID"`
	Assign map[string][]string `json:"assign,omitempty"`
	Spec   *Spec               `json:"spec,omitempty"`
	// status: a worker attempt's failure, classified so the driver can
	// re-raise the exact retriable type.
	ErrKind string `json:"errKind,omitempty"` // node | link | error
	ErrNode string `json:"errNode,omitempty"`
	ErrMsg  string `json:"errMsg,omitempty"`
}

// Node is one process's control-plane endpoint: the worker half builds
// and runs job attempts on request, the driver half (Run) coordinates
// attempts across the cluster. Wire it to a peer with
// Options.OnControl = node.HandleControl, then Bind.
type Node struct {
	cluster *hyracks.Cluster
	closing chan struct{} // closed by Close

	mu   sync.Mutex
	peer *anet.Peer
	jobs map[string]*workerJob // attempts this process runs for a remote driver
	runs map[string]*driverRun // attempts this process is driving
	// seq (atomic) numbers this driver's Runs: without it, two
	// concurrent Runs of the same spec id would mint colliding attempt
	// job ids — the workers would dedupe-drop the second job message,
	// its READY barrier would time out, and healthy members would be
	// Kill()ed for nothing.
	seq uint64
}

// readyHeartbeats is how long, in the peer's heartbeat intervals, the
// driver waits for every participant's READY before declaring laggards
// dead and retrying: 10s at the 250ms default.
const readyHeartbeats = 40

// workerJob is one attempt being executed on behalf of a remote driver.
type workerJob struct {
	startOnce sync.Once
	start     chan struct{}
	cancel    context.CancelFunc
}

// driverRun is one attempt's coordination state on the driver.
type driverRun struct {
	jobID    string
	remotes  []string
	need     map[string]bool
	readyCh  chan string
	start    chan struct{}
	abort    chan error
	done     chan struct{}
	doneOnce sync.Once
	result   *hyracks.Collector
}

// NewNode creates the control-plane endpoint for a cluster whose
// controllers carry the member ids (hyracks.NewNamedCluster).
func NewNode(cluster *hyracks.Cluster) *Node {
	return &Node{
		cluster: cluster,
		closing: make(chan struct{}),
		jobs:    map[string]*workerJob{},
		runs:    map[string]*driverRun{},
	}
}

// Bind attaches the peer the node sends through. NewPeer needs the
// control handler and the handler needs the peer, so construction is
// two-phase: NewNode → NewPeer(OnControl: node.HandleControl) → Bind.
// Control messages arriving before Bind are dropped (nothing can be in
// flight for this process before it can answer).
func (n *Node) Bind(p *anet.Peer) {
	n.mu.Lock()
	n.peer = p
	n.mu.Unlock()
}

// Close cancels every attempt this process is executing for remote
// drivers and stops every control-message retry. In-flight driver Runs
// fail through their abort channels as workers and peers go away.
func (n *Node) Close() {
	n.mu.Lock()
	select {
	case <-n.closing:
	default:
		close(n.closing)
	}
	jobs := make([]*workerJob, 0, len(n.jobs))
	for _, wj := range n.jobs {
		jobs = append(jobs, wj)
	}
	n.mu.Unlock()
	for _, wj := range jobs {
		wj.cancel()
	}
}

// OnPeerDown is the anet failure-detection hook: a peer gone silent is
// a dead member, and killing its controller wakes every in-flight task
// watcher exactly as an in-process kill does.
func (n *Node) OnPeerDown(id string) {
	if nc := n.cluster.NodeByID(id); nc != nil {
		nc.Kill()
	}
}

// OnPeerUp is the mirror hook: a peer heard from again after being
// declared down — healed partition, restarted process — is Revived so
// later attempts may place tasks on it again (in-flight attempts that
// already counted it dead still retry; Revive never resurrects tasks).
func (n *Node) OnPeerUp(id string) {
	if nc := n.cluster.NodeByID(id); nc != nil {
		nc.Revive()
	}
}

// HandleControl is the anet control dispatcher (Options.OnControl).
func (n *Node) HandleControl(from string, payload []byte) {
	var msg ctlMsg
	if err := json.Unmarshal(payload, &msg); err != nil {
		return // malformed control traffic: drop, the CRC already passed so this is a version skew
	}
	switch msg.Type {
	case "job":
		n.startWorkerJob(from, msg)
	case "start":
		n.mu.Lock()
		wj := n.jobs[msg.JobID]
		n.mu.Unlock()
		if wj != nil {
			wj.startOnce.Do(func() { close(wj.start) })
		}
	case "cancel":
		n.mu.Lock()
		wj := n.jobs[msg.JobID]
		n.mu.Unlock()
		if wj != nil {
			wj.cancel()
		}
	case "ready":
		n.mu.Lock()
		run := n.runs[msg.JobID]
		n.mu.Unlock()
		if run != nil {
			select {
			case run.readyCh <- from:
			default:
			}
		}
	case "status":
		n.mu.Lock()
		run := n.runs[msg.JobID]
		peer := n.peer
		n.mu.Unlock()
		if run != nil {
			select {
			case run.abort <- msg.statusErr():
			default:
			}
		} else if peer != nil {
			// The attempt is over, so finishRun already sent its cancel,
			// which the worker's re-sending says it never got: send it
			// again. Off the read loop, which must not wait on a dial.
			go peer.SendControl(from, marshal(ctlMsg{Type: "cancel", JobID: msg.JobID}))
		}
	}
}

// statusErr re-raises a worker's classified failure as the typed error
// the driver's RunWithRetry understands.
func (m *ctlMsg) statusErr() error {
	switch m.ErrKind {
	case "node":
		return &hyracks.NodeFailure{Node: m.ErrNode, Op: "(worker)"}
	case "link":
		return &hyracks.LinkFailure{Peer: m.ErrNode, Err: errors.New(m.ErrMsg)}
	default:
		return fmt.Errorf("dist: worker failure: %s", m.ErrMsg)
	}
}

// classifyErr is the inverse: fold a local attempt error into the
// status message.
func classifyErr(st *ctlMsg, err error) {
	var nf *hyracks.NodeFailure
	var lf *hyracks.LinkFailure
	switch {
	case errors.As(err, &nf):
		st.ErrKind, st.ErrNode = "node", nf.Node
	case errors.As(err, &lf):
		st.ErrKind, st.ErrNode = "link", lf.Peer
	default:
		st.ErrKind = "error"
	}
	st.ErrMsg = err.Error()
}

func marshal(m ctlMsg) []byte {
	//lint:ignore err-discard ctlMsg is strings and ints only; Marshal is infallible here
	b, _ := json.Marshal(m)
	return b
}

// dead reports whether this process has declared member id dead.
func (n *Node) dead(id string) bool {
	nc := n.cluster.NodeByID(id)
	return nc != nil && nc.Dead()
}

// sendCtl delivers one control message, retrying a failed write across
// transient link churn: a fault- or churn-reset connection heals within
// a heartbeat. Retries stop once the peer is declared dead (heartbeat
// failure detection owns that outcome), the deadline passes, or Close
// has run. A successful write is not delivery — a reset can still
// discard it — so a message whose loss would stall an attempt has its
// own recovery: a lost job or READY trips the ready barrier, and a lost
// failure status is re-sent (reportFailure).
func (n *Node) sendCtl(peer *anet.Peer, to string, payload []byte, deadline time.Duration) {
	backoff := 10 * time.Millisecond
	for end := time.Now().Add(deadline); !n.dead(to); {
		if peer.SendControl(to, payload) == nil || time.Now().After(end) {
			return
		}
		select {
		case <-n.closing:
			return
		case <-time.After(backoff):
		}
		if backoff < 160*time.Millisecond {
			backoff *= 2
		}
	}
}

// reportFailure tells the driver that this worker's attempt failed, and
// keeps telling it every heartbeat interval: the driver of a failed
// attempt otherwise waits forever, since this worker is alive and no
// watcher fires, and a written status can still be lost to the next
// reset of its connection. The driver acknowledges with the attempt's
// cancel, which cancels ctx, as does Close; re-sending also stops once
// the driver is declared down.
func (n *Node) reportFailure(ctx context.Context, peer *anet.Peer, coord, jobID string, err error) {
	st := ctlMsg{Type: "status", JobID: jobID}
	classifyErr(&st, err)
	payload := marshal(st)
	tick := time.NewTicker(peer.HeartbeatInterval())
	defer tick.Stop()
	for ctx.Err() == nil && !n.dead(coord) {
		peer.SendControl(coord, payload) // a failed write is retried at the next tick, like a lost one
		select {
		case <-ctx.Done():
		case <-tick.C:
		}
	}
}

// startWorkerJob launches one attempt on behalf of a remote driver:
// build the DAG from the shipped spec, park at the START barrier, run,
// report status. Cancellation comes from the driver's cancel broadcast,
// Node.Close, or — via the executor's own watchers — the death of any
// node the attempt depends on.
func (n *Node) startWorkerJob(coord string, msg ctlMsg) {
	if msg.Spec == nil || msg.JobID == "" {
		return
	}
	n.mu.Lock()
	select {
	case <-n.closing:
		n.mu.Unlock()
		return
	default:
	}
	if n.peer == nil || n.jobs[msg.JobID] != nil {
		n.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	wj := &workerJob{start: make(chan struct{}), cancel: cancel}
	n.jobs[msg.JobID] = wj
	peer := n.peer
	n.mu.Unlock()

	go func() {
		defer func() {
			n.mu.Lock()
			delete(n.jobs, msg.JobID)
			n.mu.Unlock()
			cancel()
		}()
		if err := n.runWorkerAttempt(ctx, coord, msg, wj); err != nil {
			n.reportFailure(ctx, peer, coord, msg.JobID, err)
		}
	}()
}

func (n *Node) runWorkerAttempt(ctx context.Context, coord string, msg ctlMsg, wj *workerJob) error {
	self := n.peer.ID()
	job, err := BuildJob(msg.Spec, &hyracks.Collector{})
	if err != nil {
		return err
	}
	job.SetPlacement(&hyracks.Placement{
		JobID:     msg.JobID,
		Node:      self,
		Assign:    assignFunc(msg.Assign),
		Transport: n.peer,
		Ready: func() {
			// Recoverable if lost — the barrier declares this worker dead
			// at its timeout and the attempt retries — but riding out
			// brief churn avoids burning an attempt on it.
			n.sendCtl(n.peer, coord, marshal(ctlMsg{Type: "ready", JobID: msg.JobID}), 2*time.Second)
		},
		Start: wj.start,
	})
	return n.cluster.Run(ctx, job)
}

// Run drives a spec to completion across the cluster, retrying on node
// and link failures per the policy. Per attempt it: computes the
// placement over currently-alive members, broadcasts the job (spec +
// assignment) under a fresh attempt-scoped id, builds its own share,
// waits for every participant's READY (laggards past the ready timeout
// are declared dead, aborting the attempt into a retry on the survivors),
// broadcasts START, and runs. Worker-side failures flow back as typed
// status messages into the attempt's abort channel.
func (n *Node) Run(ctx context.Context, spec *Spec, pol hyracks.RetryPolicy) ([]hyracks.Tuple, hyracks.RunReport, error) {
	n.mu.Lock()
	peer := n.peer
	n.mu.Unlock()
	if peer == nil {
		return nil, hyracks.RunReport{}, fmt.Errorf("dist: node is not bound to a peer")
	}
	self := peer.ID()
	// The job id carries the driver's node id and a per-driver run
	// nonce besides the attempt counter: concurrent Runs of the same
	// spec — on this driver or racing drivers — must never collide in
	// the workers' attempt registries.
	runSeq := atomic.AddUint64(&n.seq, 1)
	attempt := 0
	var last *driverRun
	build := func() (*hyracks.Job, error) {
		if last != nil {
			n.finishRun(last)
			last = nil
		}
		attempt++
		jobID := fmt.Sprintf("%s@%s.%d#%d", spec.ID, self, runSeq, attempt)
		members := make([]string, 0, len(n.cluster.Nodes))
		selfAlive := false
		for _, nc := range n.cluster.AliveNodes() {
			members = append(members, nc.ID)
			selfAlive = selfAlive || nc.ID == self
		}
		if !selfAlive {
			return nil, fmt.Errorf("dist: driving node %s is marked dead", self)
		}
		assign, err := Assign(spec, members, self)
		if err != nil {
			return nil, err
		}
		run := &driverRun{
			jobID:   jobID,
			need:    map[string]bool{},
			readyCh: make(chan string, len(members)+1),
			start:   make(chan struct{}),
			abort:   make(chan error, len(members)+1),
			done:    make(chan struct{}),
			result:  &hyracks.Collector{},
		}
		// Only members that actually own tasks participate in the
		// barrier; an idle member never opens edges and never READYs.
		participants := map[string]bool{}
		for _, nodes := range assign {
			for _, id := range nodes {
				participants[id] = true
			}
		}
		for id := range participants {
			run.need[id] = true
			if id != self {
				run.remotes = append(run.remotes, id)
			}
		}
		job, err := BuildJob(spec, run.result)
		if err != nil {
			return nil, err
		}
		n.mu.Lock()
		n.runs[jobID] = run
		n.mu.Unlock()
		jm := marshal(ctlMsg{Type: "job", JobID: jobID, Assign: assign, Spec: spec})
		for _, r := range run.remotes {
			// Bounded retry smooths transient connection churn; past that
			// the READY barrier is the failure detector — a worker that
			// never got the job never READYs, gets declared dead at the
			// timeout, and the attempt retries on the survivors.
			n.sendCtl(peer, r, jm, 2*time.Second)
		}
		go n.coordinate(run, peer)
		job.SetPlacement(&hyracks.Placement{
			JobID:     jobID,
			Node:      self,
			Assign:    assignFunc(assign),
			Transport: peer,
			Ready: func() {
				select {
				case run.readyCh <- self:
				default:
				}
			},
			Start: run.start,
			Abort: run.abort,
		})
		last = run
		return job, nil
	}
	rep, err := n.cluster.RunWithRetry(ctx, build, pol)
	var result []hyracks.Tuple
	if last != nil {
		if err == nil {
			result = last.result.Tuples()
		}
		n.finishRun(last)
	}
	return result, rep, err
}

// coordinate runs one attempt's READY/START barrier: collect READY from
// every participant, then release them all. A participant silent for
// readyHeartbeats heartbeat intervals is declared dead (Kill feeds the
// executor's watchers) and the attempt aborts into a retry.
func (n *Node) coordinate(run *driverRun, peer *anet.Peer) {
	timer := time.NewTimer(readyHeartbeats * peer.HeartbeatInterval())
	defer timer.Stop()
	ready := map[string]bool{}
	for len(ready) < len(run.need) {
		select {
		case id := <-run.readyCh:
			if run.need[id] {
				ready[id] = true
			}
		case <-timer.C:
			for id := range run.need {
				if ready[id] {
					continue
				}
				if nc := n.cluster.NodeByID(id); nc != nil {
					nc.Kill()
				}
				select {
				case run.abort <- &hyracks.NodeFailure{Node: id, Op: "(ready barrier)"}:
				default:
				}
			}
			return
		case <-run.done:
			return
		}
	}
	close(run.start)
	// START must reach every participant: a worker parked at the barrier
	// sends nothing, so a lost START stalls the attempt invisibly. If a
	// send stays down past the window the peer is partitioned, and
	// failure detection aborts the attempt through the watchers.
	sm := marshal(ctlMsg{Type: "start", JobID: run.jobID})
	for _, r := range run.remotes {
		go n.sendCtl(peer, r, sm, 5*time.Second)
	}
}

// finishRun tears one attempt down: deregister (stale control traffic
// for it is dropped from here on), stop the coordinator goroutine, and
// tell the workers to cancel whatever of the attempt is still running.
func (n *Node) finishRun(run *driverRun) {
	run.doneOnce.Do(func() { close(run.done) })
	n.mu.Lock()
	delete(n.runs, run.jobID)
	peer := n.peer
	n.mu.Unlock()
	// Cancels ride the same retry so a worker parked at the START
	// barrier of an abandoned attempt is reliably released; async so a
	// dead remote cannot stall the driver's next attempt.
	cm := marshal(ctlMsg{Type: "cancel", JobID: run.jobID})
	for _, r := range run.remotes {
		go n.sendCtl(peer, r, cm, 2*time.Second)
	}
}
