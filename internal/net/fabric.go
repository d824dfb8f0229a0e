package anet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"asterix/internal/fault"
	"asterix/internal/hyracks"
)

// jobState holds one job attempt's edge registrations. Its context is
// derived from the run's: CloseJob cancels it, so every inject goroutine
// terminates no matter which of run-teardown or Peer.Close came first.
type jobState struct {
	ctx    context.Context
	cancel context.CancelFunc
	mu     sync.Mutex
	edges  map[int]*edgeState
}

// edgeState is one registered edge: local receive queues, remote-channel
// credit pools, and the distinct remote owners that get this node's
// end-of-stream markers.
type edgeState struct {
	desc         hyracks.EdgeDesc
	remoteOwners []string
	queues       map[int]*recvQueue
	credits      map[int]chan struct{}
	// broken latches when a peer violates the edge's protocol (receive
	// queue overrun): a poisoned edge never fires EOS — a dropped frame
	// must not end in a "complete" stream — and the attempt is failed
	// with a retriable LinkFailure instead.
	broken atomic.Bool
}

// recvQueue decouples a connection's read loop from one local channel's
// consumer: the reader enqueues without blocking (the credit window
// bounds what honest senders can have outstanding), and the queue's
// inject goroutine moves frames into the executor's channel, returning
// credit as the consumer drains. One slow channel therefore never
// head-of-line-blocks the connection it shares with other channels.
type recvQueue struct {
	items chan recvItem
}

type recvItem struct {
	from  string
	frame []hyracks.Tuple
	eos   *eosBarrier
}

// eosBarrier makes end-of-stream ordered with data: one remote
// producer's EOS is enqueued behind its frames in every local queue of
// the edge, and the edge-level EOS callback fires only when the last
// queue has drained past its marker — so channels never close while a
// delivered frame is still queued.
type eosBarrier struct {
	pending int32
}

// OpenEdge implements hyracks.Transport.
func (p *Peer) OpenEdge(ctx context.Context, desc hyracks.EdgeDesc) (hyracks.EdgeHandle, error) {
	p.mu.Lock()
	js := p.jobs[desc.JobID]
	if js == nil {
		jctx, jcancel := context.WithCancel(ctx)
		js = &jobState{ctx: jctx, cancel: jcancel, edges: map[int]*edgeState{}}
		p.jobs[desc.JobID] = js
	}
	p.mu.Unlock()

	es := &edgeState{
		desc:    desc,
		queues:  map[int]*recvQueue{},
		credits: map[int]chan struct{}{},
	}
	w := p.window
	// Credit windows are per sending NODE per channel: every remote
	// producer node holds its own w-frame pool for the same channel,
	// so a queue must absorb w frames from each of them (worst case: a
	// concentrating edge pulls every producer into one channel), plus one
	// EOS marker per producer partition. Sized this way, honest senders
	// can never overflow a queue — overflow is a protocol violation. An
	// edge no remote node produces into needs no queue at all.
	qcap := w*desc.Senders + desc.Producers
	seen := map[string]bool{}
	for ch, owner := range desc.Owners {
		if owner == "" {
			if desc.Senders == 0 {
				continue
			}
			if desc.Recv[ch] == nil {
				return nil, fmt.Errorf("anet: edge %d channel %d is local but has no receive queue", desc.Edge, ch)
			}
			es.queues[ch] = &recvQueue{items: make(chan recvItem, qcap)}
			continue
		}
		pool := make(chan struct{}, w)
		for i := 0; i < w; i++ {
			pool <- struct{}{}
		}
		es.credits[ch] = pool
		if !seen[owner] {
			seen[owner] = true
			es.remoteOwners = append(es.remoteOwners, owner)
		}
	}

	js.mu.Lock()
	if _, dup := js.edges[desc.Edge]; dup {
		js.mu.Unlock()
		return nil, fmt.Errorf("anet: edge %d already registered for job %s", desc.Edge, desc.JobID)
	}
	js.edges[desc.Edge] = es
	js.mu.Unlock()

	for ch, q := range es.queues {
		p.wg.Add(1)
		go func(ch int, q *recvQueue) {
			defer p.wg.Done()
			p.injectLoop(js, es, ch, q)
		}(ch, q)
	}
	return &edgeHandle{p: p, js: js, es: es}, nil
}

// CloseJob implements hyracks.Transport: it drops the attempt's
// registrations (subsequent frames for it are counted stale and
// discarded) and stops the inject goroutines.
func (p *Peer) CloseJob(jobID string) {
	p.mu.Lock()
	js := p.jobs[jobID]
	delete(p.jobs, jobID)
	p.mu.Unlock()
	if js != nil {
		js.cancel()
	}
}

// failJobs fails every attempt registered on this peer with a retriable
// LinkFailure: a message from peer was lost, so no stream of the attempt
// can be trusted to complete.
func (p *Peer) failJobs(peer string, err error) {
	p.mu.Lock()
	jobs := make([]*jobState, 0, len(p.jobs))
	for _, js := range p.jobs {
		jobs = append(jobs, js)
	}
	p.mu.Unlock()
	var fails []func(error) // one per attempt: its edges share it
	for _, js := range jobs {
		js.mu.Lock()
		for _, es := range js.edges {
			if es.desc.Fail != nil {
				fails = append(fails, es.desc.Fail)
				break
			}
		}
		js.mu.Unlock()
	}
	for _, fail := range fails {
		fail(&hyracks.LinkFailure{Peer: peer, Err: err})
	}
}

// lookupEdge resolves a live (job, edge) registration.
func (p *Peer) lookupEdge(ref edgeRef) *edgeState {
	p.mu.Lock()
	js := p.jobs[ref.jobID]
	p.mu.Unlock()
	if js == nil {
		return nil
	}
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.edges[ref.edge]
}

// deliverData routes one inbound data frame into its receive queue.
// Unknown attempts are stale by construction — the attempt's start barrier
// guarantees live attempts are registered everywhere before the first
// frame — so the frame is dropped and counted, never misdelivered.
func (p *Peer) deliverData(pc *peerConn, payload []byte) {
	ref, ch, frame, err := decodeDataPayload(payload)
	if err != nil {
		p.m.staleDrops.Inc()
		return
	}
	es := p.lookupEdge(ref)
	if es == nil {
		p.m.staleDrops.Inc()
		return
	}
	q := es.queues[ch]
	if q == nil {
		p.m.staleDrops.Inc()
		return
	}
	if es.broken.Load() {
		p.m.staleDrops.Inc() // edge already poisoned: the attempt is dying
		return
	}
	select {
	case q.items <- recvItem{from: pc.id, frame: frame}:
		p.m.framesRecv.Inc()
	default:
		// The queue is sized so every honest sender's full credit window
		// and EOS markers fit: overflow means the peer violated its
		// window, and a silent drop here would let the consumer complete
		// on truncated data (the sender saw success and its EOS still
		// arrives). Treat it as a protocol violation instead.
		p.protocolViolation(pc, es, ref)
	}
}

// protocolViolation handles a peer overrunning a receive queue. The
// queues are sized so honest senders cannot overflow them, so overflow
// means a broken peer: poison the edge (its EOS can never fire, so a
// lost frame can never end in a "complete" stream) and close the inbound
// connection the frame came on. Whatever the sender wrote behind it is
// lost with the connection, so every attempt registered on this peer
// fails with a retriable LinkFailure and RunWithRetry replans it.
func (p *Peer) protocolViolation(pc *peerConn, es *edgeState, ref edgeRef) {
	es.broken.Store(true)
	p.m.connResets.Inc()
	pc.close()
	p.failJobs(pc.id, fmt.Errorf("anet: peer %s overran edge %d's receive window", pc.id, ref.edge))
}

// deliverEOS fans one remote producer's end-of-stream marker into every
// local queue of the edge (see eosBarrier).
func (p *Peer) deliverEOS(pc *peerConn, payload []byte) {
	ref, _, err := readEdgeRef(payload)
	if err != nil {
		return
	}
	es := p.lookupEdge(ref)
	if es == nil {
		return
	}
	if es.broken.Load() {
		return // edge poisoned by a protocol violation: the attempt is dead
	}
	p.m.eosRecv.Inc()
	if len(es.queues) == 0 {
		es.desc.EOS()
		return
	}
	b := &eosBarrier{pending: int32(len(es.queues))}
	for _, q := range es.queues {
		select {
		case q.items <- recvItem{from: pc.id, eos: b}:
		default:
			// Queue sized for every producer's EOS marker: overflow means
			// the peer EOSed more than once (or overran its window), and
			// firing the edge EOS from here could close recv channels
			// while frames are still queued. Protocol violation.
			p.protocolViolation(pc, es, ref)
			return
		}
	}
}

// deliverCredit returns window to a sender-side credit pool.
func (p *Peer) deliverCredit(payload []byte) {
	ref, ch, n, err := decodeCreditPayload(payload)
	if err != nil {
		return
	}
	es := p.lookupEdge(ref)
	if es == nil {
		return
	}
	pool := es.credits[ch]
	if pool == nil {
		return
	}
	for i := 0; i < n; i++ {
		select {
		case pool <- struct{}{}:
		default:
			return // over-credit from a confused peer: cap at the window
		}
	}
}

// injectLoop moves one receive queue's frames into the executor's
// channel, returning credit to each sending peer as the consumer drains
// (batched at half a window to amortize the control traffic).
func (p *Peer) injectLoop(js *jobState, es *edgeState, ch int, q *recvQueue) {
	recv := es.desc.Recv[ch]
	ref := edgeRef{jobID: es.desc.JobID, edge: es.desc.Edge}
	threshold := max(1, p.window/2)
	owed := map[string]int{}
	flush := func(from string) {
		n := owed[from]
		if n == 0 {
			return
		}
		owed[from] = 0
		// A lost credit would stall its sender for good: it fails the
		// attempt instead.
		if err := p.send(from, msgCredit, encodeCreditPayload(nil, ref, ch, n)); err != nil && es.desc.Fail != nil {
			es.desc.Fail(&hyracks.LinkFailure{Peer: from, Err: err})
		}
	}
	for {
		select {
		case it := <-q.items:
			if it.eos != nil {
				if atomic.AddInt32(&it.eos.pending, -1) == 0 && !es.broken.Load() {
					es.desc.EOS()
				}
				flush(it.from)
				continue
			}
			select {
			case recv <- it.frame:
				owed[it.from]++
				if owed[it.from] >= threshold {
					flush(it.from)
				}
			case <-js.ctx.Done():
				return
			}
		case <-js.ctx.Done():
			return
		}
	}
}

// edgeHandle implements hyracks.EdgeHandle over the peer mesh.
type edgeHandle struct {
	p  *Peer
	js *jobState
	es *edgeState
}

// Send implements hyracks.EdgeHandle: it blocks for consumer credit,
// applies the injected network faults, and delivers the frame to the
// channel's owning peer. Every failure is a *hyracks.LinkFailure —
// retriable, because an undelivered frame always breaks the stream
// rather than vanishing.
func (h *edgeHandle) Send(ctx context.Context, ch int, frame []hyracks.Tuple) error {
	owner := h.es.desc.Owners[ch]
	pool := h.es.credits[ch]
	// Credit window: the fast path costs one channel receive.
	select {
	case <-pool:
	default:
		h.p.m.creditStalls.Inc()
		select {
		case <-pool:
		case <-ctx.Done():
			return ctx.Err()
		case <-h.js.ctx.Done():
			return h.js.ctx.Err()
		case <-h.p.closed:
			return &hyracks.LinkFailure{Peer: owner, Err: fmt.Errorf("anet: peer closed")}
		}
	}
	// net.delay armed as delay=… stalls here; armed as error it breaks
	// the link like any transport failure.
	if err := fault.HitTag(fault.PointNetDelay, h.p.id); err != nil {
		return &hyracks.LinkFailure{Peer: owner, Err: err}
	}
	// net.drop: the frame is discarded AND the connection reset, so the
	// loss is never silent — the receiver's stream breaks and the
	// attempt retries.
	if err := fault.HitTag(fault.PointNetDrop, h.p.id); err != nil {
		h.p.m.injectedDrop.Inc()
		h.p.resetRoute(owner)
		return &hyracks.LinkFailure{Peer: owner, Err: err}
	}
	payload := encodeDataPayload(nil, edgeRef{jobID: h.es.desc.JobID, edge: h.es.desc.Edge}, ch, frame)
	if err := h.p.send(owner, msgData, payload); err != nil {
		return &hyracks.LinkFailure{Peer: owner, Err: err}
	}
	h.p.m.framesSent.Inc()
	return nil
}

// ProducerDone implements hyracks.EdgeHandle: one local producer
// finished the edge, so every remote owner gets an end-of-stream marker
// (ordered after the producer's frames on each shared connection).
func (h *edgeHandle) ProducerDone() error {
	ref := edgeRef{jobID: h.es.desc.JobID, edge: h.es.desc.Edge}
	var firstErr error
	for _, owner := range h.es.remoteOwners {
		if err := h.p.send(owner, msgEOS, appendEdgeRef(nil, ref)); err != nil {
			if firstErr == nil {
				firstErr = &hyracks.LinkFailure{Peer: owner, Err: err}
			}
			continue
		}
		h.p.m.eosSent.Inc()
	}
	return firstErr
}
