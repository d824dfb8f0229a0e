package anet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"asterix/internal/fault"
	"asterix/internal/obs"
)

// Options configures a Peer.
type Options struct {
	// ID is this peer's node id (must match its cluster node id).
	ID string
	// ListenAddr is the data-plane listen address ("host:port"; port 0
	// picks a free port — see Peer.Addr). Remote peers are added with
	// AddPeer.
	ListenAddr string
	// Metrics, when non-nil, receives the net_* counters.
	Metrics *obs.Registry
	// OnPeerDown is invoked (once per down transition) when a peer that
	// had been heard from goes silent past the heartbeat timeout — the
	// hook that feeds NodeController.Kill.
	OnPeerDown func(id string)
	// OnPeerUp is invoked (once per up transition) when a peer
	// previously declared down is heard from again — a healed partition
	// or a restarted process. The mirror hook, feeding
	// NodeController.Revive. A later silence re-fires OnPeerDown.
	OnPeerUp func(id string)

	// HeartbeatInterval is the keepalive send period (default 250ms). A
	// peer silent for heartbeatTimeouts intervals is declared down.
	HeartbeatInterval time.Duration

	// creditWindow is how many frames a sender may have in flight per
	// channel before the consumer must hand window back; zero means
	// defaultCreditWindow. Only the package's tests narrow it.
	creditWindow int
}

const (
	// heartbeatTimeouts is the silence, in heartbeat intervals, after
	// which a previously-heard peer is declared down.
	heartbeatTimeouts = 8
	// writeTimeout bounds each frame write: a stalled TCP buffer fails
	// the send instead of wedging the producer forever.
	writeTimeout = 5 * time.Second
	// dialTimeout bounds each connection attempt and the hello read.
	dialTimeout = 2 * time.Second
	// maxBackoff caps the reconnect backoff (the first retry waits one
	// heartbeat interval, doubling per failure plus jitter drawn from the
	// fault registry's seeded PRNG).
	maxBackoff = 2 * time.Second
	// defaultCreditWindow is the per-channel send window in frames.
	defaultCreditWindow = 16
)

func (o Options) withDefaults() Options {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 250 * time.Millisecond
	}
	if o.creditWindow <= 0 {
		o.creditWindow = defaultCreditWindow
	}
	return o
}

// netMetrics is the package's obs surface; all fields tolerate a nil
// registry (every counter method is nil-safe).
type netMetrics struct {
	framesSent, framesRecv   *obs.Counter
	bytesSent, bytesRecv     *obs.Counter
	eosSent, eosRecv         *obs.Counter
	staleDrops, injectedDrop *obs.Counter
	connResets, reconnects   *obs.Counter
	hbTimeouts, creditStalls *obs.Counter
}

func newNetMetrics(r *obs.Registry) netMetrics {
	return netMetrics{
		framesSent:   r.Counter("net_frames_sent_total", "Data frames written to the wire."),
		framesRecv:   r.Counter("net_frames_recv_total", "Data frames accepted off the wire."),
		bytesSent:    r.Counter("net_bytes_sent_total", "Payload bytes written to the wire."),
		bytesRecv:    r.Counter("net_bytes_recv_total", "Payload bytes read off the wire."),
		eosSent:      r.Counter("net_eos_sent_total", "End-of-stream markers sent."),
		eosRecv:      r.Counter("net_eos_recv_total", "End-of-stream markers received."),
		staleDrops:   r.Counter("net_stale_frames_total", "Frames discarded for unregistered (stale) job attempts."),
		injectedDrop: r.Counter("net_frames_dropped_total", "Frames dropped by injected network faults."),
		connResets:   r.Counter("net_conn_resets_total", "Connections reset on error, fault, or protocol violation."),
		reconnects:   r.Counter("net_reconnects_total", "Successful dials after at least one failure."),
		hbTimeouts:   r.Counter("net_heartbeat_timeouts_total", "Peers declared down after heartbeat silence."),
		creditStalls: r.Counter("net_credit_stalls_total", "Sends that blocked waiting for consumer credit."),
	}
}

// peerConn is one live connection to a peer. Writes are serialized by
// wmu and bounded by a per-frame deadline.
type peerConn struct {
	id        string // remote peer id
	initiator string // who dialed: dedupe keeps min(initiator) per peer
	c         net.Conn
	wmu       sync.Mutex
	closed    atomic.Bool
}

func (pc *peerConn) close() {
	if pc.closed.CompareAndSwap(false, true) {
		pc.c.Close()
	}
}

// peerState is per-remote-peer bookkeeping that outlives any one
// connection: last-heard time for failure detection and the reconnect
// backoff schedule.
type peerState struct {
	lastSeen atomic.Int64 // unix nanos of last processed inbound message; 0 = never heard
	down     atomic.Bool  // declared dead (OnPeerDown fired)

	// dialMu serializes dials: a sender that finds no connection waits
	// for the dial in flight instead of failing beside it.
	dialMu sync.Mutex

	mu       sync.Mutex // guards the dial schedule
	failures int
	nextDial time.Time
}

// Peer is one node's endpoint in the cluster mesh: a listener, a
// pool of at-most-one connection per remote peer, heartbeating, failure
// detection, and the frame fabric implementing hyracks.Transport.
type Peer struct {
	opt Options
	m   netMetrics
	ln  net.Listener

	mu     sync.Mutex
	addrs  map[string]string // peer id → dial address
	conns  map[string]*peerConn
	peers  map[string]*peerState
	jobs   map[string]*jobState
	closed chan struct{}
	wg     sync.WaitGroup
}

// NewPeer binds the listen address and starts the accept and heartbeat
// loops. Close releases everything.
func NewPeer(opt Options) (*Peer, error) {
	opt = opt.withDefaults()
	if opt.ID == "" {
		return nil, fmt.Errorf("anet: peer needs an id")
	}
	ln, err := net.Listen("tcp", opt.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("anet: listen %s: %w", opt.ListenAddr, err)
	}
	p := &Peer{
		opt:    opt,
		m:      newNetMetrics(opt.Metrics),
		ln:     ln,
		addrs:  map[string]string{},
		conns:  map[string]*peerConn{},
		peers:  map[string]*peerState{},
		jobs:   map[string]*jobState{},
		closed: make(chan struct{}),
	}
	p.wg.Add(2)
	go p.acceptLoop()
	go p.heartbeatLoop()
	return p, nil
}

// AddPeer registers (or updates) a remote peer's dial address — used
// when listen ports are allocated dynamically and the member list is
// only complete after every process has bound.
func (p *Peer) AddPeer(id, addr string) {
	p.mu.Lock()
	p.addrs[id] = addr
	if p.peers[id] == nil {
		p.peers[id] = &peerState{}
	}
	p.mu.Unlock()
}

// peerIDs snapshots the known remote ids.
func (p *Peer) peerIDs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]string, 0, len(p.addrs))
	for id := range p.addrs {
		ids = append(ids, id)
	}
	return ids
}

// Addr returns the bound listen address (resolves port 0).
func (p *Peer) Addr() string { return p.ln.Addr().String() }

// Close stops the listener, closes every connection, and waits for the
// peer's goroutines.
func (p *Peer) Close() {
	p.mu.Lock()
	select {
	case <-p.closed:
		p.mu.Unlock()
		return
	default:
	}
	close(p.closed)
	conns := make([]*peerConn, 0, len(p.conns))
	for _, pc := range p.conns {
		conns = append(conns, pc)
	}
	jobs := make([]string, 0, len(p.jobs))
	for id := range p.jobs {
		jobs = append(jobs, id)
	}
	p.mu.Unlock()
	p.ln.Close()
	for _, pc := range conns {
		pc.close()
	}
	for _, id := range jobs {
		p.CloseJob(id)
	}
	p.wg.Wait()
}

func (p *Peer) isClosed() bool {
	select {
	case <-p.closed:
		return true
	default:
		return false
	}
}

// peer returns (lazily creating) the persistent state for a peer id.
func (p *Peer) peer(id string) *peerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	ps := p.peers[id]
	if ps == nil {
		ps = &peerState{}
		p.peers[id] = ps
	}
	return ps
}

// acceptLoop admits inbound connections: the first message must be a
// hello naming the remote peer, after which the connection joins the
// pool and its reader starts.
func (p *Peer) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			if p.isClosed() {
				return
			}
			continue
		}
		p.wg.Add(1)
		go func(c net.Conn) {
			defer p.wg.Done()
			c.SetReadDeadline(time.Now().Add(dialTimeout))
			typ, payload, _, err := readMsg(c, nil)
			if err != nil || typ != msgHello || len(payload) == 0 {
				c.Close()
				return
			}
			c.SetReadDeadline(time.Time{})
			from := string(payload)
			pc := &peerConn{id: from, initiator: from, c: c}
			if p.isClosed() {
				pc.close()
				return
			}
			// The dedupe in register only decides which connection this
			// side SENDS on. An inbound connection is always drained: the
			// remote may have committed writes to it before our verdict
			// (e.g. a reconnect racing the stale conn's EOF), and closing
			// it unread would drop those messages after the sender saw
			// the write succeed. One that is not pooled, now or later, is
			// closed by its remote, or here when the peer closes.
			p.register(pc)
			drained := make(chan struct{})
			defer close(drained)
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				select {
				case <-p.closed:
					pc.close()
				case <-drained:
				}
			}()
			p.readLoop(pc)
		}(c)
	}
}

// register adds a connection to the pool, enforcing at most one per
// peer. When both sides dialed simultaneously each end holds two
// connections; both deterministically keep the one initiated by the
// smaller id, so the mesh converges on a single duplex link per pair.
// A displaced connection this side dialed is closed (the remote reads it
// to EOF); a displaced inbound one is left to its reader, since the
// remote may still have writes on it in flight, and the remote closes it.
func (p *Peer) register(pc *peerConn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.isClosed() {
		return false
	}
	old := p.conns[pc.id]
	if old != nil {
		keepNew := pc.initiator < old.initiator
		if !keepNew {
			return false
		}
		if old.initiator == p.opt.ID {
			old.close()
		}
	}
	p.conns[pc.id] = pc
	return true
}

// unregister drops the connection if it is still the registered one.
func (p *Peer) unregister(pc *peerConn) {
	p.mu.Lock()
	if p.conns[pc.id] == pc {
		delete(p.conns, pc.id)
	}
	p.mu.Unlock()
	pc.close()
}

// connFor returns the pooled connection to a peer, dialing synchronously
// when none exists; a dial already in flight is waited for. Dial failures
// surface to the caller; background reconnection with backoff is the
// heartbeat loop's job.
func (p *Peer) connFor(id string) (*peerConn, error) {
	pooled := func() *peerConn {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.conns[id]
	}
	if pc := pooled(); pc != nil {
		return pc, nil
	}
	ps := p.peer(id)
	ps.dialMu.Lock()
	defer ps.dialMu.Unlock()
	if pc := pooled(); pc != nil {
		return pc, nil // the dial this one waited for connected
	}
	return p.dial(id, ps)
}

// dial connects to a configured peer, sends hello, and registers the
// connection. The caller holds ps.dialMu.
func (p *Peer) dial(id string, ps *peerState) (*peerConn, error) {
	p.mu.Lock()
	addr, ok := p.addrs[id]
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("anet: unknown peer %q", id)
	}
	if err := p.linkFault(id); err != nil {
		return nil, err
	}
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		ps.mu.Lock()
		ps.failures++
		ps.nextDial = time.Now().Add(p.redialBackoff(ps.failures))
		ps.mu.Unlock()
		return nil, fmt.Errorf("anet: dial %s (%s): %w", id, addr, err)
	}
	pc := &peerConn{id: id, initiator: p.opt.ID, c: c}
	if err := p.writeMsg(pc, msgHello, []byte(p.opt.ID)); err != nil {
		pc.close()
		return nil, err
	}
	if !p.register(pc) {
		// Lost the dedupe race: the peer's own dial won. Use theirs.
		pc.close()
		p.mu.Lock()
		winner := p.conns[id]
		p.mu.Unlock()
		if winner == nil {
			return nil, fmt.Errorf("anet: connection to %s lost in dedupe", id)
		}
		return winner, nil
	}
	ps.mu.Lock()
	if ps.failures > 0 {
		p.m.reconnects.Inc()
	}
	ps.failures = 0
	ps.nextDial = time.Time{}
	ps.mu.Unlock()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.readLoop(pc)
	}()
	return pc, nil
}

// redialBackoff is the wait before dial attempt n+1: exponential from
// one heartbeat interval, capped at maxBackoff, plus up to 25% jitter
// drawn from the fault registry's seeded PRNG (deterministic under
// ASTERIX_FAULT_SEED).
func (p *Peer) redialBackoff(failures int) time.Duration {
	d := p.opt.HeartbeatInterval
	for i := 1; i < failures && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	return d + time.Duration(fault.Int63n(int64(d)/4+1))
}

// linkFault probes the partition fault point for this process's
// outbound path.
func (p *Peer) linkFault(peerID string) error {
	if err := fault.HitTag(fault.PointNetPartition, p.opt.ID); err != nil {
		return fmt.Errorf("anet: partitioned from %s: %w", peerID, err)
	}
	return nil
}

// writeMsg frames and writes one message under the connection's write
// lock with a per-frame deadline. Any failure closes the connection:
// a stream that lost bytes can never carry another valid frame.
func (p *Peer) writeMsg(pc *peerConn, typ byte, payload []byte) error {
	wire := appendMsg(nil, typ, payload)
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	if pc.closed.Load() {
		return fmt.Errorf("anet: connection to %s is closed", pc.id)
	}
	// Injected mid-frame tear: write a prefix, then reset the
	// connection — the receiver observes a short/corrupt frame exactly
	// as if the kernel had split an interrupted send.
	if torn, fired := fault.TearTag(fault.PointNetConnReset, p.opt.ID, wire); fired {
		//lint:ignore lock-held,err-discard deliberate torn write under wmu: the prefix must not interleave with a whole frame, and its error is moot — the connection is reset either way
		pc.c.SetWriteDeadline(time.Now().Add(writeTimeout))
		//lint:ignore lock-held,err-discard deliberate torn write under wmu: the prefix must not interleave with a whole frame, and its error is moot — the connection is reset either way
		pc.c.Write(torn)
		p.m.connResets.Inc()
		p.unregister(pc)
		return fmt.Errorf("anet: connection to %s reset mid-frame: %w", pc.id, fault.ErrInjected)
	}
	//lint:ignore lock-held wmu exists to serialize frame writes — interleaved writes corrupt the stream; the deadline bounds the hold
	pc.c.SetWriteDeadline(time.Now().Add(writeTimeout))
	//lint:ignore lock-held wmu exists to serialize frame writes — interleaved writes corrupt the stream; the deadline bounds the hold
	if _, err := pc.c.Write(wire); err != nil {
		p.m.connResets.Inc()
		p.unregister(pc)
		return fmt.Errorf("anet: write to %s: %w", pc.id, err)
	}
	p.m.bytesSent.Add(int64(len(wire)))
	return nil
}

// send routes one message to a peer through the pool, applying the
// outbound partition fault.
func (p *Peer) send(peerID string, typ byte, payload []byte) error {
	if err := p.linkFault(peerID); err != nil {
		return err
	}
	pc, err := p.connFor(peerID)
	if err != nil {
		return err
	}
	return p.writeMsg(pc, typ, payload)
}

// readLoop drains one connection, dispatching messages until the stream
// breaks. Every processed message refreshes the peer's last-seen time.
// Payloads decode into a per-connection scratch buffer reused across
// messages: every dispatch below fully consumes its payload before the
// next read (data frames copy their bytes out during ADM decode).
func (p *Peer) readLoop(pc *peerConn) {
	ps := p.peer(pc.id)
	defer p.unregister(pc)
	var scratch []byte
	for {
		var typ byte
		var payload []byte
		var err error
		typ, payload, scratch, err = readMsg(pc.c, scratch)
		if err != nil {
			if !pc.closed.Load() && !p.isClosed() {
				p.m.connResets.Inc()
			}
			return
		}
		p.m.bytesRecv.Add(int64(headerLen + len(payload)))
		// Inbound half of an armed partition: drop everything without
		// refreshing last-seen, so the silent peer is eventually
		// declared down on both sides. The sender saw its write succeed,
		// so the loss is made loud here: every attempt registered on this
		// peer fails.
		if err := fault.HitTag(fault.PointNetPartition, p.opt.ID); err != nil {
			p.m.injectedDrop.Inc()
			p.failJobs(pc.id, err)
			continue
		}
		ps.lastSeen.Store(time.Now().UnixNano())
		if ps.down.CompareAndSwap(true, false) {
			// Back from the dead — a healed partition or a restarted
			// process. Re-arm failure detection and the dial schedule,
			// and give the control plane its up transition.
			ps.mu.Lock()
			ps.failures = 0
			ps.nextDial = time.Time{}
			ps.mu.Unlock()
			if p.opt.OnPeerUp != nil {
				p.opt.OnPeerUp(pc.id)
			}
		}
		switch typ {
		case msgHeartbeat:
			// last-seen refresh is the whole message.
		case msgData:
			p.deliverData(pc.id, payload)
		case msgEOS:
			p.deliverEOS(pc.id, payload)
		case msgCredit:
			p.deliverCredit(payload)
		case msgHello:
			// Redundant hello on an established connection: ignore.
		default:
			// Unknown type from a future version: tolerated, counted as
			// nothing — the CRC already proved it arrived intact.
		}
	}
}

// heartbeatLoop keeps every configured peer link warm (dialing with
// backoff when down) and declares peers dead after heartbeat silence.
func (p *Peer) heartbeatLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.opt.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-p.closed:
			return
		case <-t.C:
		}
		now := time.Now()
		for _, id := range p.peerIDs() {
			ps := p.peer(id)
			// Failure detection: silence from a peer we had heard. The
			// latch fires OnPeerDown once per down transition; readLoop
			// clears it when the peer is heard again, so a later silence
			// fires again. Deliberately no continue — a down peer keeps
			// being dialed and heartbeated below, otherwise two mutually
			// down-latched peers would never heal a partition (neither
			// side would ever dial the other again).
			if last := ps.lastSeen.Load(); last != 0 &&
				now.Sub(time.Unix(0, last)) > heartbeatTimeouts*p.opt.HeartbeatInterval {
				if ps.down.CompareAndSwap(false, true) {
					p.m.hbTimeouts.Inc()
					p.mu.Lock()
					pc := p.conns[id]
					p.mu.Unlock()
					if pc != nil {
						p.unregister(pc)
					}
					p.failJobs(id, fmt.Errorf("anet: peer %s silent for %d heartbeats", id, heartbeatTimeouts))
					if p.opt.OnPeerDown != nil {
						p.opt.OnPeerDown(id)
					}
				}
			}
			// Keepalive / reconnect. Respect the backoff schedule.
			p.mu.Lock()
			pc := p.conns[id]
			p.mu.Unlock()
			if pc == nil {
				ps.mu.Lock()
				wait := ps.nextDial.After(now)
				ps.mu.Unlock()
				if wait {
					continue
				}
				var err error
				if pc, err = p.connFor(id); err != nil {
					continue
				}
			}
			if p.linkFault(id) != nil {
				continue // partitioned: suppress outbound heartbeats
			}
			p.writeMsg(pc, msgHeartbeat, nil)
		}
	}
}
