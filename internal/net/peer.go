package anet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"asterix/internal/fault"
	"asterix/internal/obs"
)

const (
	// writeTimeout bounds each frame write: a stalled TCP buffer fails
	// the send instead of wedging the producer forever.
	writeTimeout = 5 * time.Second
	// dialTimeout bounds each connection attempt and the hello read.
	dialTimeout = 2 * time.Second
	// defaultCreditWindow is the per-channel send window in frames.
	defaultCreditWindow = 16
)

// netMetrics is the package's obs surface; all fields tolerate a nil
// registry (every counter method is nil-safe).
type netMetrics struct {
	framesSent, framesRecv   *obs.Counter
	bytesSent, bytesRecv     *obs.Counter
	eosSent, eosRecv         *obs.Counter
	staleDrops, injectedDrop *obs.Counter
	connResets, reconnects   *obs.Counter
	creditStalls             *obs.Counter
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
		reconnects:   r.Counter("net_reconnects_total", "Outbound connections dialed again after a reset."),
		creditStalls: r.Counter("net_credit_stalls_total", "Sends that blocked waiting for consumer credit."),
	}
}

// peerConn is one connection between two peers. An outbound one is only
// written, under wmu with a per-frame deadline; an inbound one is only
// read, by its readLoop.
type peerConn struct {
	id     string // remote peer id
	c      net.Conn
	wmu    sync.Mutex
	closed atomic.Bool
}

func (pc *peerConn) close() {
	if pc.closed.CompareAndSwap(false, true) {
		pc.c.Close()
	}
}

// route is this peer's outbound path to one remote peer: the address it
// dials and the one connection it writes to.
type route struct {
	addr string
	// mu guards pc and serializes dials: senders that find no live
	// connection share one dial instead of racing a second.
	mu sync.Mutex
	pc *peerConn // nil until dialed; closed after a reset
}

// Peer is one node's endpoint in the mesh: a listener whose inbound
// connections are only read, one outbound connection per remote peer
// that is only written, and the frame fabric implementing
// hyracks.Transport.
//
// Because a connection carries messages one way, the writer never holds
// unread bytes: closing it sends FIN, never RST, and the receiver reads
// every frame the writer wrote before the close.
type Peer struct {
	id     string
	window int // per-channel credit window in frames
	m      netMetrics
	ln     net.Listener

	mu      sync.Mutex
	routes  map[string]*route
	inbound map[*peerConn]bool
	readers map[string]chan struct{} // sender id → closed when its latest reader ends
	jobs    map[string]*jobState
	closed  chan struct{}
	wg      sync.WaitGroup
}

// newPeer binds a listener on 127.0.0.1 and starts accepting inbound
// connections. window is the per-channel credit window (zero means
// defaultCreditWindow); Close releases everything.
func newPeer(id string, metrics *obs.Registry, window int) (*Peer, error) {
	if window <= 0 {
		window = defaultCreditWindow
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("anet: listen: %w", err)
	}
	p := &Peer{
		id:      id,
		window:  window,
		m:       newNetMetrics(metrics),
		ln:      ln,
		routes:  map[string]*route{},
		inbound: map[*peerConn]bool{},
		readers: map[string]chan struct{}{},
		jobs:    map[string]*jobState{},
		closed:  make(chan struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

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
	conns := make([]*peerConn, 0, len(p.routes)+len(p.inbound))
	for _, r := range p.routes {
		r.mu.Lock()
		if r.pc != nil {
			conns = append(conns, r.pc)
		}
		r.mu.Unlock()
	}
	for pc := range p.inbound {
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

// acceptLoop admits inbound connections: the first message must be a
// hello naming the sender, after which the connection is read until it
// ends. A sender dials again only after closing its last connection, and
// hellos are read here in accept order, so a new connection from it is
// read once the old one is read to its end: the sender's messages are
// delivered in the order it wrote them, across reconnects too.
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
		c.SetReadDeadline(time.Now().Add(dialTimeout))
		typ, payload, _, err := readMsg(c, nil)
		if err != nil || typ != msgHello || len(payload) == 0 {
			c.Close()
			continue
		}
		c.SetReadDeadline(time.Time{})
		pc := &peerConn{id: string(payload), c: c}
		done := make(chan struct{})
		p.mu.Lock()
		if p.isClosed() {
			p.mu.Unlock()
			pc.close()
			return
		}
		prev := p.readers[pc.id]
		p.readers[pc.id] = done
		p.inbound[pc] = true
		p.mu.Unlock()
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer func() {
				p.mu.Lock()
				delete(p.inbound, pc)
				p.mu.Unlock()
				pc.close()
				close(done)
			}()
			if prev != nil {
				select {
				case <-prev:
				case <-p.closed:
					return
				}
			}
			p.readLoop(pc)
		}()
	}
}

// connFor returns the outbound connection to a peer, dialing when there
// is none or the last one was reset.
func (p *Peer) connFor(id string) (*peerConn, error) {
	p.mu.Lock()
	r := p.routes[id]
	p.mu.Unlock()
	if r == nil {
		return nil, fmt.Errorf("anet: unknown peer %q", id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pc != nil && !r.pc.closed.Load() {
		return r.pc, nil
	}
	//lint:ignore lock-held r.mu exists to serialize dials to one peer — a sender that finds no connection waits for this dial instead of dialing a second; dialTimeout bounds the hold
	c, err := net.DialTimeout("tcp", r.addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("anet: dial %s (%s): %w", id, r.addr, err)
	}
	pc := &peerConn{id: id, c: c}
	if err := p.writeMsg(pc, msgHello, []byte(p.id)); err != nil {
		return nil, err
	}
	if r.pc != nil {
		p.m.reconnects.Inc()
	}
	r.pc = pc
	if p.isClosed() {
		// Close may have collected the routes before this dial landed.
		pc.close()
		return nil, fmt.Errorf("anet: peer %s is closed", p.id)
	}
	return pc, nil
}

// reset closes an outbound connection after a failure: the next send to
// its peer dials again.
func (p *Peer) reset(pc *peerConn) {
	p.m.connResets.Inc()
	pc.close()
}

// resetRoute resets the outbound connection to a peer, if one is live.
func (p *Peer) resetRoute(id string) {
	p.mu.Lock()
	r := p.routes[id]
	p.mu.Unlock()
	if r == nil {
		return
	}
	r.mu.Lock()
	pc := r.pc
	r.mu.Unlock()
	if pc != nil && !pc.closed.Load() {
		p.reset(pc)
	}
}

// writeMsg frames and writes one message under the connection's write
// lock with a per-frame deadline. Any failure resets the connection: a
// stream that lost bytes can never carry another valid frame.
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
	if torn, fired := fault.TearTag(fault.PointNetConnReset, p.id, wire); fired {
		//lint:ignore lock-held,err-discard deliberate torn write under wmu: the prefix must not interleave with a whole frame, and its error is moot — the connection is reset either way
		pc.c.SetWriteDeadline(time.Now().Add(writeTimeout))
		//lint:ignore lock-held,err-discard deliberate torn write under wmu: the prefix must not interleave with a whole frame, and its error is moot — the connection is reset either way
		pc.c.Write(torn)
		p.reset(pc)
		return fmt.Errorf("anet: connection to %s reset mid-frame: %w", pc.id, fault.ErrInjected)
	}
	//lint:ignore lock-held wmu exists to serialize frame writes — interleaved writes corrupt the stream; the deadline bounds the hold
	pc.c.SetWriteDeadline(time.Now().Add(writeTimeout))
	//lint:ignore lock-held wmu exists to serialize frame writes — interleaved writes corrupt the stream; the deadline bounds the hold
	if _, err := pc.c.Write(wire); err != nil {
		p.reset(pc)
		return fmt.Errorf("anet: write to %s: %w", pc.id, err)
	}
	p.m.bytesSent.Add(int64(len(wire)))
	return nil
}

// send writes one message to a peer's outbound connection, applying the
// outbound half of the partition fault.
func (p *Peer) send(peerID string, typ byte, payload []byte) error {
	if err := fault.HitTag(fault.PointNetPartition, p.id); err != nil {
		return fmt.Errorf("anet: partitioned from %s: %w", peerID, err)
	}
	pc, err := p.connFor(peerID)
	if err != nil {
		return err
	}
	return p.writeMsg(pc, typ, payload)
}

// readLoop reads one inbound connection, dispatching messages until the
// stream ends or breaks. A clean end of stream is the writer's close; any
// other error is a reset. Payloads decode into a per-connection scratch
// buffer reused across messages: every dispatch below fully consumes its
// payload before the next read (data frames copy their bytes out during
// ADM decode).
func (p *Peer) readLoop(pc *peerConn) {
	var scratch []byte
	for {
		var typ byte
		var payload []byte
		var err error
		typ, payload, scratch, err = readMsg(pc.c, scratch)
		if err != nil {
			if !errors.Is(err, io.EOF) && !pc.closed.Load() && !p.isClosed() {
				p.m.connResets.Inc()
			}
			return
		}
		p.m.bytesRecv.Add(int64(headerLen + len(payload)))
		// Inbound half of an armed partition: the message is swallowed.
		// The sender saw its write succeed, so the loss is made loud
		// here: every attempt registered on this peer fails.
		if err := fault.HitTag(fault.PointNetPartition, p.id); err != nil {
			p.m.injectedDrop.Inc()
			p.failJobs(pc.id, err)
			continue
		}
		switch typ {
		case msgData:
			p.deliverData(pc, payload)
		case msgEOS:
			p.deliverEOS(pc, payload)
		case msgCredit:
			p.deliverCredit(payload)
		default:
			// A redundant hello, or an unknown type from a future
			// version: tolerated — the CRC already proved it arrived
			// intact.
		}
	}
}
