package anet

import (
	"asterix/internal/hyracks"
	"asterix/internal/obs"
)

// Loopback is a cluster whose node controllers each own a Peer on
// 127.0.0.1: RunWithRetry builds one plan per alive node and every frame
// that crosses nodes crosses a real socket, inside one process.
type Loopback struct {
	cluster *hyracks.Cluster
	peers   map[string]*Peer
}

// AttachLoopback gives every node controller of c its own Peer on
// 127.0.0.1 and attaches them as c's transports (see
// hyracks.Cluster.AttachTransports). Every peer dials one connection to
// every other peer before it returns, so a clean run never dials; the
// net_* counters of all peers go to metrics (nil keeps none). Close
// detaches.
func AttachLoopback(c *hyracks.Cluster, metrics *obs.Registry) (*Loopback, error) {
	return attachLoopback(c, metrics, 0)
}

// attachLoopback is AttachLoopback with a per-channel credit window of
// window frames (zero means defaultCreditWindow).
func attachLoopback(c *hyracks.Cluster, metrics *obs.Registry, window int) (*Loopback, error) {
	l := &Loopback{cluster: c, peers: map[string]*Peer{}}
	ts := map[string]hyracks.Transport{}
	for _, n := range c.Nodes {
		p, err := newPeer(n.ID, metrics, window)
		if err != nil {
			l.Close()
			return nil, err
		}
		l.peers[n.ID] = p
		ts[n.ID] = p
	}
	for a, pa := range l.peers {
		for b, pb := range l.peers {
			if a != b {
				pa.routes[b] = &route{addr: pb.ln.Addr().String()}
			}
		}
	}
	for a, pa := range l.peers {
		for b := range l.peers {
			if a == b {
				continue
			}
			if _, err := pa.connFor(b); err != nil {
				l.Close()
				return nil, err
			}
		}
	}
	c.AttachTransports(ts)
	return l, nil
}

// Kill takes node id down: its controller dies, so its in-flight tasks
// fail and later attempts place nothing on it, and its peer closes, so
// every link to it breaks.
func (l *Loopback) Kill(id string) {
	if nc := l.cluster.NodeByID(id); nc != nil {
		nc.Kill()
	}
	if p := l.peers[id]; p != nil {
		p.Close()
	}
}

// Close detaches the transports — later runs take the channel fabric —
// and closes every peer.
func (l *Loopback) Close() {
	l.cluster.AttachTransports(nil)
	for _, p := range l.peers {
		p.Close()
	}
}
