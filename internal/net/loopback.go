package anet

import (
	"fmt"
	"time"

	"asterix/internal/hyracks"
)

// Loopback is a cluster whose node controllers each own a Peer on
// 127.0.0.1: RunWithRetry builds one plan per alive node and every frame
// that crosses nodes crosses a real socket, inside one process.
type Loopback struct {
	cluster *hyracks.Cluster
	peers   map[string]*Peer
}

// AttachLoopback gives every node controller of c its own Peer on
// 127.0.0.1, meshes them, and attaches them as c's transports (see
// hyracks.Cluster.AttachTransports). o holds what every peer shares —
// Metrics, HeartbeatInterval, the failure hooks; ID and ListenAddr are
// set per node. It returns once every pair of peers holds one
// connection, so a clean run never dials. Close detaches.
func AttachLoopback(c *hyracks.Cluster, o Options) (*Loopback, error) {
	l := &Loopback{cluster: c, peers: map[string]*Peer{}}
	ts := map[string]hyracks.Transport{}
	for _, n := range c.Nodes {
		po := o
		po.ID, po.ListenAddr = n.ID, "127.0.0.1:0"
		p, err := NewPeer(po)
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
				pa.AddPeer(b, pb.Addr())
			}
		}
	}
	if err := l.connect(); err != nil {
		l.Close()
		return nil, err
	}
	c.AttachTransports(ts)
	return l, nil
}

// connect dials every pair once, from the smaller id, and waits until
// both ends pool the same connection.
func (l *Loopback) connect() error {
	for a, pa := range l.peers {
		for b := range l.peers {
			if a < b {
				if _, err := pa.connFor(b); err != nil {
					return err
				}
			}
		}
	}
	for deadline := time.Now().Add(5 * time.Second); !l.meshed(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("anet: loopback mesh never converged")
		}
	}
	return nil
}

// meshed reports whether every pair of peers pools one shared connection.
func (l *Loopback) meshed() bool {
	for a, pa := range l.peers {
		for b, pb := range l.peers {
			if a == b {
				continue
			}
			pa.mu.Lock()
			ab := pa.conns[b]
			pa.mu.Unlock()
			pb.mu.Lock()
			ba := pb.conns[a]
			pb.mu.Unlock()
			if ab == nil || ba == nil || ab.initiator != ba.initiator {
				return false
			}
		}
	}
	return true
}

// Peer returns node id's peer, or nil.
func (l *Loopback) Peer(id string) *Peer { return l.peers[id] }

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
