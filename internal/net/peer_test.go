package anet

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asterix/internal/adm"
	"asterix/internal/fault"
	"asterix/internal/hyracks"
	"asterix/internal/obs"
)

// mesh is one cluster of n nodes with the loopback attached, as a
// production caller builds it: node ids nc0..nc(n-1), one peer each, and
// every peer's counters in one registry.
type mesh struct {
	cluster *hyracks.Cluster
	lb      *Loopback
	metrics *obs.Registry
}

// startMesh attaches a loopback with a per-channel credit window of
// window frames (zero means the default) to a fresh n-node cluster.
func startMesh(t *testing.T, n, window int) *mesh {
	t.Helper()
	c, err := hyracks.NewCluster(n, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	lb, err := attachLoopback(c, reg, window)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	return &mesh{cluster: c, lb: lb, metrics: reg}
}

func (m *mesh) peer(id string) *Peer { return m.lb.peers[id] }

// runPlaced runs the job build returns once across the mesh, as
// RunWithRetry places it: one plan per node, partition p of every
// operator on node p mod n. It returns the attempt's error.
func runPlaced(ctx context.Context, m *mesh, build func() *hyracks.Job) error {
	_, err := m.cluster.RunWithRetry(ctx, func(int) (*hyracks.Job, error) {
		return build(), nil
	}, hyracks.RetryPolicy{MaxAttempts: 1})
	return err
}

// genOp emits rows [base, base+count) on each partition; used as the
// distributed source.
func genOp(parallelism, rowsPerPart int) *hyracks.Operator {
	return hyracks.NewScan("gen", parallelism, func(tc *hyracks.TaskContext, emit func(hyracks.Tuple) error) error {
		base := tc.Partition * rowsPerPart
		for i := 0; i < rowsPerPart; i++ {
			if err := emit(hyracks.Tuple{adm.Int64(base + i), adm.String("row-payload")}); err != nil {
				return err
			}
		}
		return nil
	})
}

// remoteGen is a two-partition source whose partition 0 emits nothing:
// every row comes from partition 1, which the placement puts on nc1, so
// a consumer of parallelism 1 (on nc0) receives all of it over the wire.
func remoteGen(rows int) *hyracks.Operator {
	return hyracks.NewScan("gen", 2, func(tc *hyracks.TaskContext, emit func(hyracks.Tuple) error) error {
		if tc.Partition == 0 {
			return nil
		}
		for i := 0; i < rows; i++ {
			if err := emit(hyracks.Tuple{adm.Int64(i), adm.String("row-payload")}); err != nil {
				return err
			}
		}
		return nil
	})
}

// collectJob sends src's rows to a collector of parallelism 1, on nc0.
func collectJob(src *hyracks.Operator, coll *hyracks.Collector) *hyracks.Job {
	j := hyracks.NewJob()
	gen := j.Add(src)
	sink := j.Add(hyracks.NewSink("collect", 1, coll))
	j.MustConnect(gen, sink, 0, hyracks.MergeUnordered())
	return j
}

func counterValue(reg *obs.Registry, name string) int64 {
	snap := reg.Snapshot()
	if v, ok := snap[name]; ok {
		switch x := v.(type) {
		case int64:
			return x
		case float64:
			return int64(x)
		}
	}
	return 0
}

// TestTwoPeerExchange proves the transport end to end in miniature: two
// nodes, a producer spanning both, and a merge-concentrated collector on
// nc0 — frames cross the wire with credit backpressure, EOS closes the
// stream, and every row arrives exactly once.
func TestTwoPeerExchange(t *testing.T) {
	m := startMesh(t, 2, 0)
	const rows = 500
	coll := &hyracks.Collector{}
	if err := runPlaced(context.Background(), m, func() *hyracks.Job {
		return collectJob(genOp(2, rows), coll)
	}); err != nil {
		t.Fatal(err)
	}
	if got := coll.Len(); got != 2*rows {
		t.Fatalf("collector has %d rows, want %d", got, 2*rows)
	}
	// The wire must actually have carried nc1's half.
	if counterValue(m.metrics, "net_frames_sent_total") == 0 || counterValue(m.metrics, "net_frames_recv_total") == 0 {
		t.Fatal("no frame crossed the wire")
	}
}

// TestMeshOneConnectionPerDirection checks the mesh's shape: after
// AttachLoopback on n nodes every peer writes to exactly n-1 outbound
// connections and reads n-1 inbound ones, and clean runs keep those
// connections — nothing is dialed again and nothing is reset.
func TestMeshOneConnectionPerDirection(t *testing.T) {
	const n = 4
	m := startMesh(t, n, 0)
	outbound := map[*route]*peerConn{}
	for id, p := range m.lb.peers {
		p.mu.Lock()
		if len(p.routes) != n-1 {
			t.Errorf("%s has %d routes, want %d", id, len(p.routes), n-1)
		}
		for to, r := range p.routes {
			if r.pc == nil || r.pc.closed.Load() {
				t.Errorf("%s holds no live connection to %s", id, to)
			}
			outbound[r] = r.pc
		}
		p.mu.Unlock()
	}
	inbound := func() int {
		total := 0
		for _, p := range m.lb.peers {
			p.mu.Lock()
			total += len(p.inbound)
			p.mu.Unlock()
		}
		return total
	}
	for deadline := time.Now().Add(5 * time.Second); inbound() != n*(n-1); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d inbound connections, want %d", inbound(), n*(n-1))
		}
	}
	for round := 0; round < 3; round++ {
		var got atomic.Int64
		if err := runPlaced(context.Background(), m, func() *hyracks.Job {
			j := hyracks.NewJob()
			gen := j.Add(genOp(n, 500))
			sink := j.Add(hyracks.NewFuncSink("count", n, func(int, hyracks.Tuple) error {
				got.Add(1)
				return nil
			}))
			j.MustConnect(gen, sink, 0, hyracks.HashPartition(0))
			return j
		}); err != nil {
			t.Fatal(err)
		}
		if got.Load() != n*500 {
			t.Fatalf("round %d: %d rows, want %d", round, got.Load(), n*500)
		}
	}
	for r, pc := range outbound {
		r.mu.Lock()
		if r.pc != pc {
			t.Errorf("the connection to %s was replaced", pc.id)
		}
		r.mu.Unlock()
	}
	if inbound() != n*(n-1) {
		t.Errorf("%d inbound connections after the runs, want %d", inbound(), n*(n-1))
	}
	for _, name := range []string{"net_reconnects_total", "net_conn_resets_total"} {
		if v := counterValue(m.metrics, name); v != 0 {
			t.Errorf("%s = %d after clean runs", name, v)
		}
	}
}

// TestCreditBackpressure squeezes a big transfer through a 2-frame
// credit window: the sender must stall (observable in the counter) and
// still deliver every row exactly once. The consumer holds its first
// tuple until the sender has stalled, so the stall does not depend on
// scheduling: with more frames in the transfer than the consumer's
// channel buffer, the window and the frames in hand can hold, the
// sender must run out of credit while the consumer waits.
func TestCreditBackpressure(t *testing.T) {
	m := startMesh(t, 2, 2)
	const rows = 20 * 256 // 20 frames: past the 8-frame channel buffer plus the window
	stalled := func() bool {
		return counterValue(m.metrics, "net_credit_stalls_total") > 0
	}
	coll := &hyracks.Collector{}
	err := runPlaced(context.Background(), m, func() *hyracks.Job {
		j := hyracks.NewJob()
		gen := j.Add(remoteGen(rows))
		held := false
		hold := j.Add(hyracks.NewMap("hold", 1, func(tc *hyracks.TaskContext, tp hyracks.Tuple, emit func(hyracks.Tuple) error) error {
			if !held {
				held = true
				// Bounded: if the sender never stalls, the assertion
				// below reports it instead of the test hanging.
				for deadline := time.Now().Add(10 * time.Second); !stalled() && time.Now().Before(deadline) && tc.Ctx.Err() == nil; {
					time.Sleep(time.Millisecond)
				}
			}
			return emit(tp)
		}))
		sink := j.Add(hyracks.NewSink("collect", 1, coll))
		j.MustConnect(gen, hold, 0, hyracks.MergeUnordered())
		j.MustConnect(hold, sink, 0, hyracks.OneToOne())
		return j
	})
	if err != nil {
		t.Fatal(err)
	}
	if coll.Len() != rows {
		t.Fatalf("got %d rows, want %d", coll.Len(), rows)
	}
	if !stalled() {
		t.Fatalf("a 2-frame window moved %d rows past a waiting consumer without one credit stall", rows)
	}
}

// TestNetDropBreaksStream arms net.drop on the sending node: the dropped
// frame resets the connection and the attempt fails with a retriable
// LinkFailure — never a silent gap in the data.
func TestNetDropBreaksStream(t *testing.T) {
	m := startMesh(t, 2, 0)
	defer fault.Disarm()
	if err := fault.Arm("net.drop:error:after=2:tag=nc1"); err != nil {
		t.Fatal(err)
	}
	err := runPlaced(context.Background(), m, func() *hyracks.Job {
		return collectJob(remoteGen(5000), &hyracks.Collector{})
	})
	var lf *hyracks.LinkFailure
	if !errors.As(err, &lf) {
		t.Fatalf("sender should fail with LinkFailure, got %v", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("link failure should wrap the injected fault: %v", err)
	}
	if counterValue(m.metrics, "net_frames_dropped_total") == 0 {
		t.Fatal("drop not counted")
	}
	if counterValue(m.metrics, "net_conn_resets_total") == 0 {
		t.Fatal("drop must reset the connection")
	}
}

// TestConnResetMidFrame arms the torn-write fault: the receiver sees a
// truncated wire frame (caught by length/CRC framing), the connection
// resets, and the sender surfaces a retriable LinkFailure.
func TestConnResetMidFrame(t *testing.T) {
	m := startMesh(t, 2, 0)
	defer fault.Disarm()
	if err := fault.Arm("net.conn.reset:torn:after=1:tag=nc1"); err != nil {
		t.Fatal(err)
	}
	err := runPlaced(context.Background(), m, func() *hyracks.Job {
		return collectJob(remoteGen(5000), &hyracks.Collector{})
	})
	var lf *hyracks.LinkFailure
	if !errors.As(err, &lf) {
		t.Fatalf("sender should fail with LinkFailure, got %v", err)
	}
	if !strings.Contains(err.Error(), "reset mid-frame") {
		t.Fatalf("unexpected failure: %v", err)
	}
}

// TestStaleAttemptFramesDropped delivers frames for an unregistered
// job attempt: they must be counted stale and discarded, not crash or
// leak into a later attempt.
func TestStaleAttemptFramesDropped(t *testing.T) {
	m := startMesh(t, 2, 0)
	payload := encodeDataPayload(nil, edgeRef{jobID: "ghost#9", edge: 0}, 0, testFrame())
	if err := m.peer("nc1").send("nc0", msgData, payload); err != nil {
		t.Fatalf("send: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for counterValue(m.metrics, "net_stale_frames_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stale frame never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNoGoroutineLeakAfterClose runs a cross-peer job, closes the mesh,
// and checks the process goroutine count returns to baseline — the
// crash-matrix condition that transports never leak watchers, inject
// loops, or readers.
func TestNoGoroutineLeakAfterClose(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		m := startMesh(t, 3, 0)
		coll := &hyracks.Collector{}
		if err := runPlaced(context.Background(), m, func() *hyracks.Job {
			return collectJob(genOp(3, 200), coll)
		}); err != nil {
			t.Fatal(err)
		}
		if coll.Len() != 600 {
			t.Fatalf("got %d rows, want 600", coll.Len())
		}
		m.lb.Close()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCloseWithUnpooledInboundConn checks that Close returns while a
// remote keeps its connections open: one inbound connection whose reader
// is running, and a second one from the same sender whose reader waits
// for the first to end. Close must end both itself.
func TestCloseWithUnpooledInboundConn(t *testing.T) {
	reg := obs.NewRegistry()
	p, err := newPeer("nc1", reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	stale := appendMsg(nil, msgData, encodeDataPayload(nil, edgeRef{jobID: "ghost#1", edge: 0}, 0, testFrame()))
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", p.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close() // only after Close has returned
		if _, err := c.Write(append(appendMsg(nil, msgHello, []byte("nc0")), stale...)); err != nil {
			t.Fatal(err)
		}
	}
	// The first connection's reader counts its stale frame; the second
	// one's waits behind it.
	for deadline := time.Now().Add(5 * time.Second); counterValue(reg, "net_stale_frames_total") == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no inbound connection reached its read loop")
		}
	}
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("Close hangs on an inbound connection its remote keeps open\n%s", buf[:runtime.Stack(buf, true)])
	}
}

// TestInboundInOrderAcrossReconnects checks that a new connection from
// a sender is read only after the sender's previous one ended: a message
// written after a reconnect is never delivered ahead of one the old
// connection still carries.
func TestInboundInOrderAcrossReconnects(t *testing.T) {
	reg := obs.NewRegistry()
	p, err := newPeer("nc1", reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	dial := func(msgs ...[]byte) net.Conn {
		c, err := net.Dial("tcp", p.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		wire := appendMsg(nil, msgHello, []byte("nc0"))
		for _, m := range msgs {
			wire = append(wire, m...)
		}
		if _, err := c.Write(wire); err != nil {
			t.Fatal(err)
		}
		return c
	}
	old := dial()
	defer old.Close()
	stale := appendMsg(nil, msgData, encodeDataPayload(nil, edgeRef{jobID: "ghost#1", edge: 0}, 0, testFrame()))
	next := dial(stale)
	defer next.Close()
	time.Sleep(50 * time.Millisecond)
	if n := counterValue(reg, "net_stale_frames_total"); n != 0 {
		t.Fatalf("the new connection was read while the old one was open (%d frames)", n)
	}
	old.Close()
	for deadline := time.Now().Add(5 * time.Second); counterValue(reg, "net_stale_frames_total") == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the new connection was never read after the old one ended")
		}
	}
}

// TestWaitNetAttribution checks that wire stalls show up in the span
// wait profile under the net kind.
func TestWaitNetAttribution(t *testing.T) {
	m := startMesh(t, 2, 0)
	defer fault.Disarm()
	if err := fault.Arm("net.delay:delay=5ms:times=3:tag=nc1"); err != nil {
		t.Fatal(err)
	}
	span := obs.NewSpan("job")
	ctx := obs.ContextWithSpan(context.Background(), span)
	coll := &hyracks.Collector{}
	if err := runPlaced(ctx, m, func() *hyracks.Job {
		return collectJob(remoteGen(2000), coll)
	}); err != nil {
		t.Fatal(err)
	}
	if coll.Len() != 2000 {
		t.Fatalf("got %d rows, want 2000", coll.Len())
	}
	if w := span.WaitRollup()[obs.WaitNet]; w < 5*time.Millisecond {
		t.Fatalf("net wait %v not attributed (want ≥ 5ms)", w)
	}
}

// TestConcentratedMergeExact is the topology that can overrun a receive
// queue sized for one sender's window: an unordered merge concentrates
// every producer of a 3-node mesh onto ONE channel, and each remote
// producer node holds its own credit window for it. With a slow
// consumer keeping the queue under pressure, every row must still
// arrive exactly once — an overflow-turned-silent-drop would show up as
// a short count.
func TestConcentratedMergeExact(t *testing.T) {
	m := startMesh(t, 3, 4)
	const rowsPerPart = 4000
	var got atomic.Int64
	if err := runPlaced(context.Background(), m, func() *hyracks.Job {
		j := hyracks.NewJob()
		gen := j.Add(genOp(3, rowsPerPart))
		sink := j.Add(hyracks.NewFuncSink("collect", 1, func(_ int, t hyracks.Tuple) error {
			// Stall roughly once per frame so the receive queue stays
			// under pressure while both remote windows are in flight.
			if got.Add(1)%256 == 0 {
				time.Sleep(time.Millisecond)
			}
			return nil
		}))
		j.MustConnect(gen, sink, 0, hyracks.MergeUnordered())
		return j
	}); err != nil {
		t.Fatal(err)
	}
	if got.Load() != 3*rowsPerPart {
		t.Fatalf("concentrated merge delivered %d rows, want %d (frames lost to queue overflow?)",
			got.Load(), 3*rowsPerPart)
	}
}

// TestRecvOverflowPoisonsEdge drives a receive queue past its capacity
// by hand (a peer violating its credit window): the overflow must close
// the inbound connection the frames came on, fail the attempt with a
// retriable LinkFailure, and never fire the poisoned edge's EOS — a
// dropped frame must not end in a "complete" stream.
func TestRecvOverflowPoisonsEdge(t *testing.T) {
	p, err := newPeer("nc0", obs.NewRegistry(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	local, remote := net.Pipe()
	defer remote.Close()
	in := &peerConn{id: "nc1", c: local}
	failed := make(chan error, 1)
	eos := make(chan struct{}, 4)
	recv := make(chan []hyracks.Tuple) // never read: the consumer is wedged
	ref := edgeRef{jobID: "v#1", edge: 0}
	if _, err := p.OpenEdge(context.Background(), hyracks.EdgeDesc{
		JobID:     ref.jobID,
		Edge:      ref.edge,
		Owners:    []string{""},
		Recv:      []chan []hyracks.Tuple{recv},
		Producers: 1,
		Senders:   1,
		EOS:       func() { eos <- struct{}{} },
		Fail: func(err error) {
			select {
			case failed <- err:
			default:
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	// Queue capacity is w*senders + producers = 2 and the inject
	// goroutine can hold one more: a burst of 5 frames must overflow.
	payload := encodeDataPayload(nil, ref, 0, testFrame())
	for i := 0; i < 5; i++ {
		p.deliverData(in, payload)
	}
	select {
	case err := <-failed:
		var lf *hyracks.LinkFailure
		if !errors.As(err, &lf) {
			t.Fatalf("overflow should fail as LinkFailure, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("credit-window overrun never failed the attempt")
	}
	if !in.closed.Load() {
		t.Fatal("the overrun left the inbound connection open")
	}
	p.deliverEOS(in, appendEdgeRef(nil, ref))
	select {
	case <-eos:
		t.Fatal("EOS fired on an edge that dropped a frame")
	case <-time.After(100 * time.Millisecond):
	}
}

// TestPartitionDropFailsAttempt delivers a data frame to a partitioned
// peer: the sender's write succeeded, so the peer that swallows the frame
// must fail the attempts registered on it with a retriable LinkFailure —
// the swallowed frame would otherwise be a silent gap in the stream.
func TestPartitionDropFailsAttempt(t *testing.T) {
	m := startMesh(t, 2, 0)
	defer fault.Disarm()
	failed := make(chan error, 1)
	ref := edgeRef{jobID: "part#1", edge: 0}
	if _, err := m.peer("nc1").OpenEdge(context.Background(), hyracks.EdgeDesc{
		JobID:     ref.jobID,
		Edge:      ref.edge,
		Owners:    []string{""},
		Recv:      []chan []hyracks.Tuple{make(chan []hyracks.Tuple, 1)},
		Producers: 1,
		Senders:   1,
		EOS:       func() {},
		Fail: func(err error) {
			select {
			case failed <- err:
			default:
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := fault.Arm("net.partition:error:times=0:tag=nc1"); err != nil {
		t.Fatal(err)
	}
	if err := m.peer("nc0").send("nc1", msgData, encodeDataPayload(nil, ref, 0, testFrame())); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case err := <-failed:
		var lf *hyracks.LinkFailure
		if !errors.As(err, &lf) || lf.Peer != "nc0" {
			t.Fatalf("a swallowed frame should fail the attempt with LinkFailure{nc0}, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a frame swallowed by the partition never failed the attempt")
	}
}

// TestPartitionIsolatesPeer arms a lasting partition on one node of a
// three-node mesh (scoped by tag): an attempt whose frames cross nc2
// fails with a retriable LinkFailure, one that places nothing on nc2
// (two partitions: nc0 and nc1) stays exact, and once the partition
// heals the crossing attempt is exact on the same mesh.
func TestPartitionIsolatesPeer(t *testing.T) {
	m := startMesh(t, 3, 0)
	defer fault.Disarm()
	run := func(parts int) (int, error) {
		coll := &hyracks.Collector{}
		err := runPlaced(context.Background(), m, func() *hyracks.Job {
			return collectJob(genOp(parts, 300), coll)
		})
		return coll.Len(), err
	}
	if err := fault.Arm("net.partition:error:times=0:tag=nc2"); err != nil {
		t.Fatal(err)
	}
	var lf *hyracks.LinkFailure
	if _, err := run(3); !errors.As(err, &lf) {
		t.Fatalf("an attempt across partitioned nc2: %v, want a LinkFailure", err)
	}
	if got, err := run(2); err != nil || got != 600 {
		t.Fatalf("an attempt clear of nc2: %d rows, error %v; want 600 rows", got, err)
	}
	fault.Disarm()
	if got, err := run(3); err != nil || got != 900 {
		t.Fatalf("after the heal: %d rows, error %v; want 900 rows", got, err)
	}
}

// TestPooledExchangeSoakUnderDelay is the exchange aliasing soak: a
// 3-node mesh moves hash-partitioned rows over the wire while net.delay
// randomly stalls nc1's outbound frames. Every round must deliver every
// row exactly once with its payload still paired to its id.
func TestPooledExchangeSoakUnderDelay(t *testing.T) {
	m := startMesh(t, 3, 0)
	defer fault.Disarm()
	if err := fault.Arm("net.delay:delay=1ms:p=0.2:times=0:tag=nc1"); err != nil {
		t.Fatal(err)
	}
	const rows, parts, rounds = 6000, 6, 3
	for round := 0; round < rounds; round++ {
		var mu sync.Mutex
		seen := make([]int64, rows)
		dup := false
		err := runPlaced(context.Background(), m, func() *hyracks.Job {
			j := hyracks.NewJob()
			gen := j.Add(hyracks.NewScan("gen", parts, func(tc *hyracks.TaskContext, emit func(hyracks.Tuple) error) error {
				for i := tc.Partition; i < rows; i += tc.NumPartitions {
					if err := emit(hyracks.Tuple{adm.Int64(i), adm.Int64(i * 10)}); err != nil {
						return err
					}
				}
				return nil
			}))
			sink := j.Add(hyracks.NewFuncSink("verify", 3, func(_ int, tp hyracks.Tuple) error {
				id, _ := adm.AsInt(tp[0])
				v, _ := adm.AsInt(tp[1])
				if v != id*10 {
					return errors.New("aliasing corruption: payload no longer pairs with id")
				}
				mu.Lock()
				seen[id]++
				if seen[id] > 1 {
					dup = true
				}
				mu.Unlock()
				return nil
			}))
			j.MustConnect(gen, sink, 0, hyracks.HashPartition(0))
			return j
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		missing := 0
		for _, n := range seen {
			if n == 0 {
				missing++
			}
		}
		if missing > 0 || dup {
			t.Fatalf("round %d: %d rows missing, dup=%v", round, missing, dup)
		}
	}
}
