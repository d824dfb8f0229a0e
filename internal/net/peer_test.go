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

// simNode is one simulated node process: a peer endpoint plus its own
// cluster view (every process holds controllers for every member).
type simNode struct {
	id      string
	peer    *Peer
	cluster *hyracks.Cluster
	metrics *obs.Registry
}

// startMesh boots one Peer per id on loopback with dynamic ports, wires
// the full address book, and gives each node a named cluster whose
// remote controllers are killed by that node's failure detector.
func startMesh(t *testing.T, ids []string, tune func(id string, o *Options)) map[string]*simNode {
	t.Helper()
	nodes := map[string]*simNode{}
	for _, id := range ids {
		cl, err := hyracks.NewNamedCluster(ids, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		o := Options{
			ID:                id,
			ListenAddr:        "127.0.0.1:0",
			Metrics:           reg,
			HeartbeatInterval: 25 * time.Millisecond,
			OnPeerDown: func(down string) {
				if nc := cl.NodeByID(down); nc != nil {
					nc.Kill()
				}
			},
			OnPeerUp: func(up string) {
				if nc := cl.NodeByID(up); nc != nil {
					nc.Revive()
				}
			},
		}
		if tune != nil {
			tune(id, &o)
		}
		p, err := NewPeer(o)
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = &simNode{id: id, peer: p, cluster: cl, metrics: reg}
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if a.id != b.id {
				a.peer.AddPeer(b.id, b.peer.Addr())
			}
		}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.peer.Close()
		}
	})
	return nodes
}

// runPlaced executes the same job spec on every node of the mesh with a
// shared START barrier, returning the per-node Run errors.
func runPlaced(ctx context.Context, nodes map[string]*simNode, jobID string,
	build func(n *simNode) *hyracks.Job, assign func(op string, part int) string) map[string]error {
	// A failed node cancels the others, as Cluster.RunWithRetry does over
	// a loopback: a failed producer withholds its wire EOS (it would
	// legitimize a truncated stream), so its consumers block until told
	// the attempt is dead.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := make(chan struct{})
	var readyWG sync.WaitGroup
	readyWG.Add(len(nodes))
	go func() {
		readyWG.Wait()
		close(start)
	}()
	errs := map[string]error{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, n := range nodes {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := build(n)
			j.SetPlacement(&hyracks.Placement{
				JobID:     jobID,
				Node:      n.id,
				Assign:    assign,
				Transport: n.peer,
				Ready:     readyWG.Done,
				Start:     start,
			})
			err := n.cluster.Run(ctx, j)
			mu.Lock()
			errs[n.id] = err
			mu.Unlock()
			if err != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	return errs
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

// TestTwoPeerExchange proves the tentpole end to end in miniature: two
// node processes, a hash-partitioned producer spanning both, and a
// merge-concentrated collector on one — frames cross the wire with
// credit backpressure, EOS closes the stream, and every row arrives
// exactly once.
func TestTwoPeerExchange(t *testing.T) {
	nodes := startMesh(t, []string{"na", "nb"}, nil)
	const rows = 500
	var collMu sync.Mutex
	colls := map[string]*hyracks.Collector{}
	errs := runPlaced(context.Background(), nodes, "x1#1", func(n *simNode) *hyracks.Job {
		j := hyracks.NewJob()
		gen := j.Add(genOp(2, rows))
		coll := &hyracks.Collector{}
		collMu.Lock()
		colls[n.id] = coll
		collMu.Unlock()
		sink := j.Add(hyracks.NewSink("collect", 1, coll))
		j.MustConnect(gen, sink, 0, hyracks.MergeUnordered())
		return j
	}, func(op string, part int) string {
		if op == "collect" {
			return "na"
		}
		return []string{"na", "nb"}[part%2]
	})
	for id, err := range errs {
		if err != nil {
			t.Fatalf("node %s: %v", id, err)
		}
	}
	got := colls["na"].Len()
	if got != 2*rows {
		t.Fatalf("collector on na has %d rows, want %d", got, 2*rows)
	}
	if colls["nb"].Len() != 0 {
		t.Fatalf("collector on nb has %d rows, want 0", colls["nb"].Len())
	}
	// The wire must actually have carried nb's half.
	sent := counterValue(nodes["nb"].metrics, "net_frames_sent_total")
	if sent == 0 {
		t.Fatal("nb sent no frames over the wire")
	}
	recv := counterValue(nodes["na"].metrics, "net_frames_recv_total")
	if recv == 0 {
		t.Fatal("na received no frames over the wire")
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
	nodes := startMesh(t, []string{"na", "nb"}, func(id string, o *Options) {
		o.creditWindow = 2
	})
	const rows = 20 * 256 // 20 frames: past the 8-frame channel buffer plus the window
	stalled := func() bool {
		return counterValue(nodes["nb"].metrics, "net_credit_stalls_total") > 0
	}
	coll := &hyracks.Collector{}
	errs := runPlaced(context.Background(), nodes, "bp#1", func(n *simNode) *hyracks.Job {
		j := hyracks.NewJob()
		gen := j.Add(genOp(1, rows))
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
	}, func(op string, part int) string {
		if op == "gen" {
			return "nb"
		}
		return "na"
	})
	for id, err := range errs {
		if err != nil {
			t.Fatalf("node %s: %v", id, err)
		}
	}
	if coll.Len() != rows {
		t.Fatalf("got %d rows, want %d", coll.Len(), rows)
	}
	if !stalled() {
		t.Fatalf("a 2-frame window moved %d rows past a waiting consumer without one credit stall", rows)
	}
}

// TestHeartbeatFailureDetection kills one node process mid-run; the
// survivor's detector must declare it dead, kill its controller, and
// fail the run with a retriable NodeFailure.
func TestHeartbeatFailureDetection(t *testing.T) {
	nodes := startMesh(t, []string{"na", "nb"}, nil)
	// Warm the link so nb has been heard from.
	if err := nodes["na"].peer.send("nb", msgHeartbeat, nil); err != nil {
		t.Fatalf("warm-up send: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for nodes["na"].peer.peer("nb").lastSeen.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("na never heard from nb")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Hard-kill nb's process.
	nodes["nb"].peer.Close()
	for !nodes["na"].cluster.NodeByID("nb").Dead() {
		if time.Now().After(deadline) {
			t.Fatal("na never declared nb dead after heartbeat silence")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if counterValue(nodes["na"].metrics, "net_heartbeat_timeouts_total") == 0 {
		t.Fatal("heartbeat timeout not counted")
	}
	// A run placed across the dead node must fail with NodeFailure.
	j := hyracks.NewJob()
	gen := j.Add(genOp(2, 10))
	coll := &hyracks.Collector{}
	sink := j.Add(hyracks.NewSink("collect", 1, coll))
	j.MustConnect(gen, sink, 0, hyracks.MergeUnordered())
	start := make(chan struct{})
	close(start)
	j.SetPlacement(&hyracks.Placement{
		JobID: "hb#1", Node: "na", Transport: nodes["na"].peer, Ready: func() {}, Start: start,
		Assign: func(op string, part int) string {
			if op == "gen" && part == 1 {
				return "nb"
			}
			return "na"
		},
	})
	err := nodes["na"].cluster.Run(context.Background(), j)
	var nf *hyracks.NodeFailure
	if !errors.As(err, &nf) || nf.Node != "nb" {
		t.Fatalf("want NodeFailure{nb}, got %v", err)
	}
}

// TestNetDropBreaksStream arms net.drop on the sending process: the
// dropped frame resets the connection and the sending task fails with a
// retriable LinkFailure — never a silent gap in the data.
func TestNetDropBreaksStream(t *testing.T) {
	defer fault.Disarm()
	if err := fault.Arm("net.drop:error:after=2:tag=nb"); err != nil {
		t.Fatal(err)
	}
	nodes := startMesh(t, []string{"na", "nb"}, nil)
	coll := &hyracks.Collector{}
	errs := runPlaced(context.Background(), nodes, "drop#1", func(n *simNode) *hyracks.Job {
		j := hyracks.NewJob()
		gen := j.Add(genOp(1, 5000))
		sink := j.Add(hyracks.NewSink("collect", 1, coll))
		j.MustConnect(gen, sink, 0, hyracks.MergeUnordered())
		return j
	}, func(op string, part int) string {
		if op == "gen" {
			return "nb"
		}
		return "na"
	})
	var lf *hyracks.LinkFailure
	if !errors.As(errs["nb"], &lf) {
		t.Fatalf("sender should fail with LinkFailure, got %v", errs["nb"])
	}
	if !errors.Is(errs["nb"], fault.ErrInjected) {
		t.Fatalf("link failure should wrap the injected fault: %v", errs["nb"])
	}
	if counterValue(nodes["nb"].metrics, "net_frames_dropped_total") == 0 {
		t.Fatal("drop not counted")
	}
	if counterValue(nodes["nb"].metrics, "net_conn_resets_total") == 0 {
		t.Fatal("drop must reset the connection")
	}
}

// TestConnResetMidFrame arms the torn-write fault: the receiver sees a
// truncated wire frame (caught by length/CRC framing), the connection
// resets, and the sender surfaces a retriable LinkFailure.
func TestConnResetMidFrame(t *testing.T) {
	defer fault.Disarm()
	if err := fault.Arm("net.conn.reset:torn:after=1:tag=nb"); err != nil {
		t.Fatal(err)
	}
	nodes := startMesh(t, []string{"na", "nb"}, nil)
	coll := &hyracks.Collector{}
	errs := runPlaced(context.Background(), nodes, "torn#1", func(n *simNode) *hyracks.Job {
		j := hyracks.NewJob()
		gen := j.Add(genOp(1, 5000))
		sink := j.Add(hyracks.NewSink("collect", 1, coll))
		j.MustConnect(gen, sink, 0, hyracks.MergeUnordered())
		return j
	}, func(op string, part int) string {
		if op == "gen" {
			return "nb"
		}
		return "na"
	})
	var lf *hyracks.LinkFailure
	if !errors.As(errs["nb"], &lf) {
		t.Fatalf("sender should fail with LinkFailure, got %v", errs["nb"])
	}
	if !strings.Contains(errs["nb"].Error(), "reset mid-frame") {
		t.Fatalf("unexpected failure: %v", errs["nb"])
	}
}

// TestStaleAttemptFramesDropped delivers frames for an unregistered
// job attempt: they must be counted stale and discarded, not crash or
// leak into a later attempt.
func TestStaleAttemptFramesDropped(t *testing.T) {
	nodes := startMesh(t, []string{"na", "nb"}, nil)
	payload := encodeDataPayload(nil, edgeRef{jobID: "ghost#9", edge: 0}, 0, testFrame())
	if err := nodes["nb"].peer.send("na", msgData, payload); err != nil {
		t.Fatalf("send: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for counterValue(nodes["na"].metrics, "net_stale_frames_total") == 0 {
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
		nodes := startMesh(t, []string{"na", "nb", "nc"}, nil)
		coll := &hyracks.Collector{}
		errs := runPlaced(context.Background(), nodes, "leak#1", func(n *simNode) *hyracks.Job {
			j := hyracks.NewJob()
			gen := j.Add(genOp(3, 200))
			sink := j.Add(hyracks.NewSink("collect", 1, coll))
			j.MustConnect(gen, sink, 0, hyracks.MergeUnordered())
			return j
		}, func(op string, part int) string {
			if op == "collect" {
				return "na"
			}
			return []string{"na", "nb", "nc"}[part%3]
		})
		for id, err := range errs {
			if err != nil {
				t.Fatalf("node %s: %v", id, err)
			}
		}
		if coll.Len() != 600 {
			t.Fatalf("got %d rows, want 600", coll.Len())
		}
		for _, n := range nodes {
			n.peer.Close()
		}
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

// TestCloseWithUnpooledInboundConn forces the interleaving that used to
// hang Close: two inbound connections name the same remote peer, so the
// second loses register's dedupe and is in no pool, and the remote end
// keeps both open. Close must end the second one's reader itself.
func TestCloseWithUnpooledInboundConn(t *testing.T) {
	p, err := NewPeer(Options{ID: "nb", ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close() // only after Close has returned
		if _, err := c.Write(appendMsg(nil, msgHello, []byte("na"))); err != nil {
			t.Fatal(err)
		}
		// The hello is processed (and the connection registered or turned
		// away) before the next one is sent.
		if _, err := c.Write(appendMsg(nil, msgHeartbeat, nil)); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); p.peer("na").lastSeen.Load() == 0; {
			if time.Now().After(deadline) {
				t.Fatal("inbound connection never reached its read loop")
			}
			time.Sleep(time.Millisecond)
		}
		p.peer("na").lastSeen.Store(0)
	}
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("Close hangs on a connection that lost the dedupe\n%s", buf[:runtime.Stack(buf, true)])
	}
}

// TestWaitNetAttribution checks that wire stalls show up in the span
// wait profile under the net kind.
func TestWaitNetAttribution(t *testing.T) {
	defer fault.Disarm()
	if err := fault.Arm("net.delay:delay=5ms:times=3:tag=nb"); err != nil {
		t.Fatal(err)
	}
	nodes := startMesh(t, []string{"na", "nb"}, nil)
	span := obs.NewSpan("job")
	ctx := obs.ContextWithSpan(context.Background(), span)
	coll := &hyracks.Collector{}
	errs := runPlaced(ctx, nodes, "wait#1", func(n *simNode) *hyracks.Job {
		j := hyracks.NewJob()
		gen := j.Add(genOp(1, 2000))
		sink := j.Add(hyracks.NewSink("collect", 1, coll))
		j.MustConnect(gen, sink, 0, hyracks.MergeUnordered())
		return j
	}, func(op string, part int) string {
		if op == "gen" {
			return "nb"
		}
		return "na"
	})
	for id, err := range errs {
		if err != nil {
			t.Fatalf("node %s: %v", id, err)
		}
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
// producer process holds its own credit window for it. With a slow
// consumer keeping the queue under pressure, every row must still
// arrive exactly once — an overflow-turned-silent-drop would show up as
// a short count.
func TestConcentratedMergeExact(t *testing.T) {
	nodes := startMesh(t, []string{"na", "nb", "nc"}, func(id string, o *Options) {
		o.creditWindow = 4
	})
	const rowsPerPart = 4000
	var got atomic.Int64
	errs := runPlaced(context.Background(), nodes, "conc#1", func(n *simNode) *hyracks.Job {
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
	}, func(op string, part int) string {
		if op == "collect" {
			return "na"
		}
		return []string{"na", "nb", "nc"}[part%3]
	})
	for id, err := range errs {
		if err != nil {
			t.Fatalf("node %s: %v", id, err)
		}
	}
	if got.Load() != 3*rowsPerPart {
		t.Fatalf("concentrated merge delivered %d rows, want %d (frames lost to queue overflow?)",
			got.Load(), 3*rowsPerPart)
	}
}

// TestRecvOverflowPoisonsEdge drives a receive queue past its capacity
// by hand (a peer violating its credit window): the overflow must fail
// the attempt with a retriable LinkFailure, and the poisoned edge must
// never fire EOS — a dropped frame must not end in a "complete" stream.
func TestRecvOverflowPoisonsEdge(t *testing.T) {
	p, err := NewPeer(Options{ID: "na", ListenAddr: "127.0.0.1:0",
		Metrics: obs.NewRegistry(), creditWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
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
		p.deliverData("nb", payload)
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
	p.deliverEOS("nb", appendEdgeRef(nil, ref))
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
	defer fault.Disarm()
	nodes := startMesh(t, []string{"na", "nb"}, nil)
	failed := make(chan error, 1)
	ref := edgeRef{jobID: "part#1", edge: 0}
	if _, err := nodes["nb"].peer.OpenEdge(context.Background(), hyracks.EdgeDesc{
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
	if err := fault.Arm("net.partition:error:times=0:tag=nb"); err != nil {
		t.Fatal(err)
	}
	if err := nodes["na"].peer.send("nb", msgData, encodeDataPayload(nil, ref, 0, testFrame())); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case err := <-failed:
		var lf *hyracks.LinkFailure
		if !errors.As(err, &lf) || lf.Peer != "na" {
			t.Fatalf("a swallowed frame should fail the attempt with LinkFailure{na}, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a frame swallowed by the partition never failed the attempt")
	}
}

// TestPeerDownRevivesOnHeal latches a peer down behind a partition,
// heals it, and requires the detector to hear the peer again (revive)
// and to fire again on a second silence — failure detection must not be
// one-shot per process lifetime.
func TestPeerDownRevivesOnHeal(t *testing.T) {
	defer fault.Disarm()
	var ups, downs atomic.Int32
	nodes := startMesh(t, []string{"na", "nb"}, func(id string, o *Options) {
		if id != "na" {
			return
		}
		innerUp, innerDown := o.OnPeerUp, o.OnPeerDown
		o.OnPeerUp = func(peer string) { ups.Add(1); innerUp(peer) }
		o.OnPeerDown = func(peer string) { downs.Add(1); innerDown(peer) }
	})
	deadline := time.Now().Add(10 * time.Second)
	warm := func(a, b string) bool { return nodes[a].peer.peer(b).lastSeen.Load() != 0 }
	for !(warm("na", "nb") && warm("nb", "na")) {
		if time.Now().After(deadline) {
			t.Fatal("mesh never warmed up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	wait := func(cond func() bool, what string) {
		t.Helper()
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	nb := func() *hyracks.NodeController { return nodes["na"].cluster.NodeByID("nb") }

	if err := fault.Arm("net.partition:error:times=0:tag=nb"); err != nil {
		t.Fatal(err)
	}
	wait(func() bool { return nb().Dead() }, "first down transition")

	// Heal: both sides are down-latched, so convergence needs the
	// detector to keep dialing and heartbeating a down peer.
	fault.Disarm()
	wait(func() bool { return !nb().Dead() && ups.Load() >= 1 }, "revive after heal")

	// A second silence must fire detection again.
	if err := fault.Arm("net.partition:error:times=0:tag=nb"); err != nil {
		t.Fatal(err)
	}
	wait(func() bool { return nb().Dead() && downs.Load() >= 2 }, "second down transition")
}

// TestPartitionIsolatesPeer arms a lasting partition on one node of a
// three-node mesh (scoped by tag): both sides must eventually declare
// each other dead while the unpartitioned pair stays healthy.
func TestPartitionIsolatesPeer(t *testing.T) {
	defer fault.Disarm()
	nodes := startMesh(t, []string{"na", "nb", "nc"}, nil)
	// Let the mesh warm up so everyone has heard everyone.
	deadline := time.Now().Add(5 * time.Second)
	warm := func(a, b string) bool { return nodes[a].peer.peer(b).lastSeen.Load() != 0 }
	for !(warm("na", "nb") && warm("na", "nc") && warm("nb", "na") && warm("nc", "na")) {
		if time.Now().After(deadline) {
			t.Fatal("mesh never warmed up")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := fault.Arm("net.partition:error:times=0:tag=nc"); err != nil {
		t.Fatal(err)
	}
	for !nodes["na"].cluster.NodeByID("nc").Dead() {
		if time.Now().After(deadline) {
			t.Fatal("na never declared partitioned nc dead")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if nodes["na"].cluster.NodeByID("nb").Dead() {
		t.Fatal("unpartitioned nb wrongly declared dead on na")
	}
	if !nodes["na"].cluster.NodeByID("nc").Dead() {
		t.Fatal("partitioned nc not declared dead on na")
	}
}

// TestPooledExchangeSoakUnderDelay is the exchange aliasing soak: a
// 3-node mesh moves hash-partitioned rows over the wire while net.delay
// randomly stalls nb's outbound frames. Every round must deliver every
// row exactly once with its payload still paired to its id.
func TestPooledExchangeSoakUnderDelay(t *testing.T) {
	defer fault.Disarm()
	if err := fault.Arm("net.delay:delay=1ms:p=0.2:times=0:tag=nb"); err != nil {
		t.Fatal(err)
	}
	nodes := startMesh(t, []string{"na", "nb", "nc"}, nil)
	// Warm the mesh: with two producer partitions per node, cold
	// concurrent first-sends to the same peer race the dialer; the
	// heartbeat loop establishes the links first.
	deadline := time.Now().Add(5 * time.Second)
	for _, a := range []string{"na", "nb", "nc"} {
		for _, b := range []string{"na", "nb", "nc"} {
			if a == b {
				continue
			}
			for nodes[a].peer.peer(b).lastSeen.Load() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("mesh never warmed up")
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	const rows, parts, rounds = 6000, 6, 3
	for round := 0; round < rounds; round++ {
		var mu sync.Mutex
		seen := make([]int64, rows)
		dup := false
		errs := runPlaced(context.Background(), nodes, "soak#"+string(rune('a'+round)), func(n *simNode) *hyracks.Job {
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
		}, func(op string, part int) string {
			return []string{"na", "nb", "nc"}[part%3]
		})
		for id, err := range errs {
			if err != nil {
				t.Fatalf("round %d node %s: %v", round, id, err)
			}
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
