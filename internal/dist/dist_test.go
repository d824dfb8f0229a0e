package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"asterix/internal/fault"
	"asterix/internal/hyracks"
	anet "asterix/internal/net"
	"asterix/internal/obs"
)

// distNode is one simulated process: cluster view, peer endpoint, and
// control plane.
type distNode struct {
	id      string
	cluster *hyracks.Cluster
	peer    *anet.Peer
	node    *Node
	metrics *obs.Registry
}

// startDist boots an in-process mesh of member processes, each with its
// own cluster view, peer, and control plane, cross-wired by address.
// tune, when non-nil, may rewrite a member's peer options before the
// peer starts.
func startDist(t *testing.T, ids []string, tune func(id string, o *anet.Options)) map[string]*distNode {
	t.Helper()
	nodes := map[string]*distNode{}
	for _, id := range ids {
		cl, err := hyracks.NewNamedCluster(ids, t.TempDir())
		if err != nil {
			t.Fatalf("cluster %s: %v", id, err)
		}
		nd := NewNode(cl)
		reg := obs.NewRegistry()
		o := anet.Options{
			ID:                id,
			ListenAddr:        "127.0.0.1:0",
			Metrics:           reg,
			OnPeerDown:        nd.OnPeerDown,
			OnPeerUp:          nd.OnPeerUp,
			OnControl:         nd.HandleControl,
			HeartbeatInterval: 25 * time.Millisecond,
		}
		if tune != nil {
			tune(id, &o)
		}
		p, err := anet.NewPeer(o)
		if err != nil {
			t.Fatalf("peer %s: %v", id, err)
		}
		nd.Bind(p)
		nodes[id] = &distNode{id: id, cluster: cl, peer: p, node: nd, metrics: reg}
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if a.id != b.id {
				a.peer.AddPeer(b.id, b.peer.Addr())
			}
		}
	}
	// Warm the mesh until a full round of control sends succeeds in every
	// direction: simultaneous dials dedupe down to one connection per
	// pair, and a send racing that convergence can fail transiently.
	warm := func() bool {
		ok := true
		for _, a := range nodes {
			for _, b := range nodes {
				if a.id != b.id && a.peer.SendControl(b.id, []byte(`{"type":"noop"}`)) != nil {
					ok = false
				}
			}
		}
		return ok
	}
	deadline := time.Now().Add(5 * time.Second)
	for rounds := 0; rounds < 2; {
		if warm() {
			rounds++
			time.Sleep(50 * time.Millisecond) // let dedupe losers drain
			continue
		}
		rounds = 0
		if time.Now().After(deadline) {
			t.Fatal("mesh never converged")
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.node.Close()
			n.peer.Close()
		}
	})
	return nodes
}

// joinSpec is the canonical distributed query: two generated relations
// hash-partitioned into a 3-way join, concentrated to a collect sink on
// the coordinator. Expected cardinality: each key in [0,keyMod) appears
// leftRows*leftPar/keyMod times left and rightRows*rightPar/keyMod
// times right.
func joinSpec(id string) (*Spec, int) {
	const (
		keyMod    = 100
		leftRows  = 200 // per partition, 3 partitions
		rightRows = 100
	)
	spec := &Spec{
		ID: id,
		Ops: []OpSpec{
			{Kind: "gen", Name: "left", Parallelism: 3, Rows: leftRows, KeyMod: keyMod},
			{Kind: "gen", Name: "right", Parallelism: 3, Rows: rightRows, KeyMod: keyMod},
			{Kind: "hashjoin", Name: "join", Parallelism: 3, LeftCols: []int{0}, RightCols: []int{0}, RightWidth: 2},
			{Kind: "collect", Name: "out"},
		},
		Edges: []EdgeSpec{
			{From: 0, To: 2, Port: 0, Conn: "hash", HashCols: []int{0}},
			{From: 1, To: 2, Port: 1, Conn: "hash", HashCols: []int{0}},
			{From: 2, To: 3, Port: 0, Conn: "merge"},
		},
	}
	want := (3 * leftRows / keyMod) * (3 * rightRows / keyMod) * keyMod
	return spec, want
}

func TestDistributedJoin(t *testing.T) {
	nodes := startDist(t, []string{"na", "nb", "nc"}, nil)
	spec, want := joinSpec("q-join")
	rows, rep, err := nodes["na"].node.Run(context.Background(), spec, hyracks.RetryPolicy{})
	if err != nil {
		t.Fatalf("distributed join: %v", err)
	}
	if len(rows) != want {
		t.Fatalf("join produced %d rows, want %d", len(rows), want)
	}
	if rep.Attempts != 1 {
		t.Fatalf("clean run took %d attempts", rep.Attempts)
	}
	// The data plane must actually have crossed processes.
	snap := nodes["nb"].metrics.Snapshot()
	if v, _ := snap["net_frames_sent_total"].(int64); v == 0 {
		t.Fatalf("worker nb sent no frames: %v", snap)
	}
}

func TestDistributedGroupBy(t *testing.T) {
	nodes := startDist(t, []string{"na", "nb"}, nil)
	spec := &Spec{
		ID: "q-group",
		Ops: []OpSpec{
			{Kind: "gen", Name: "src", Parallelism: 2, Rows: 300, KeyMod: 10},
			{Kind: "groupby", Name: "agg", Parallelism: 2, GroupCols: []int{0},
				Aggs: []AggSpec{{Kind: "count", Col: 0}}},
			{Kind: "collect", Name: "out"},
		},
		Edges: []EdgeSpec{
			{From: 0, To: 1, Port: 0, Conn: "hash", HashCols: []int{0}},
			{From: 1, To: 2, Port: 0, Conn: "merge"},
		},
	}
	rows, _, err := nodes["na"].node.Run(context.Background(), spec, hyracks.RetryPolicy{})
	if err != nil {
		t.Fatalf("distributed group-by: %v", err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d groups, want 10", len(rows))
	}
}

// TestConcurrentRunsSameSpecID drives two simultaneous Runs of specs
// sharing one spec id. Their attempt job ids must not collide: a
// collision makes workers dedupe-drop the second job message, the READY
// barrier then times out and Kill()s perfectly healthy members, and the
// poisoned cluster view breaks every later query.
func TestConcurrentRunsSameSpecID(t *testing.T) {
	nodes := startDist(t, []string{"na", "nb", "nc"}, nil)
	type res struct {
		rows int
		err  error
	}
	ch := make(chan res, 2)
	for i := 0; i < 2; i++ {
		spec, _ := joinSpec("q-dup")
		go func(spec *Spec) {
			rows, _, err := nodes["na"].node.Run(context.Background(), spec,
				hyracks.RetryPolicy{MaxAttempts: 2})
			ch <- res{len(rows), err}
		}(spec)
	}
	_, want := joinSpec("q-dup")
	for i := 0; i < 2; i++ {
		r := <-ch
		if r.err != nil {
			t.Fatalf("concurrent run failed: %v", r.err)
		}
		if r.rows != want {
			t.Fatalf("concurrent run got %d rows, want %d", r.rows, want)
		}
	}
	for _, nc := range nodes["na"].cluster.Nodes {
		if nc.Dead() {
			t.Fatalf("healthy member %s was killed by a job-id collision", nc.ID)
		}
	}
}

// TestRetryAfterWorkerDeath kills a worker process before the run and
// verifies the ready barrier declares it dead and the retry lands on
// the survivors — the distributed analog of the in-process
// RunWithRetry node-failure path.
func TestRetryAfterWorkerDeath(t *testing.T) {
	nodes := startDist(t, []string{"na", "nb", "nc"}, nil)
	// The mesh is warm (nc has been heard from); now take it down hard.
	nodes["nc"].node.Close()
	nodes["nc"].peer.Close()

	spec, want := joinSpec("q-dead")
	rows, rep, err := nodes["na"].node.Run(context.Background(), spec, hyracks.RetryPolicy{MaxAttempts: 4})
	if err != nil {
		t.Fatalf("run after worker death: %v", err)
	}
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	if rep.Attempts < 2 {
		t.Fatalf("expected a retry, got %d attempts", rep.Attempts)
	}
	found := false
	for _, id := range rep.DeadNodes {
		found = found || id == "nc"
	}
	if !found {
		t.Fatalf("dead node nc not reported: %v", rep.DeadNodes)
	}
}

// TestPartitionDuringExchange partitions a worker mid-run: the attempt
// dies with a retriable failure, and once the injected partition heals
// (bounded times=) a later attempt completes with the exact expected
// cardinality — no duplicated and no silently lost rows, because stale
// attempts' frames are dropped by attempt-scoped job ids and a dropped
// frame always breaks its stream.
func TestPartitionDuringExchange(t *testing.T) {
	nodes := startDist(t, []string{"na", "nb", "nc"}, nil)
	// Let nb's first probes pass (job dissemination, barrier), then
	// partition it for a bounded burst that lands in the exchange phase.
	if err := fault.Arm("net.partition:error:after=12:times=60:tag=nb"); err != nil {
		t.Fatalf("arm: %v", err)
	}
	defer fault.Disarm()

	spec, want := joinSpec("q-part")
	rows, rep, err := nodes["na"].node.Run(context.Background(), spec,
		hyracks.RetryPolicy{MaxAttempts: 8, BaseBackoff: 25 * time.Millisecond})
	if err != nil {
		t.Fatalf("run under partition: %v", err)
	}
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d (acknowledged results must survive the partition)", len(rows), want)
	}
	if rep.Attempts < 2 {
		t.Fatalf("partition did not force a retry (%d attempts)", rep.Attempts)
	}
	st := nodes["na"].cluster.RetryStats()
	if st.NodeFailures+st.LinkFailures == 0 {
		t.Fatalf("no failure classified: %+v", st)
	}
}

// TestConnResetMidFrame tears the driver's own connections mid-frame.
// The receiver's framing (length + CRC) rejects the truncated message
// and the connection resets; depending on where the tear lands the
// control plane heals it in place (bounded resend) or the attempt
// retries — either way the result must be exact, never silently short.
func TestConnResetMidFrame(t *testing.T) {
	nodes := startDist(t, []string{"na", "nb", "nc"}, nil)
	if err := fault.Arm("net.conn.reset:torn:times=5:tag=na"); err != nil {
		t.Fatalf("arm: %v", err)
	}
	defer fault.Disarm()

	spec, want := joinSpec("q-reset")
	rows, _, err := nodes["na"].node.Run(context.Background(), spec,
		hyracks.RetryPolicy{MaxAttempts: 8, BaseBackoff: 25 * time.Millisecond})
	if err != nil {
		t.Fatalf("run under conn resets: %v", err)
	}
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	snap := nodes["na"].metrics.Snapshot()
	if v, _ := snap["net_conn_resets_total"].(int64); v == 0 {
		t.Fatalf("no connection resets counted: %v", snap)
	}
}

// TestLostFailureStatusIsResent swallows the first failure status the
// driver receives — what a reset of the worker's connection does to a
// status it already wrote — under the link fault of E15. The failed
// worker is alive and heartbeating, so no watcher fires: the run
// completes only because the worker re-sends its status until the
// driver's cancel acknowledges it.
func TestLostFailureStatusIsResent(t *testing.T) {
	var swallowed atomic.Bool
	nodes := startDist(t, []string{"na", "nb", "nc"}, func(id string, o *anet.Options) {
		if id != "na" {
			return
		}
		deliver := o.OnControl
		o.OnControl = func(from string, payload []byte) {
			var m ctlMsg
			if json.Unmarshal(payload, &m) == nil && m.Type == "status" && m.ErrKind != "" &&
				swallowed.CompareAndSwap(false, true) {
				return
			}
			deliver(from, payload)
		}
	})
	if err := fault.Arm("net.drop:error:after=2:times=3:tag=nb"); err != nil {
		t.Fatalf("arm: %v", err)
	}
	defer fault.Disarm()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	spec, want := joinSpec("q-lost-status")
	rows, rep, err := nodes["na"].node.Run(ctx, spec, hyracks.RetryPolicy{MaxAttempts: 6})
	if err != nil {
		t.Fatalf("run with a lost failure status: %v", err)
	}
	if !swallowed.Load() {
		t.Fatal("no failure status reached the driver: the fault broke nothing")
	}
	if len(rows) != want || rep.Attempts < 2 {
		t.Fatalf("got %d rows in %d attempts, want %d rows in at least 2", len(rows), rep.Attempts, want)
	}
}

// TestPartitionedWorkerRejoins partitions worker nb until the others
// declare it down, heals the partition, and requires the next run to
// place tasks on nb again: hearing from a down peer must revive it in
// every member's view (Node.OnPeerUp).
func TestPartitionedWorkerRejoins(t *testing.T) {
	nodes := startDist(t, []string{"na", "nb", "nc"}, nil)
	deadline := time.Now().Add(10 * time.Second)
	wait := func(what string, cond func() bool) {
		t.Helper()
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	allAlive := func() bool {
		for _, n := range nodes {
			if len(n.cluster.AliveNodes()) != len(nodes) {
				return false
			}
		}
		return true
	}
	if err := fault.Arm("net.partition:error:times=0:tag=nb"); err != nil {
		t.Fatalf("arm: %v", err)
	}
	defer fault.Disarm()
	dead := func(view, id string) bool { return nodes[view].cluster.NodeByID(id).Dead() }
	wait("nb declared down", func() bool {
		return dead("na", "nb") && dead("nc", "nb") && dead("nb", "na") && dead("nb", "nc")
	})
	fault.Disarm()
	wait("nb revived in every view", allAlive)

	sent := counterOf(nodes["nb"].metrics, "net_frames_sent_total")
	spec, want := joinSpec("q-rejoin")
	rows, _, err := nodes["na"].node.Run(context.Background(), spec, hyracks.RetryPolicy{MaxAttempts: 3})
	if err != nil {
		t.Fatalf("run after the heal: %v", err)
	}
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	if counterOf(nodes["nb"].metrics, "net_frames_sent_total") == sent {
		t.Fatal("the run placed no task on the revived worker nb")
	}
}

func counterOf(reg *obs.Registry, name string) int64 {
	v, _ := reg.Snapshot()[name].(int64)
	return v
}

// TestNoGoroutineLeakAfterRuns closes the whole mesh after several
// distributed runs (including a failed one) and verifies the process
// returns to its goroutine baseline within a second: no stuck inject
// loops, barrier waiters, or coordination goroutines, and no control
// send that keeps retrying a closed peer after Close (it would hold on
// for its 2 s deadline). Settling took at most 5 ms in 40 runs on a
// 2-vCPU host, under -race too.
func TestNoGoroutineLeakAfterRuns(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		nodes := startDist(t, []string{"na", "nb", "nc"}, nil)
		spec, _ := joinSpec("q-leak")
		if _, _, err := nodes["na"].node.Run(context.Background(), spec, hyracks.RetryPolicy{}); err != nil {
			t.Fatalf("clean run: %v", err)
		}
		// One failing run: partition nb permanently, bounded attempts.
		if err := fault.Arm("net.partition:error:tag=nb"); err != nil {
			t.Fatalf("arm: %v", err)
		}
		defer fault.Disarm()
		spec2, _ := joinSpec("q-leak2")
		_, _, err := nodes["na"].node.Run(context.Background(), spec2,
			hyracks.RetryPolicy{MaxAttempts: 2, BaseBackoff: 10 * time.Millisecond})
		_ = err // success or failure, only teardown hygiene matters here
		// A cancel still retrying when the mesh closes, as finishRun
		// leaves one behind when its target is unreachable.
		if err := fault.Arm("net.partition:error:tag=na"); err != nil {
			t.Fatalf("arm: %v", err)
		}
		go nodes["na"].node.sendCtl(nodes["na"].peer, "nc", marshal(ctlMsg{Type: "cancel", JobID: "q-leak2-late"}), 2*time.Second)
		for _, n := range nodes {
			n.node.Close()
			n.peer.Close()
		}
	}()
	deadline := time.Now().Add(time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak: %d -> %d\n%s", before, g, buf[:runtime.Stack(buf, true)])
	}
}

// TestSpecValidation exercises build-time rejection paths.
func TestSpecValidation(t *testing.T) {
	cases := []*Spec{
		{ID: "", Ops: []OpSpec{{Kind: "gen", Name: "g", Parallelism: 1}}},
		{ID: "x", Ops: []OpSpec{{Kind: "nope", Name: "g", Parallelism: 1}}},
		{ID: "x", Ops: []OpSpec{{Kind: "hashjoin", Name: "j", Parallelism: 1, LeftCols: []int{0}}}},
		{ID: "x", Ops: []OpSpec{{Kind: "groupby", Name: "a", Parallelism: 1,
			Aggs: []AggSpec{{Kind: "median"}}}}},
		{ID: "x", Ops: []OpSpec{{Kind: "gen", Name: "g", Parallelism: 1}},
			Edges: []EdgeSpec{{From: 0, To: 5, Conn: "hash"}}},
		{ID: "x", Ops: []OpSpec{{Kind: "gen", Name: "g", Parallelism: 1}, {Kind: "collect", Name: "o"}},
			Edges: []EdgeSpec{{From: 0, To: 1, Conn: "teleport"}}},
	}
	for i, spec := range cases {
		if _, err := BuildJob(spec, &hyracks.Collector{}); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
	if _, err := Assign(&Spec{Ops: []OpSpec{{Name: "a"}, {Name: "a"}}}, []string{"n1"}, "n1"); err == nil {
		t.Error("duplicate op name accepted")
	}
	if _, err := Assign(&Spec{}, nil, "n1"); err == nil {
		t.Error("empty member list accepted")
	}
}

func TestAssignDeterminism(t *testing.T) {
	spec, _ := joinSpec("q")
	a1, err := Assign(spec, []string{"nc", "na", "nb"}, "na")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Assign(spec, []string{"nb", "nc", "na"}, "na")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a1) != fmt.Sprint(a2) {
		t.Fatalf("assignment depends on member order:\n%v\n%v", a1, a2)
	}
	for _, id := range a1["out"] {
		if id != "na" {
			t.Fatalf("collect placed on %s, not the coordinator", id)
		}
	}
}

func TestStatusErrClassification(t *testing.T) {
	var nf *hyracks.NodeFailure
	var lf *hyracks.LinkFailure

	st := ctlMsg{}
	classifyErr(&st, &hyracks.NodeFailure{Node: "n7", Op: "join"})
	if st.ErrKind != "node" || st.ErrNode != "n7" {
		t.Fatalf("node failure classified as %+v", st)
	}
	if err := st.statusErr(); !errors.As(err, &nf) || nf.Node != "n7" {
		t.Fatalf("round trip lost type: %v", err)
	}

	st = ctlMsg{}
	classifyErr(&st, fmt.Errorf("wrapped: %w", &hyracks.LinkFailure{Peer: "n2", Err: errors.New("boom")}))
	if st.ErrKind != "link" || st.ErrNode != "n2" {
		t.Fatalf("link failure classified as %+v", st)
	}
	if err := st.statusErr(); !errors.As(err, &lf) || lf.Peer != "n2" {
		t.Fatalf("round trip lost type: %v", err)
	}

	st = ctlMsg{}
	classifyErr(&st, errors.New("plain"))
	if st.ErrKind != "error" {
		t.Fatalf("plain error classified as %+v", st)
	}
	if err := st.statusErr(); err == nil || errors.As(err, &nf) || errors.As(err, &lf) {
		t.Fatalf("plain error became retriable: %v", err)
	}
}
