package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"asterix/internal/fault"
	"asterix/internal/hyracks"
	anet "asterix/internal/net"
	"asterix/internal/obs"
)

// loopbackEngine opens an engine of cfg and attaches the loopback TCP
// transport to its cluster: every frame between nodes crosses a socket on
// 127.0.0.1.
func loopbackEngine(t *testing.T, cfg Config) (*Engine, *anet.Loopback, *obs.Registry) {
	t.Helper()
	e := newEngine(t, cfg)
	reg := obs.NewRegistry()
	lb, err := anet.AttachLoopback(e.Cluster(), reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	return e, lb, reg
}

func netCounter(reg *obs.Registry, name string) int64 {
	v, _ := reg.Snapshot()[name].(int64)
	return v
}

// statementRows renders what a script returns, statement by statement:
// its rows (sorted unless the script orders them) or its error.
func statementRows(e *Engine, script string) string {
	res, err := e.Execute(context.Background(), script)
	var sb strings.Builder
	for _, r := range res {
		rows := make([]string, len(r.Rows))
		for i, v := range r.Rows {
			rows[i] = v.String()
		}
		if !strings.Contains(script, "ORDER BY") {
			sort.Strings(rows)
		}
		fmt.Fprintf(&sb, "%d rows:\n%s\n", len(rows), strings.Join(rows, "\n"))
	}
	if err != nil {
		fmt.Fprintf(&sb, "error: %v\n", err)
	}
	return sb.String()
}

// TestLoopbackCorpusMatchesChannels runs every corpus statement on a
// cluster of 2 and of 4 nodes, once over the in-process channel fabric
// and once with every cross-node frame on a TCP socket, and requires the
// same rows (in the same order under ORDER BY) or the same error. The
// clean run keeps the connections AttachLoopback dialed: it dials
// nothing more and resets nothing.
func TestLoopbackCorpusMatchesChannels(t *testing.T) {
	stmts := append(readCorpus(t, "../sqlpp/testdata/corpus/equivalence.sql"),
		readCorpus(t, "../sqlpp/testdata/corpus/fuzz_seeds.sql")...)
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("%d-nodes", n), func(t *testing.T) {
			cfg := Config{Partitions: n, Nodes: n}
			channels := newEngine(t, cfg)
			tcp, _, reg := loopbackEngine(t, cfg)
			seedEquivData(t, channels)
			seedEquivData(t, tcp)
			for i, q := range stmts {
				want, got := statementRows(channels, q), statementRows(tcp, q)
				if got != want {
					t.Errorf("statement %d differs over TCP\n%s\nchannels:\n%s\nTCP:\n%s", i, q, want, got)
				}
			}
			if netCounter(reg, "net_frames_sent_total") == 0 {
				t.Fatal("no frame crossed a socket")
			}
			for _, name := range []string{"net_reconnects_total", "net_conn_resets_total"} {
				if v := netCounter(reg, name); v != 0 {
					t.Errorf("%s = %d after a clean corpus run", name, v)
				}
			}
		})
	}
}

// joinEngine is a 3-node loopback engine holding two datasets that join
// on a key with exactly joinRows matches.
func joinEngine(t *testing.T, cfg Config) (*Engine, *anet.Loopback, *obs.Registry) {
	t.Helper()
	cfg.Partitions, cfg.Nodes = 3, 3
	e, lb, reg := loopbackEngine(t, cfg)
	var sb strings.Builder
	sb.WriteString(`CREATE TYPE SideType AS {id: int, k: int};
		CREATE DATASET Lefts(SideType) PRIMARY KEY id;
		CREATE DATASET Rights(SideType) PRIMARY KEY id;`)
	for _, side := range []struct {
		name string
		rows int
	}{{"Lefts", 600}, {"Rights", 300}} {
		fmt.Fprintf(&sb, "UPSERT INTO %s ([", side.name)
		for i := 0; i < side.rows; i++ {
			if i > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, `{"id": %d, "k": %d}`, i, i%100)
		}
		sb.WriteString("]);")
	}
	mustExec(t, e, sb.String())
	return e, lb, reg
}

// joinQuery matches 6 left and 3 right records on each of 100 keys.
const (
	joinQuery = `SELECT l.id AS l, r.id AS r FROM Lefts l, Rights r WHERE l.k = r.k;`
	joinRows  = 1800
)

// exactJoin runs joinQuery and fails unless it returns every row.
func exactJoin(t *testing.T, e *Engine) *Result {
	t.Helper()
	res, err := e.Query(context.Background(), joinQuery)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if len(res.Rows) != joinRows {
		t.Fatalf("join returned %d rows, want %d", len(res.Rows), joinRows)
	}
	return res
}

// TestLoopbackNetworkFaults injects each network fault into a SQL++ join
// over the loopback transport. Every fault that loses a frame must fail
// the attempt and be retried to the exact answer — never a short result.
func TestLoopbackNetworkFaults(t *testing.T) {
	for _, tc := range []struct {
		name, spec string
		retried    bool   // the fault must cost an attempt
		counter    string // a transport counter the fault must move, if any
	}{
		{"drop", "net.drop:error:after=2:times=1:tag=nc1", true, "net_frames_dropped_total"},
		{"delay", "net.delay:delay=2ms:times=5:tag=nc1", false, "net_frames_sent_total"},
		{"conn-reset", "net.conn.reset:torn:times=2:tag=nc0", true, "net_conn_resets_total"},
		{"torn-frame", "net.conn.reset:torn:after=2:times=1:tag=nc1", true, "net_conn_resets_total"},
		{"partition", "net.partition:error:after=2:times=3:tag=nc1", true, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, _, reg := joinEngine(t, Config{})
			defer fault.Disarm()
			if err := fault.Arm(tc.spec); err != nil {
				t.Fatal(err)
			}
			res := exactJoin(t, e)
			if tc.retried && res.Attempts < 2 {
				t.Errorf("the fault cost no attempt (%d)", res.Attempts)
			}
			if !tc.retried && res.Attempts != 1 {
				t.Errorf("a fault that loses nothing cost %d attempts", res.Attempts)
			}
			if tc.counter != "" && netCounter(reg, tc.counter) == 0 {
				t.Errorf("%s did not move", tc.counter)
			}
		})
	}
}

// TestLoopbackPartitionAndHeal cuts one node off for good: the join fails
// with a retriable link failure instead of a short answer. Once the
// partition heals, the same join runs on every node again.
func TestLoopbackPartitionAndHeal(t *testing.T) {
	e, _, _ := joinEngine(t, Config{})
	defer fault.Disarm()
	if err := fault.Arm("net.partition:error:times=0:tag=nc1"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(context.Background(), joinQuery)
	var lf *hyracks.LinkFailure
	if !errors.As(err, &lf) {
		t.Fatalf("join across a partition: rows %d, error %v; want a LinkFailure", len(res.Rows), err)
	}
	fault.Disarm()
	e.Cluster().ResetStats()
	if res := exactJoin(t, e); res.Attempts != 1 {
		t.Errorf("the healed join took %d attempts", res.Attempts)
	}
	for _, n := range e.Cluster().Nodes {
		if n.Stats().RowsRead == 0 {
			t.Errorf("node %s read nothing after the heal", n.ID)
		}
	}
}

// TestLoopbackKilledNodeRetried kills a node (its controller and its
// peer) while the join exchanges frames: the attempt fails on every node
// and the retry on the two survivors returns the exact answer.
func TestLoopbackKilledNodeRetried(t *testing.T) {
	e, lb, reg := joinEngine(t, Config{FrameSize: 8})
	defer fault.Disarm()
	// Stretch the exchange so the kill lands mid-attempt.
	if err := fault.Arm("hyracks.frame.delay:delay=1ms:times=0"); err != nil {
		t.Fatal(err)
	}
	go func() {
		for deadline := time.Now().Add(10 * time.Second); netCounter(reg, "net_frames_sent_total") < 10 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		lb.Kill("nc1")
	}()
	res := exactJoin(t, e)
	if res.Attempts < 2 || len(res.DeadNodes) != 1 || res.DeadNodes[0] != "nc1" {
		t.Fatalf("attempts %d, dead nodes %v: want a retry past the dead nc1", res.Attempts, res.DeadNodes)
	}
}

// TestLoopbackConcurrentQueries runs two joins at once over the same
// peers: their attempts run under distinct job ids, so neither sees the
// other's edges or frames.
func TestLoopbackConcurrentQueries(t *testing.T) {
	e, _, reg := joinEngine(t, Config{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res := exactJoin(t, e); res.Attempts != 1 {
				t.Errorf("a clean concurrent join took %d attempts", res.Attempts)
			}
		}()
	}
	wg.Wait()
	if n := netCounter(reg, "net_stale_frames_total"); n != 0 {
		t.Errorf("%d frames reached no registered attempt", n)
	}
}

// TestLoopbackPlacesLikeChannels checks that a loopback run puts each
// partition on the node a channel run puts it on: every node reads the
// same records either way.
func TestLoopbackPlacesLikeChannels(t *testing.T) {
	cfg := Config{Partitions: 4, Nodes: 4}
	channels := newEngine(t, cfg)
	tcp, _, _ := loopbackEngine(t, cfg)
	read := func(e *Engine) []int64 {
		seedEquivData(t, e)
		e.Cluster().ResetStats()
		queryRows(t, e, `SELECT VALUE m.messageId FROM GleambookMessages m WHERE m.authorId > 3;`)
		var out []int64
		for _, n := range e.Cluster().Nodes {
			out = append(out, n.Stats().RowsRead)
		}
		return out
	}
	if want, got := read(channels), read(tcp); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("records read per node over TCP %v, over channels %v", got, want)
	}
}

// TestLoopbackNoGoroutineLeak runs a clean and a failing join over the
// loopback, closes it and the engine, and requires the goroutine count
// to return to where it started: no inject loop, watcher, reader or
// barrier waiter outlives its attempt.
func TestLoopbackNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		e, err := Open(Config{DataDir: t.TempDir(), Partitions: 3, Nodes: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		lb, err := anet.AttachLoopback(e.Cluster(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer lb.Close()
		seedEquivData(t, e)
		q := `SELECT u.name AS n, m.messageId AS mid FROM GleambookUsers u, GleambookMessages m WHERE m.authorId = u.id;`
		queryRows(t, e, q)
		defer fault.Disarm()
		if err := fault.Arm("net.partition:error:times=0:tag=nc2"); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Query(context.Background(), q); err == nil {
			t.Fatal("a join across a lasting partition succeeded")
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}
