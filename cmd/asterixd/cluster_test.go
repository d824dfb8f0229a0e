package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers(" nb=127.0.0.1:1, nc=127.0.0.1:2 ")
	if err != nil || len(peers) != 2 || peers["nb"] != "127.0.0.1:1" || peers["nc"] != "127.0.0.1:2" {
		t.Fatalf("got %v err=%v", peers, err)
	}
	if p, err := parsePeers(""); err != nil || len(p) != 0 {
		t.Fatalf("empty spec: %v err=%v", p, err)
	}
	for _, bad := range []string{"nb", "=x", "nb=", ","} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// freePorts reserves n distinct ephemeral ports. The listeners close on
// return, so a parallel process could in principle steal one — fine for
// a test that fails loudly if it happens.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	var lns []net.Listener
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	for _, ln := range lns {
		ln.Close()
	}
	return ports
}

type smokeNode struct {
	id       string
	httpAddr string
	cmd      *exec.Cmd
}

func (sn *smokeNode) url(path string) string { return "http://" + sn.httpAddr + path }

func postJSON(t *testing.T, url string, body interface{}, out interface{}) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// distJoinBody is the canonical 3-way distributed join request (1800
// result rows: 6 left matches x 3 right matches x 100 keys).
func distJoinBody(id string, maxAttempts int) map[string]interface{} {
	return map[string]interface{}{
		"maxAttempts": maxAttempts,
		"sample":      1,
		"spec": map[string]interface{}{
			"id": id,
			"ops": []map[string]interface{}{
				{"kind": "gen", "name": "left", "parallelism": 3, "rows": 200, "keyMod": 100},
				{"kind": "gen", "name": "right", "parallelism": 3, "rows": 100, "keyMod": 100},
				{"kind": "hashjoin", "name": "join", "parallelism": 3,
					"leftCols": []int{0}, "rightCols": []int{0}, "rightWidth": 2},
				{"kind": "collect", "name": "out"},
			},
			"edges": []map[string]interface{}{
				{"from": 0, "to": 2, "port": 0, "conn": "hash", "hashCols": []int{0}},
				{"from": 1, "to": 2, "port": 1, "conn": "hash", "hashCols": []int{0}},
				{"from": 2, "to": 3, "port": 0, "conn": "merge"},
			},
		},
	}
}

const distJoinWant = 1800

// TestMultiProcessCluster builds the real asterixd binary, boots three
// node processes wired as a cluster, and proves a distributed join
// completes over actual TCP between them. With ASTERIX_NET_MATRIX=1 it
// additionally runs the fault matrix: the join under injected frame
// drops, under injected delay, and after killing a node process.
func TestMultiProcessCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke test skipped in -short")
	}
	matrix := os.Getenv("ASTERIX_NET_MATRIX") == "1"

	bin := filepath.Join(t.TempDir(), "asterixd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build asterixd: %v\n%s", err, out)
	}

	ids := []string{"na", "nb", "nc"}
	ports := freePorts(t, 6) // http x3, data x3
	dataAddr := func(i int) string { return fmt.Sprintf("127.0.0.1:%d", ports[3+i]) }
	nodes := map[string]*smokeNode{}
	for i, id := range ids {
		peerList := ""
		for j, other := range ids {
			if other == id {
				continue
			}
			if peerList != "" {
				peerList += ","
			}
			peerList += fmt.Sprintf("%s=%s", other, dataAddr(j))
		}
		sn := &smokeNode{id: id, httpAddr: fmt.Sprintf("127.0.0.1:%d", ports[i])}
		sn.cmd = exec.Command(bin,
			"-node-id", id,
			"-listen", sn.httpAddr,
			"-data-listen", dataAddr(i),
			"-peers", peerList,
			"-data", filepath.Join(t.TempDir(), id),
			"-hb-interval", "50ms",
			"-enable-fault-injection",
		)
		sn.cmd.Stdout = os.Stderr
		sn.cmd.Stderr = os.Stderr
		if err := sn.cmd.Start(); err != nil {
			t.Fatalf("start %s: %v", id, err)
		}
		nodes[id] = sn
	}
	t.Cleanup(func() {
		for _, sn := range nodes {
			if sn.cmd.Process != nil {
				sn.cmd.Process.Kill()
				sn.cmd.Wait()
			}
		}
	})

	// Wait for every process to serve, then give the mesh two heartbeat
	// rounds to converge its connection dedupe.
	for _, sn := range nodes {
		deadline := time.Now().Add(20 * time.Second)
		for {
			resp, err := http.Get(sn.url("/admin/ping"))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %s never came up", sn.id)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	time.Sleep(300 * time.Millisecond)

	var resp struct {
		Status      string `json:"status"`
		Errors      []string
		ResultCount int `json:"resultCount"`
		Metrics     struct {
			JobAttempts int      `json:"jobAttempts"`
			DeadNodes   []string `json:"deadNodes"`
		} `json:"metrics"`
	}
	postJSON(t, nodes["na"].url("/query/distributed"), distJoinBody("smoke", 3), &resp)
	if resp.Status != "success" || resp.ResultCount != distJoinWant {
		t.Fatalf("distributed join: %+v", resp)
	}

	// The data plane must show cross-process frames on a worker.
	mresp, err := http.Get(nodes["nb"].url("/admin/stats"))
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]interface{}
	json.NewDecoder(mresp.Body).Decode(&stats)
	mresp.Body.Close()
	if v, ok := stats["net_frames_sent_total"].(float64); !ok || v == 0 {
		t.Fatalf("worker nb shows no frames sent: %v", stats["net_frames_sent_total"])
	}

	if !matrix {
		return
	}

	// --- net-matrix: distributed join under injected frame drops. ---
	postJSON(t, nodes["nb"].url("/admin/fault"),
		map[string]string{"spec": "net.drop:error:after=2:times=3:tag=nb"}, nil)
	resp.Metrics.JobAttempts = 0
	postJSON(t, nodes["na"].url("/query/distributed"), distJoinBody("smoke-drop", 6), &resp)
	if resp.Status != "success" || resp.ResultCount != distJoinWant {
		t.Fatalf("join under net.drop: %+v", resp)
	}
	if resp.Metrics.JobAttempts < 2 {
		t.Fatalf("net.drop did not force a retry: %+v", resp.Metrics)
	}
	postJSON(t, nodes["nb"].url("/admin/fault"), map[string]string{"spec": ""}, nil)

	// --- net-matrix: distributed join under injected link delay. ---
	postJSON(t, nodes["nb"].url("/admin/fault"),
		map[string]string{"spec": "net.delay:delay=20ms:times=5:tag=nb"}, nil)
	postJSON(t, nodes["na"].url("/query/distributed"), distJoinBody("smoke-delay", 6), &resp)
	if resp.Status != "success" || resp.ResultCount != distJoinWant {
		t.Fatalf("join under net.delay: %+v", resp)
	}
	postJSON(t, nodes["nb"].url("/admin/fault"), map[string]string{"spec": ""}, nil)

	// --- net-matrix: kill a node process, survivors answer. ---
	nodes["nc"].cmd.Process.Kill()
	nodes["nc"].cmd.Wait()
	// Heartbeat detection: 50ms interval, 8x timeout, plus slack.
	time.Sleep(1200 * time.Millisecond)
	var cl struct {
		Members []struct {
			ID    string `json:"id"`
			Alive bool   `json:"alive"`
		} `json:"members"`
	}
	cresp, err := http.Get(nodes["na"].url("/admin/cluster"))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(cresp.Body).Decode(&cl)
	cresp.Body.Close()
	for _, m := range cl.Members {
		if m.ID == "nc" && m.Alive {
			t.Fatalf("nc still alive in na's view after kill: %+v", cl)
		}
	}
	postJSON(t, nodes["na"].url("/query/distributed"), distJoinBody("smoke-dead", 6), &resp)
	if resp.Status != "success" || resp.ResultCount != distJoinWant {
		t.Fatalf("join after node kill: %+v", resp)
	}
}
