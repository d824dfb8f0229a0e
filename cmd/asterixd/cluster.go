package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"asterix/internal/adm"
	"asterix/internal/dist"
	"asterix/internal/fault"
	"asterix/internal/hyracks"
	"asterix/internal/mem"
	anet "asterix/internal/net"
	"asterix/internal/obs"
)

// clusterService is the node process's distributed face: the anet peer
// mesh, the shared-member cluster view, and the dist control plane, plus
// the HTTP endpoints that expose them (/admin/cluster,
// /query/distributed, and — when explicitly enabled — /admin/fault).
type clusterService struct {
	self       string
	peer       *anet.Peer
	cluster    *hyracks.Cluster
	node       *dist.Node
	reg        *obs.Registry
	allowFault bool
}

// parsePeers parses "id=host:port,id2=host:port" into a map.
func parsePeers(s string) (map[string]string, error) {
	peers := map[string]string{}
	if strings.TrimSpace(s) == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad peer entry %q (want id=host:port)", part)
		}
		peers[id] = addr
	}
	return peers, nil
}

// startCluster boots the data-plane peer and control plane for a node
// of a multi-process cluster. The engine's governor arbitrates the
// distributed path's memory too: jobs admit against it and the peer
// charges its receive-window buffers to it.
func startCluster(self, dataListen, peerSpec, dataDir string, hbInterval time.Duration,
	gov *mem.Governor, reg *obs.Registry, allowFault bool) (*clusterService, error) {
	peers, err := parsePeers(peerSpec)
	if err != nil {
		return nil, err
	}
	if _, dup := peers[self]; dup {
		return nil, fmt.Errorf("-peers must list only REMOTE members, found self (%s)", self)
	}
	members := []string{self}
	for id := range peers {
		members = append(members, id)
	}
	sort.Strings(members)
	cluster, err := hyracks.NewNamedCluster(members, dataDir)
	if err != nil {
		return nil, err
	}
	cluster.Gov = gov
	node := dist.NewNode(cluster)
	peer, err := anet.NewPeer(anet.Options{
		ID:                self,
		ListenAddr:        dataListen,
		Peers:             peers,
		Gov:               gov,
		Metrics:           reg,
		OnPeerDown:        node.OnPeerDown,
		OnPeerUp:          node.OnPeerUp,
		OnControl:         node.HandleControl,
		HeartbeatInterval: hbInterval,
	})
	if err != nil {
		return nil, err
	}
	node.Bind(peer)
	return &clusterService{
		self: self, peer: peer, cluster: cluster, node: node,
		reg: reg, allowFault: allowFault,
	}, nil
}

func (cs *clusterService) close() {
	cs.node.Close()
	cs.peer.Close()
}

// routes mounts the cluster endpoints on the mux.
func (cs *clusterService) routes(mux *http.ServeMux) {
	mux.HandleFunc("/admin/cluster", cs.serveCluster)
	mux.HandleFunc("/query/distributed", cs.serveDistributed)
	if cs.allowFault {
		mux.HandleFunc("/admin/fault", cs.serveFault)
	}
}

func (cs *clusterService) serveCluster(w http.ResponseWriter, r *http.Request) {
	type member struct {
		ID    string `json:"id"`
		Alive bool   `json:"alive"`
		Self  bool   `json:"self,omitempty"`
	}
	out := struct {
		Self     string             `json:"self"`
		DataAddr string             `json:"dataAddr"`
		Members  []member           `json:"members"`
		Retries  hyracks.RetryStats `json:"retries"`
	}{Self: cs.self, DataAddr: cs.peer.Addr(), Retries: cs.cluster.RetryStats()}
	for _, n := range cs.cluster.Nodes {
		out.Members = append(out.Members, member{ID: n.ID, Alive: !n.Dead(), Self: n.ID == cs.self})
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, &out)
}

// distRequest is the /query/distributed body: a dist job spec plus run
// bounds.
type distRequest struct {
	Spec        *dist.Spec `json:"spec"`
	MaxAttempts int        `json:"maxAttempts,omitempty"`
	// Sample caps how many result rows are returned inline (default 100;
	// resultCount is always exact).
	Sample int `json:"sample,omitempty"`
}

type distResponse struct {
	Status      string            `json:"status"`
	Errors      []string          `json:"errors,omitempty"`
	Retriable   bool              `json:"retriable,omitempty"`
	ResultCount int               `json:"resultCount"`
	Results     []json.RawMessage `json:"results,omitempty"`
	Metrics     struct {
		ElapsedTime string   `json:"elapsedTime"`
		JobAttempts int      `json:"jobAttempts,omitempty"`
		DeadNodes   []string `json:"deadNodes,omitempty"`
	} `json:"metrics"`
}

func (cs *clusterService) serveDistributed(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, `{"status":"fatal","errors":["POST required"]}`, http.StatusMethodNotAllowed)
		return
	}
	var req distRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Spec == nil {
		http.Error(w, `{"status":"fatal","errors":["body must be {\"spec\": {...}}"]}`, http.StatusBadRequest)
		return
	}
	start := time.Now()
	rows, rep, err := cs.node.Run(r.Context(), req.Spec, hyracks.RetryPolicy{MaxAttempts: req.MaxAttempts})
	var resp distResponse
	resp.Status = "success"
	resp.Metrics.ElapsedTime = time.Since(start).String()
	resp.Metrics.DeadNodes = rep.DeadNodes
	if rep.Attempts > 1 {
		resp.Metrics.JobAttempts = rep.Attempts
	}
	if err != nil {
		resp.Status = "fatal"
		resp.Errors = append(resp.Errors, err.Error())
		_, resp.Retriable = hyracks.Retriable(err)
		w.Header().Set("Content-Type", "application/json")
		if resp.Retriable {
			w.WriteHeader(http.StatusServiceUnavailable)
		} else {
			w.WriteHeader(http.StatusInternalServerError)
		}
		writeJSON(w, &resp)
		return
	}
	resp.ResultCount = len(rows)
	sample := req.Sample
	if sample <= 0 {
		sample = 100
	}
	for i, t := range rows {
		if i >= sample {
			break
		}
		cols := make([]json.RawMessage, len(t))
		for c, v := range t {
			cols[c] = json.RawMessage(adm.ToJSON(v))
		}
		//lint:ignore err-discard cols holds adm.ToJSON output, already valid JSON; Marshal cannot fail
		b, _ := json.Marshal(cols)
		resp.Results = append(resp.Results, b)
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, &resp)
}

// writeJSON writes v as a response body.
func writeJSON(w http.ResponseWriter, v any) {
	//lint:ignore err-discard best-effort write to the response; a failure means the client is gone
	json.NewEncoder(w).Encode(v)
}

// serveFault arms or disarms the process-wide fault registry. Mounted
// only behind -enable-fault-injection: it exists for the net-matrix
// harness, never for production.
func (cs *clusterService) serveFault(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, `{"status":"fatal","errors":["POST required"]}`, http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		Spec string `json:"spec"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, `{"status":"fatal","errors":["body must be {\"spec\": \"point:mode:...\"}"]}`, http.StatusBadRequest)
		return
	}
	if req.Spec == "" {
		fault.Disarm()
	} else if err := fault.Arm(req.Spec); err != nil {
		http.Error(w, fmt.Sprintf(`{"status":"fatal","errors":[%q]}`, err.Error()), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"ok","armed":%q}`+"\n", req.Spec)
}
