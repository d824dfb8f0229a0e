// Package server exposes the engine over HTTP with an API shaped like
// AsterixDB's query service: POST /query/service with a JSON body
// {"statement": "..."} returns {"status", "results", "metrics"}, with
// optional per-query profiling ({"profile": "timings"}) mirroring the real
// query service. Admin endpoints expose the shared metrics registry:
// GET /admin/metrics (Prometheus text), GET /admin/stats (JSON snapshot),
// GET /admin/ping, and net/http/pprof under /debug/pprof/.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	rpprof "runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"asterix/internal/adm"
	"asterix/internal/core"
	"asterix/internal/mem"
	"asterix/internal/obs"
	"asterix/internal/txn"
)

// Engine is the statement executor the server fronts.
type Engine interface {
	Execute(ctx context.Context, script string) ([]core.Result, error)
}

// MetricsProvider is implemented by engines that own an observability
// registry (core.Engine does); the server exposes it on /admin/metrics.
type MetricsProvider interface {
	Metrics() *obs.Registry
}

// MaintenanceTracer is implemented by engines whose storage maintenance
// runs in the background (core.Engine): the spans of its newest flushes
// and merges, which no statement's own profile holds any more.
type MaintenanceTracer interface {
	Maintenance() *obs.SpanNode
}

// Explainer is implemented by engines that can compile a statement to its
// optimized plan without executing it (core.Engine does); it backs the
// explain-only request flag.
type Explainer interface {
	Explain(src string) (string, error)
}

// Options configures the HTTP service.
type Options struct {
	// SlowQueryThreshold is the elapsed time beyond which a statement is
	// logged with its phase timings (default 500ms; negative disables).
	SlowQueryThreshold time.Duration
}

// NewHTTPServer wraps a handler in an http.Server with the timeouts a
// long-lived daemon needs: a client that stalls while sending headers
// or a body, or that stops reading its response, is disconnected
// instead of holding a connection (and its goroutine) forever. Write
// and idle bounds are generous because statements legitimately run for
// seconds; header reads have no such excuse.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// NewHandler returns the HTTP handler for the query service.
func NewHandler(e Engine, opts Options) http.Handler {
	if opts.SlowQueryThreshold == 0 {
		opts.SlowQueryThreshold = 500 * time.Millisecond
	}
	// Prefer the engine's registry so scrapes see its counters.
	var reg *obs.Registry
	if mp, ok := e.(MetricsProvider); ok {
		reg = mp.Metrics()
	} else {
		reg = obs.NewRegistry()
	}
	s := &service{
		eng:       e,
		reg:       reg,
		slow:      opts.SlowQueryThreshold,
		requests:  reg.Counter("server_requests_total", "query-service requests"),
		errors:    reg.Counter("server_request_errors_total", "query-service requests that failed"),
		retriable: reg.Counter("server_retriable_errors_total", "failed requests the client may safely resend (lock timeout, node failure)"),
		slowQ:     reg.Counter("server_slow_queries_total", "statements over the slow-query threshold"),
		panics:    reg.Counter("server_request_panics_total", "requests whose execution panicked (answered as failed)"),
		reqDur:    reg.Histogram("server_request_duration_seconds", "query-service request wall time", nil),
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/query/service", s.serveQuery)
	mux.HandleFunc("/admin/ping", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/admin/metrics", s.serveMetrics)
	mux.HandleFunc("/admin/stats", s.serveStats)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

type service struct {
	eng  Engine
	reg  *obs.Registry
	slow time.Duration

	requests  *obs.Counter
	errors    *obs.Counter
	retriable *obs.Counter
	slowQ     *obs.Counter
	panics    *obs.Counter
	reqDur    *obs.Histogram

	// queryID numbers requests for pprof labels and the slow-query log.
	queryID uint64
}

func (s *service) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

func (s *service) serveStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	snap := s.reg.Snapshot()
	if mt, ok := s.eng.(MaintenanceTracer); ok {
		snap["maintenance"] = mt.Maintenance()
	}
	writeJSON(w, http.StatusOK, snap)
}

type queryRequest struct {
	Statement string `json:"statement"`
	// Profile requests expanded response metrics; "timings" additionally
	// returns the span tree with per-operator, per-partition timings
	// (mirroring AsterixDB's query-service profiling); "plan" returns the
	// optimized logical plan (text and JSON tree) alongside the results.
	Profile string `json:"profile"`
	// Explain compiles and optimizes the statement but does not execute
	// it; the response carries only the plan.
	Explain bool `json:"explain"`
}

// queryMetrics keeps elapsedTime/resultCount stable for old clients and
// adds phase timings, the result payload size, the peak working memory and
// the statement's waits.
type queryMetrics struct {
	ElapsedTime  string `json:"elapsedTime"`
	ResultCount  int    `json:"resultCount"`
	ParseTime    string `json:"parseTime"`
	OptimizeTime string `json:"optimizeTime"`
	ExecuteTime  string `json:"executeTime"`
	ResultSize   int64  `json:"resultSize"`
	// PeakWorkingMemBytes is the largest working-memory grant the memory
	// governor saw for any statement in the script.
	PeakWorkingMemBytes int64 `json:"peakWorkingMemBytes,omitempty"`
	// RulesFired maps optimizer rule name -> rewrite sites fired while
	// compiling the responded-to query (present with "profile":"plan").
	RulesFired map[string]int `json:"rulesFired,omitempty"`
	// WaitTimes attributes where the statement blocked, by category
	// (admission, lock, spill, flush, merge, exchange); only nonzero
	// categories appear.
	WaitTimes map[string]string `json:"waitTimes,omitempty"`
}

type queryResponse struct {
	Status  string            `json:"status"`
	Results []json.RawMessage `json:"results"`
	Errors  []string          `json:"errors,omitempty"`
	// Retriable tells the client the failure is transient (lock wait or
	// admission timeout): the same statement may succeed if resent.
	Retriable bool         `json:"retriable,omitempty"`
	Metrics   queryMetrics `json:"metrics"`
	// Profile is the span tree, present only when requested, and
	// Maintenance with it what storage was doing in the background.
	Profile     *obs.SpanNode `json:"profile,omitempty"`
	Maintenance *obs.SpanNode `json:"maintenance,omitempty"`
	// Plan is the optimized logical plan, present with "profile":"plan"
	// or the explain flag.
	Plan *planPayload `json:"plan,omitempty"`
}

// planPayload carries the optimized plan in both human-readable and
// machine-readable form.
type planPayload struct {
	Text string          `json:"text"`
	Tree json.RawMessage `json:"tree,omitempty"`
}

func (s *service) serveQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, `{"status":"fatal","errors":["POST required"]}`, http.StatusMethodNotAllowed)
		return
	}
	var req queryRequest
	ct := r.Header.Get("Content-Type")
	switch {
	case strings.Contains(ct, "application/json"):
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
			return
		}
	default:
		// Form encoding (statement=...) like the real service.
		if err := r.ParseForm(); err != nil {
			writeError(w, http.StatusBadRequest, "invalid form body")
			return
		}
		req.Statement = r.PostFormValue("statement")
		req.Profile = r.PostFormValue("profile")
		req.Explain = r.PostFormValue("explain") == "true"
	}
	if strings.TrimSpace(req.Statement) == "" {
		writeError(w, http.StatusBadRequest, "empty statement")
		return
	}
	s.requests.Inc()
	if req.Explain {
		s.serveExplain(w, req.Statement)
		return
	}

	// Every request is traced (the spans feed the phase metrics and the
	// slow-query log); per-operator detail is opt-in via the profile flag.
	root := obs.NewSpan("request")
	if req.Profile == "timings" {
		root.SetDetailed(true)
	}
	ctx := obs.ContextWithSpan(r.Context(), root)

	// Label the goroutine (and everything Execute spawns downstream) so CPU
	// profiles group samples by query; the id ties a profile back to the
	// slow-query log.
	qid := strconv.FormatUint(atomic.AddUint64(&s.queryID, 1), 10)
	start := time.Now()
	var results []core.Result
	var err error
	rpprof.Do(ctx, rpprof.Labels("query_id", qid), func(ctx context.Context) {
		// A panic fails the request with an error naming the panic value;
		// unrecovered, net/http drops the connection without a status.
		defer func() {
			if p := recover(); p != nil {
				s.panics.Inc()
				log.Printf("server: panic serving query #%s: %v\n%s", qid, p, debug.Stack())
				results, err = nil, fmt.Errorf("server: panic: %v", p)
			}
		}()
		results, err = s.eng.Execute(ctx, req.Statement)
	})
	root.End()
	elapsed := time.Since(start)
	s.reqDur.Observe(elapsed.Seconds())

	resp := queryResponse{Status: "success"}
	if err != nil {
		s.errors.Inc()
		resp.Status = "fatal"
		resp.Errors = append(resp.Errors, err.Error())
		switch {
		case errors.Is(err, txn.ErrLockTimeout):
			// AsterixDB reports lock-wait expiry as a timeout; the client
			// may simply resend the statement.
			resp.Status = "timeout"
			resp.Retriable = true
			s.retriable.Inc()
		case errors.Is(err, mem.ErrAdmissionTimeout):
			// The memory governor could not admit the query before its
			// wait bound expired; once running queries release working
			// memory a resend will be admitted.
			resp.Status = "timeout"
			resp.Retriable = true
			s.retriable.Inc()
		}
	}
	// Results of the last statement are the response payload (matching
	// the service's behavior for scripts).
	if len(results) > 0 {
		last := results[len(results)-1]
		switch last.Kind {
		case core.ResultQuery:
			for _, v := range last.Rows {
				resp.Results = append(resp.Results, json.RawMessage(adm.ToJSON(v)))
			}
		case core.ResultDML:
			resp.Results = append(resp.Results,
				json.RawMessage(fmt.Sprintf(`{"count":%d}`, last.Count)))
		}
	}
	var resultSize int64
	for _, raw := range resp.Results {
		resultSize += int64(len(raw))
	}
	var peakMem int64
	for _, res := range results {
		peakMem = max(peakMem, res.PeakWorkingMem)
	}
	parseT := root.TotalFor("parse")
	optT := root.TotalFor("compile")
	execT := root.TotalFor("execute")
	waits := root.WaitRollup()
	resp.Metrics = queryMetrics{
		ElapsedTime:         elapsed.String(),
		ResultCount:         len(resp.Results),
		ParseTime:           parseT.String(),
		OptimizeTime:        optT.String(),
		ExecuteTime:         execT.String(),
		ResultSize:          resultSize,
		PeakWorkingMemBytes: peakMem,
	}
	for k, d := range waits {
		if d > 0 {
			if resp.Metrics.WaitTimes == nil {
				resp.Metrics.WaitTimes = map[string]string{}
			}
			resp.Metrics.WaitTimes[obs.WaitKind(k).String()] = d.String()
		}
	}
	if req.Profile == "timings" {
		resp.Profile = root.Tree()
		if mt, ok := s.eng.(MaintenanceTracer); ok {
			resp.Maintenance = mt.Maintenance()
		}
	}
	if req.Profile == "plan" {
		// Plan of the last statement that produced one (matching the
		// results payload, which is also the last statement's).
		for i := len(results) - 1; i >= 0; i-- {
			if results[i].Plan != nil {
				resp.Plan = &planPayload{Text: results[i].PlanText(), Tree: json.RawMessage(results[i].PlanJSON())}
				resp.Metrics.RulesFired = results[i].RulesFired
				break
			}
		}
	}
	if s.slow >= 0 && elapsed >= s.slow {
		s.slowQ.Inc()
		line := fmt.Sprintf("server: slow query #%s (%v; parse=%v optimize=%v execute=%v", qid,
			elapsed, parseT, optT, execT)
		if top := waits.TopN(3); top != "" {
			line += "; waits: " + top
		}
		log.Printf("%s): %s", line, truncateStmt(req.Statement))
	}
	code := http.StatusOK
	if resp.Status != "success" {
		code = http.StatusInternalServerError
		if resp.Retriable {
			code = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, code, &resp)
}

// serveExplain answers an explain-only request: the statement is parsed
// and optimized but never executed, and the response carries only the
// plan.
func (s *service) serveExplain(w http.ResponseWriter, statement string) {
	ex, ok := s.eng.(Explainer)
	if !ok {
		writeError(w, http.StatusNotImplemented, "engine does not support explain")
		return
	}
	start := time.Now()
	plan, err := ex.Explain(statement)
	elapsed := time.Since(start)
	resp := queryResponse{Status: "success"}
	if err != nil {
		s.errors.Inc()
		resp.Status = "fatal"
		resp.Errors = append(resp.Errors, err.Error())
	} else {
		resp.Plan = &planPayload{Text: plan}
		if raw, jerr := json.Marshal(plan); jerr == nil {
			resp.Results = append(resp.Results, json.RawMessage(raw))
		}
	}
	resp.Metrics = queryMetrics{
		ElapsedTime: elapsed.String(),
		ResultCount: len(resp.Results),
	}
	code := http.StatusOK
	if resp.Status != "success" {
		code = http.StatusInternalServerError
	}
	writeJSON(w, code, &resp)
}

// truncateStmt bounds slow-query log lines (statements can be whole
// scripts).
func truncateStmt(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 500 {
		return s[:500] + "…"
	}
	return s
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, &queryResponse{Status: "fatal", Errors: []string{msg}})
}

// writeJSON answers code with v as the body. v is marshalled before the
// status line goes out, so a body that cannot be encoded answers 500
// "fatal", never a success with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		//lint:ignore err-discard a queryResponse of strings always marshals
		body, _ = json.Marshal(&queryResponse{Status: "fatal", Errors: []string{"encoding the response: " + err.Error()}})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n')) // best effort: a failure means the client is gone
}
