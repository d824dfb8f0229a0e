package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"asterix/internal/core"
	"asterix/internal/hyracks"
	"asterix/internal/mem"
	"asterix/internal/obs"
	"asterix/internal/txn"
)

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	fixed, _ := time.Parse(time.RFC3339, "2019-04-01T00:00:00Z")
	eng, err := core.Open(core.Config{
		DataDir: t.TempDir(),
		Now:     func() time.Time { return fixed },
		// Tiny memory components so test loads flush to disk and the
		// storage/lsm counters go live.
		MemComponentBudget: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv := httptest.NewServer(NewHandler(eng, Options{}))
	t.Cleanup(srv.Close)
	return srv
}

func post(t *testing.T, srv *httptest.Server, stmt string) queryResponse {
	t.Helper()
	body := `{"statement": ` + jsonString(stmt) + `}`
	resp, err := http.Post(srv.URL+"/query/service", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return qr
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

func TestQueryService(t *testing.T) {
	srv := newServer(t)
	r := post(t, srv, `
		CREATE TYPE T AS {id: int};
		CREATE DATASET D(T) PRIMARY KEY id;
	`)
	if r.Status != "success" {
		t.Fatalf("DDL: %+v", r)
	}
	r = post(t, srv, `UPSERT INTO D ([{"id": 1, "x": "a"}, {"id": 2, "x": "b"}]);`)
	if r.Status != "success" || string(r.Results[0]) != `{"count":2}` {
		t.Fatalf("DML: %+v", r)
	}
	r = post(t, srv, `SELECT VALUE d.x FROM D d ORDER BY d.id;`)
	if r.Status != "success" || len(r.Results) != 2 {
		t.Fatalf("query: %+v", r)
	}
	if string(r.Results[0]) != `"a"` || string(r.Results[1]) != `"b"` {
		t.Fatalf("rows: %v", r.Results)
	}
	if r.Metrics.ResultCount != 2 {
		t.Errorf("metrics: %+v", r.Metrics)
	}
}

func TestQueryServiceErrors(t *testing.T) {
	srv := newServer(t)
	r := post(t, srv, `SELECT VALUE x FROM NoSuchDataset x;`)
	if r.Status != "fatal" || len(r.Errors) == 0 {
		t.Fatalf("expected error response: %+v", r)
	}
	// Empty statement.
	resp, err := http.Post(srv.URL+"/query/service", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty statement status: %d", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Get(srv.URL + "/query/service")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status: %d", resp.StatusCode)
	}
}

func TestQueryServiceFormEncoding(t *testing.T) {
	srv := newServer(t)
	resp, err := http.PostForm(srv.URL+"/query/service",
		url.Values{"statement": {"SELECT VALUE 1 + 1;"}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr queryResponse
	json.NewDecoder(resp.Body).Decode(&qr)
	if qr.Status != "success" || string(qr.Results[0]) != "2" {
		t.Fatalf("form query: %+v", qr)
	}
}

// loadGleambook creates a two-partition dataset with enough rows that a
// multi-operator query (scan → join/group → sort) touches every layer.
func loadGleambook(t *testing.T, srv *httptest.Server) {
	t.Helper()
	r := post(t, srv, `
		CREATE TYPE UserT AS {id: int};
		CREATE DATASET Users(UserT) PRIMARY KEY id;
	`)
	if r.Status != "success" {
		t.Fatalf("DDL: %+v", r)
	}
	var sb strings.Builder
	sb.WriteString("UPSERT INTO Users ([")
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"id": %d, "org": "org%d", "score": %d}`, i, i%7, i%13)
	}
	sb.WriteString("]);")
	if r := post(t, srv, sb.String()); r.Status != "success" {
		t.Fatalf("load: %+v", r)
	}
}

func TestAdminMetricsPrometheus(t *testing.T) {
	srv := newServer(t)
	loadGleambook(t, srv)
	// A multi-operator query: group-by with aggregation and ordering.
	r := post(t, srv, `SELECT u.org AS org, COUNT(*) AS n FROM Users u GROUP BY u.org ORDER BY org;`)
	if r.Status != "success" || len(r.Results) != 7 {
		t.Fatalf("query: %+v", r)
	}

	scrape := func() string {
		resp, err := http.Get(srv.URL + "/admin/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("metrics status: %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Errorf("content type: %s", ct)
		}
		raw, _ := io.ReadAll(resp.Body)
		return string(raw)
	}
	// The load seals its memory components as it ends and the maintenance
	// worker flushes them behind the statement: scrape until one is counted.
	body := scrape()
	for deadline := time.Now().Add(5 * time.Second); promValue(t, body, "lsm_flushes_total") == 0 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		body = scrape()
	}

	// Valid exposition: every non-comment line is "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			t.Fatalf("non-numeric sample %q", line)
		}
	}

	// Live counters from at least four subsystems.
	for _, name := range []string{
		"storage_buffercache_hits_total",
		"hyracks_tuples_in_total",
		"hyracks_tuples_out_total",
		"lsm_flushes_total",
		"txn_commits_total",
		"engine_statements_total",
		"server_requests_total",
		"# TYPE engine_query_duration_seconds histogram",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("metrics missing %s", name)
		}
	}
	// The query must have moved tuples through hyracks, committed txns,
	// flushed LSM components, and hit the buffer cache.
	for _, want := range []string{"hyracks_tuples_out_total", "txn_commits_total",
		"storage_buffercache_hits_total", "lsm_flushes_total"} {
		v := promValue(t, body, want)
		if v <= 0 {
			t.Errorf("%s = %v, want > 0", want, v)
		}
	}
}

// promValue extracts a sample value from exposition text.
func promValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

func TestAdminStatsJSON(t *testing.T) {
	srv := newServer(t)
	post(t, srv, `SELECT VALUE 1 + 1;`)
	resp, err := http.Get(srv.URL + "/admin/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("stats not valid JSON: %v", err)
	}
	if snap["engine_statements_total"].(float64) < 1 {
		t.Errorf("engine_statements_total = %v", snap["engine_statements_total"])
	}
	if _, ok := snap["engine_query_duration_seconds"].(map[string]interface{}); !ok {
		t.Errorf("histogram snapshot missing: %T", snap["engine_query_duration_seconds"])
	}

	// The load seals several 4 KiB components; their flushes run on the
	// maintenance worker and show up, one span per job with a flush
	// child, under "maintenance" — at the latest a moment later.
	loadGleambook(t, srv)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(srv.URL + "/admin/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats struct {
			Maintenance *obs.SpanNode `json:"maintenance"`
		}
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil || stats.Maintenance == nil || stats.Maintenance.Name != "maintenance" {
			t.Fatalf("stats carry no maintenance tree: %+v, %v", stats.Maintenance, err)
		}
		flushes := 0
		walkProfile(stats.Maintenance, func(n *obs.SpanNode) {
			if n.Name == "flush" {
				flushes++
			}
		})
		if flushes > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no flush span under maintenance: %+v", stats.Maintenance)
		}
	}
}

// walkProfile visits every node of a span tree depth-first.
func walkProfile(n *obs.SpanNode, fn func(*obs.SpanNode)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		walkProfile(c, fn)
	}
}

func postProfile(t *testing.T, srv *httptest.Server, stmt string) queryResponse {
	t.Helper()
	body := `{"statement": ` + jsonString(stmt) + `, "profile": "timings"}`
	resp, err := http.Post(srv.URL+"/query/service", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return qr
}

func TestProfileTimings(t *testing.T) {
	srv := newServer(t)
	loadGleambook(t, srv)
	r := postProfile(t, srv, `SELECT u.org AS org, COUNT(*) AS n FROM Users u GROUP BY u.org ORDER BY org;`)
	if r.Status != "success" {
		t.Fatalf("query: %+v", r)
	}
	if r.Profile == nil || r.Profile.Name != "request" {
		t.Fatalf("profile missing: %+v", r.Profile)
	}
	if r.Maintenance == nil || r.Maintenance.Name != "maintenance" {
		t.Fatalf("maintenance tree missing beside the profile: %+v", r.Maintenance)
	}
	// Expanded phase metrics are populated.
	if r.Metrics.ParseTime == "" || r.Metrics.OptimizeTime == "0s" || r.Metrics.ExecuteTime == "0s" {
		t.Errorf("phase metrics empty: %+v", r.Metrics)
	}
	if r.Metrics.ResultSize <= 0 {
		t.Errorf("resultSize = %d", r.Metrics.ResultSize)
	}

	// The span tree holds parse → statement → compile/execute, and under
	// execute the per-operator, per-partition task spans with tuple counts.
	names := map[string]int{}
	var tasks, tuples int64
	walkProfile(r.Profile, func(n *obs.SpanNode) {
		names[n.Name]++
		if strings.Contains(n.Name, "[") { // operator task span, e.g. "sort[0]"
			tasks++
			tuples += n.Counters["tuplesIn"] + n.Counters["tuplesOut"]
		}
	})
	if names["parse"] == 0 || names["statement"] == 0 || names["compile"] == 0 || names["execute"] == 0 {
		t.Fatalf("span tree missing phases: %v", names)
	}
	if tasks == 0 {
		t.Fatalf("no per-operator task spans in profile: %v", names)
	}
	if tuples == 0 {
		t.Fatal("task spans carry no tuple counts")
	}

	// Without the profile flag the response has no span tree.
	r = post(t, srv, `SELECT VALUE 1;`)
	if r.Profile != nil || r.Maintenance != nil {
		t.Error("profile returned without being requested")
	}
}

func TestSlowQueryLog(t *testing.T) {
	fixed, _ := time.Parse(time.RFC3339, "2019-04-01T00:00:00Z")
	eng, err := core.Open(core.Config{DataDir: t.TempDir(), Now: func() time.Time { return fixed }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	buf := captureLog(t)
	h := NewHandler(eng, Options{
		SlowQueryThreshold: 1 * time.Nanosecond, // everything is slow
	})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	post(t, srv, `SELECT VALUE 40 + 2;`)
	if !strings.Contains(buf.String(), "slow query") || !strings.Contains(buf.String(), "40 + 2") {
		t.Fatalf("slow-query log missing: %q", buf.String())
	}
	resp, _ := http.Get(srv.URL + "/admin/metrics")
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if promValue(t, string(raw), "server_slow_queries_total") < 1 {
		t.Error("server_slow_queries_total not incremented")
	}
}

// postSafe is post for use from non-test goroutines (no t.Fatal).
func postSafe(srv *httptest.Server, stmt string, profile bool) (queryResponse, error) {
	body := `{"statement": ` + jsonString(stmt) + `}`
	if profile {
		body = `{"statement": ` + jsonString(stmt) + `, "profile": "timings"}`
	}
	resp, err := http.Post(srv.URL+"/query/service", "application/json", strings.NewReader(body))
	if err != nil {
		return queryResponse{}, err
	}
	defer resp.Body.Close()
	var qr queryResponse
	err = json.NewDecoder(resp.Body).Decode(&qr)
	return qr, err
}

// TestWaitAttributionUnderContention drives two real contention paths and
// asserts the time a statement spent blocked is attributed — in the
// metrics block, in the "profile":"timings" span tree, and in the
// slow-query log.
func TestWaitAttributionUnderContention(t *testing.T) {
	fixed, _ := time.Parse(time.RFC3339, "2019-04-01T00:00:00Z")
	eng, err := core.Open(core.Config{
		DataDir:            t.TempDir(),
		Partitions:         1,
		WorkingMemory:      64 << 10,
		AdmitTimeout:       5 * time.Second,
		MemComponentBudget: 4 << 10,
		Now:                func() time.Time { return fixed },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	buf := captureLog(t)
	srv := httptest.NewServer(NewHandler(eng, Options{
		SlowQueryThreshold: 1 * time.Nanosecond, // everything is slow
	}))
	t.Cleanup(srv.Close)

	r := post(t, srv, `
		CREATE TYPE T AS {id: int};
		CREATE DATASET D(T) PRIMARY KEY id;
	`)
	if r.Status != "success" {
		t.Fatalf("setup: %+v", r)
	}
	var sb strings.Builder
	sb.WriteString("UPSERT INTO D ([")
	for i := 0; i < 300; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"id": %d, "g": %d}`, i, i%7)
	}
	sb.WriteString("]);")
	if r := post(t, srv, sb.String()); r.Status != "success" {
		t.Fatalf("load: %+v", r)
	}

	// Admission wait: hold the whole working-memory pool, release it only
	// after the query has been waiting a while.
	gov := eng.MemGovernor()
	hold, err := gov.Reserve(context.Background(), gov.WorkingCap())
	if err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	go func() {
		time.Sleep(60 * time.Millisecond)
		hold.Release()
		close(released)
	}()
	qr := postProfile(t, srv, `SELECT g AS grp, COUNT(*) AS n FROM D d GROUP BY d.g AS g ORDER BY grp;`)
	<-released
	if qr.Status != "success" {
		t.Fatalf("starved-then-released query: %+v", qr)
	}
	if qr.Metrics.WaitTimes["admission"] == "" {
		t.Fatalf("admission wait not attributed: %+v", qr.Metrics)
	}
	adm, err := time.ParseDuration(qr.Metrics.WaitTimes["admission"])
	if err != nil || adm < 20*time.Millisecond {
		t.Fatalf("admission wait = %q, want >= 20ms", qr.Metrics.WaitTimes["admission"])
	}
	// The same attribution must appear as counters in the span tree.
	var admUS int64
	walkProfile(qr.Profile, func(n *obs.SpanNode) {
		admUS += n.Counters["wait.admission.us"]
	})
	if admUS <= 0 {
		t.Fatal("profile span tree carries no wait.admission.us counter")
	}

	// Lock wait: concurrent upserts of the same keys serialize on the lock
	// manager; the losers' wait must be attributed. Whether the writers
	// actually overlap inside the lock window is a scheduling race, so
	// retry the round until one loses — the assertion is about
	// attribution, not about any single round's timing.
	const writers = 3
	lockWaits := 0
	var results []queryResponse
	for round := 0; round < 20 && lockWaits == 0; round++ {
		var wg sync.WaitGroup
		results = make([]queryResponse, writers)
		errs := make([]error, writers)
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = postSafe(srv, sb.String(), true)
			}(i)
		}
		wg.Wait()
		for i := 0; i < writers; i++ {
			if errs[i] != nil {
				t.Fatalf("writer %d: %v", i, errs[i])
			}
			if results[i].Metrics.WaitTimes["lock"] != "" {
				lockWaits++
			}
		}
	}
	if lockWaits == 0 {
		t.Fatalf("no writer recorded lock wait under contention: %+v",
			[]map[string]string{results[0].Metrics.WaitTimes, results[1].Metrics.WaitTimes, results[2].Metrics.WaitTimes})
	}

	// Slow-query log explains where the time went.
	logged := buf.String()
	if !strings.Contains(logged, "waits: ") || !strings.Contains(logged, "admission=") {
		t.Fatalf("slow-query log lacks wait attribution:\n%s", logged)
	}
}

func TestPprofEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof index: %d", resp.StatusCode)
	}
}

func TestPing(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/admin/ping")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("ping: %d", resp.StatusCode)
	}
}

// stubEngine lets failure-path tests script Execute's outcome without a
// real engine.
type stubEngine struct {
	res []core.Result
	err error
	// panicOn makes Execute panic on this one script.
	panicOn string
}

func (s stubEngine) Execute(ctx context.Context, script string) ([]core.Result, error) {
	if script == s.panicOn {
		panic("operator state corrupt")
	}
	return s.res, s.err
}

// meteredStub is a stubEngine with a registry of its own, which the
// server publishes its counters into.
type meteredStub struct {
	stubEngine
	reg *obs.Registry
}

func (s meteredStub) Metrics() *obs.Registry { return s.reg }

// captureLog sends the standard logger's output to a buffer until the
// test ends.
func captureLog(t *testing.T) *strings.Builder {
	var b strings.Builder
	log.SetOutput(&b)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	return &b
}

func postRaw(t *testing.T, srv *httptest.Server, stmt string) (int, queryResponse) {
	t.Helper()
	body := `{"statement": ` + jsonString(stmt) + `}`
	resp, err := http.Post(srv.URL+"/query/service", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, qr
}

// TestNonFiniteNumbersAnswerJSON: NaN and the infinities have no JSON
// number, so a result holding one, at top level, in an object or in a
// point, spells it as a string, and the response is a whole JSON body. A
// body that still cannot be marshalled answers 500 "fatal", never 200
// with nothing.
func TestNonFiniteNumbersAnswerJSON(t *testing.T) {
	srv := newServer(t)
	for stmt, want := range map[string]string{
		`SELECT VALUE sqrt(-1);`:                `"NaN"`,
		`SELECT VALUE {"a": 1, "b": sqrt(-1)};`: `{"a":1,"b":"NaN"}`,
		`SELECT VALUE 1e308 * 10;`:              `"Infinity"`,
		`SELECT VALUE point(1e308*10, 0);`:      `{"point":["Infinity",0]}`,
		`SELECT VALUE -1e308 * 10;`:             `"-Infinity"`,
		`SELECT VALUE sqrt(4);`:                 `2`,
	} {
		code, r := postRaw(t, srv, stmt)
		if code != http.StatusOK || r.Status != "success" || len(r.Results) != 1 || string(r.Results[0]) != want {
			t.Errorf("%s: HTTP %d, %+v; want one result %s", stmt, code, r, want)
		}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, json.RawMessage("NaN"))
	var r queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil || rec.Code != http.StatusInternalServerError || r.Status != "fatal" {
		t.Errorf("an unmarshallable body: HTTP %d, %q", rec.Code, rec.Body)
	}
}

func TestLockTimeoutMapsToRetriable503(t *testing.T) {
	eng := meteredStub{stubEngine{err: fmt.Errorf("stmt 1: %w", txn.ErrLockTimeout)}, obs.NewRegistry()}
	srv := httptest.NewServer(NewHandler(eng, Options{}))
	t.Cleanup(srv.Close)

	code, qr := postRaw(t, srv, `UPSERT INTO D ({"id": 1});`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("lock timeout returned HTTP %d, want 503", code)
	}
	if qr.Status != "timeout" || !qr.Retriable {
		t.Fatalf("response %+v, want status=timeout retriable=true", qr)
	}
	if got := eng.Metrics().Snapshot()["server_retriable_errors_total"]; got != int64(1) {
		t.Fatalf("server_retriable_errors_total = %v, want 1", got)
	}
}

// A job that fails fast on an operator panic answers 500 fatal and is not
// marked retriable: a resend would panic again.
func TestTaskPanicIsFatalNotRetriable(t *testing.T) {
	eng := stubEngine{err: fmt.Errorf("execute: %w", &hyracks.TaskPanic{Op: "join", Partition: 2, Value: "boom"})}
	srv := httptest.NewServer(NewHandler(eng, Options{}))
	t.Cleanup(srv.Close)

	code, qr := postRaw(t, srv, `SELECT VALUE 1;`)
	if code != http.StatusInternalServerError {
		t.Fatalf("task panic returned HTTP %d, want 500", code)
	}
	if qr.Status != "fatal" || qr.Retriable {
		t.Fatalf("response %+v, want status=fatal retriable=false", qr)
	}
	if len(qr.Errors) == 0 || !strings.Contains(qr.Errors[0], "join[2]") {
		t.Fatalf("error text should name the failed task: %v", qr.Errors)
	}
}

func TestAdmissionTimeoutMapsToRetriable503(t *testing.T) {
	eng := meteredStub{stubEngine{err: fmt.Errorf("stmt 1: %w", mem.ErrAdmissionTimeout)}, obs.NewRegistry()}
	srv := httptest.NewServer(NewHandler(eng, Options{}))
	t.Cleanup(srv.Close)

	code, qr := postRaw(t, srv, `SELECT VALUE 1;`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("admission timeout returned HTTP %d, want 503", code)
	}
	if qr.Status != "timeout" || !qr.Retriable {
		t.Fatalf("response %+v, want status=timeout retriable=true", qr)
	}
	if got := eng.Metrics().Snapshot()["server_retriable_errors_total"]; got != int64(1) {
		t.Fatalf("server_retriable_errors_total = %v, want 1", got)
	}
}

// TestAdmissionTimeoutEndToEnd drives the whole stack: a held working-memory
// pool makes a real query miss its admission deadline; the service must
// answer 503/timeout/retriable, and the resend after release must succeed.
func TestAdmissionTimeoutEndToEnd(t *testing.T) {
	fixed, _ := time.Parse(time.RFC3339, "2019-04-01T00:00:00Z")
	eng, err := core.Open(core.Config{
		DataDir:       t.TempDir(),
		Partitions:    1,
		WorkingMemory: 64 << 10,
		AdmitTimeout:  100 * time.Millisecond,
		Now:           func() time.Time { return fixed },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv := httptest.NewServer(NewHandler(eng, Options{}))
	t.Cleanup(srv.Close)

	r := post(t, srv, `
		CREATE TYPE T AS {id: int};
		CREATE DATASET D(T) PRIMARY KEY id;
		UPSERT INTO D ([{"id": 1, "g": 1}, {"id": 2, "g": 1}, {"id": 3, "g": 2}]);
	`)
	if r.Status != "success" {
		t.Fatalf("setup: %+v", r)
	}

	gov := eng.MemGovernor()
	hold, err := gov.Reserve(context.Background(), gov.WorkingCap())
	if err != nil {
		t.Fatal(err)
	}

	const q = `SELECT g AS grp, COUNT(*) AS n FROM D d GROUP BY d.g AS g ORDER BY grp;`
	code, qr := postRaw(t, srv, q)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("starved query returned HTTP %d, want 503 (%+v)", code, qr)
	}
	if qr.Status != "timeout" || !qr.Retriable {
		t.Fatalf("response %+v, want status=timeout retriable=true", qr)
	}

	hold.Release()
	code, qr = postRaw(t, srv, q)
	if code != http.StatusOK || qr.Status != "success" {
		t.Fatalf("resend after release: HTTP %d %+v", code, qr)
	}
	if len(qr.Results) != 2 {
		t.Fatalf("resend rows = %d, want 2", len(qr.Results))
	}
	if qr.Metrics.PeakWorkingMemBytes <= 0 {
		t.Fatalf("peakWorkingMemBytes = %d, want > 0", qr.Metrics.PeakWorkingMemBytes)
	}
}

// TestStalledClientDisconnected proves the hardened server tears down a
// client that opens a connection and never finishes its request: the
// read-header deadline fires and the connection closes, instead of the
// goroutine idling forever (the bare ListenAndServe behavior).
func TestStalledClientDisconnected(t *testing.T) {
	srv := NewHTTPServer("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("server missing timeouts: %+v", srv)
	}
	// Shrink the deadlines so the test observes them quickly; the zero
	// values are what production guards against.
	srv.ReadHeaderTimeout = 150 * time.Millisecond
	srv.ReadTimeout = 300 * time.Millisecond

	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close(); <-done })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A torso of a request, then silence.
	if _, err := conn.Write([]byte("POST /query/service HTTP/1.1\r\nHost: x\r\nContent-Le")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	n, err := conn.Read(buf)
	// The server must close the connection — either a bare EOF or an
	// error response (408/400) followed by close; anything but hanging
	// until our own deadline.
	if err == nil {
		body := string(buf[:n])
		if !strings.Contains(body, "408") && !strings.Contains(body, "400") {
			t.Fatalf("unexpected payload for a stalled request: %q", body)
		}
		if _, err = conn.Read(buf); err == nil {
			t.Fatal("connection still open after timeout response")
		}
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		t.Fatal("server never disconnected the stalled client")
	}
}

// postBody posts an arbitrary JSON request body to /query/service.
func postBody(t *testing.T, srv *httptest.Server, body string) queryResponse {
	t.Helper()
	resp, err := http.Post(srv.URL+"/query/service", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return qr
}

func TestProfilePlanReturnsPlanAndRules(t *testing.T) {
	srv := newServer(t)
	post(t, srv, `
		CREATE TYPE UT AS {id: int};
		CREATE DATASET U(UT) PRIMARY KEY id;
		CREATE TYPE MT AS {mid: int};
		CREATE DATASET M(MT) PRIMARY KEY mid;
		UPSERT INTO U ([{"id": 1}, {"id": 2}]);
		UPSERT INTO M ([{"mid": 1, "aid": 1}, {"mid": 2, "aid": 2}]);`)
	qr := postBody(t, srv, `{"statement": "SELECT u.id AS a, m.mid AS b FROM U u, M m WHERE m.aid = u.id;", "profile": "plan"}`)
	if qr.Status != "success" {
		t.Fatalf("status %s: %v", qr.Status, qr.Errors)
	}
	if qr.Plan == nil || !strings.Contains(qr.Plan.Text, "join[inner,hash]") {
		t.Fatalf("plan missing or wrong: %+v", qr.Plan)
	}
	var tree struct {
		Op string `json:"op"`
	}
	if err := json.Unmarshal(qr.Plan.Tree, &tree); err != nil || tree.Op == "" {
		t.Fatalf("plan tree not a JSON op node: %v %s", err, qr.Plan.Tree)
	}
	if qr.Metrics.RulesFired["recognize-hash-join"] == 0 {
		t.Errorf("rulesFired missing hash-join recognition: %v", qr.Metrics.RulesFired)
	}
	if len(qr.Results) != 2 {
		t.Errorf("profile=plan must still execute: %d results", len(qr.Results))
	}
}

func TestExplainOnlyFlagDoesNotExecute(t *testing.T) {
	srv := newServer(t)
	post(t, srv, `
		CREATE TYPE UT AS {id: int};
		CREATE DATASET U(UT) PRIMARY KEY id;
		UPSERT INTO U ([{"id": 1}, {"id": 2}, {"id": 3}]);`)
	qr := postBody(t, srv, `{"statement": "SELECT VALUE u.id FROM U u;", "explain": true}`)
	if qr.Status != "success" {
		t.Fatalf("status %s: %v", qr.Status, qr.Errors)
	}
	if qr.Plan == nil || !strings.Contains(qr.Plan.Text, "scan(U as u)") {
		t.Fatalf("explain plan missing: %+v", qr.Plan)
	}
	// No data rows: the single result is the plan string itself.
	if len(qr.Results) != 1 || !strings.HasPrefix(string(qr.Results[0]), `"`) {
		t.Errorf("explain-only should return the plan, not rows: %v", qr.Results)
	}
	// Metrics endpoint carries the per-rule counters.
	resp, err := http.Get(srv.URL + "/admin/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), "optimizer_plans_total") {
		t.Error("optimizer counters missing from /admin/metrics")
	}
}

// TestEnginePanicGetsResponse checks that a panic while executing a
// statement still answers the request — HTTP 500, status fatal, an error
// naming the panic value — is logged with its stack and counted, and that
// the server answers its next request.
func TestEnginePanicGetsResponse(t *testing.T) {
	buf := captureLog(t)
	eng := meteredStub{stubEngine{res: []core.Result{{Kind: core.ResultQuery}}, panicOn: `SELECT VALUE 1;`}, obs.NewRegistry()}
	srv := httptest.NewServer(NewHandler(eng, Options{}))
	t.Cleanup(srv.Close)

	code, qr := postRaw(t, srv, `SELECT VALUE 1;`)
	if code != http.StatusInternalServerError || qr.Status != "fatal" {
		t.Fatalf("panic answered HTTP %d %+v, want 500 fatal", code, qr)
	}
	if len(qr.Errors) != 1 || !strings.Contains(qr.Errors[0], "operator state corrupt") {
		t.Fatalf("errors %q should name the panic value", qr.Errors)
	}
	if !strings.Contains(buf.String(), "operator state corrupt") || !strings.Contains(buf.String(), "goroutine") {
		t.Fatalf("log should hold the panic and its stack: %q", buf.String())
	}
	if got := eng.Metrics().Snapshot()["server_request_panics_total"]; got != int64(1) {
		t.Fatalf("server_request_panics_total = %v, want 1", got)
	}
	if code, qr := postRaw(t, srv, `SELECT VALUE 2;`); code != http.StatusOK || qr.Status != "success" {
		t.Fatalf("next request answered HTTP %d %+v, want 200 success", code, qr)
	}
}
