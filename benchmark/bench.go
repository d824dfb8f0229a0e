package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"asterix/internal/adm"
	"asterix/internal/core"
	"asterix/internal/server"
)

// Env is one set-up system under test: an engine, the query service in
// front of it on a loopback listener, and the oracle for its data.
type Env struct {
	w     *Workload
	scale Scale
	seed  int64
	dir   string

	eng    *core.Engine
	plain  *httptest.Server // server.NewHandler over the engine
	traced *httptest.Server // the same behind the benchmark's span wrappers; nil unless tracing
	tracer *Tracer
	client *http.Client

	oracle *Oracle
	writer *Writer // ingest and htap

	// Measured right after the set-up checkpoint, where a single-threaded
	// load makes them repeat exactly for a seed.
	storedBytes int64 // bytes of the storage directory
	userBytes   int64 // bytes of the live records as SQL++ literals
	walBytes    int64

	nextReq     atomic.Int64
	acked, sent atomic.Int64 // write statements acknowledged / sent
	// writtenBytes is the user bytes of every write statement drawn so far.
	// Only the one goroutine that writes touches it.
	writtenBytes int64
}

// Load is the generated input of a run, built once and shared by its set-ups.
type Load struct {
	data      *Dataset
	oracle    *Oracle
	users     []*adm.Object
	messages  []*adm.Object
	userBytes int64
}

func newLoad(seed int64, scale Scale) (*Load, error) {
	l := &Load{data: genDataset(seed, scale.Users, scale.Messages)}
	l.oracle = newOracle(l.data)
	l.userBytes = userBytes(l.data.Users) + userBytes(l.data.Messages)
	for _, u := range l.data.Users {
		o, err := u.object()
		if err != nil {
			return nil, err
		}
		l.users = append(l.users, o)
	}
	for _, m := range l.data.Messages {
		l.messages = append(l.messages, m.object())
	}
	return l, nil
}

// pageSize is the engine's default, set explicitly because lsm.write_amp
// multiplies page writes by it.
const pageSize = 8192

func engineConfig(w *Workload, dir string) core.Config {
	cfg := core.Config{DataDir: dir, Partitions: 2, Nodes: 2, PageSize: pageSize, NoSyncCommits: true}
	if w.Configure != nil {
		w.Configure(&cfg)
	}
	return cfg
}

// setUp opens an engine in dir, creates the schema, loads, checkpoints,
// starts the query service and runs every op class scale.Warm times. Its
// duration is one sample of setup_s.
func setUp(w *Workload, scale Scale, seed int64, load *Load, dir string, trace bool) (*Env, error) {
	eng, err := core.Open(engineConfig(w, dir))
	if err != nil {
		return nil, err
	}
	e := &Env{w: w, scale: scale, seed: seed, dir: dir, eng: eng, oracle: load.oracle}
	done := false
	defer func() {
		if !done {
			e.close()
		}
	}()
	ctx := context.Background()
	if _, err := eng.Execute(ctx, gleambookDDL); err != nil {
		return nil, err
	}
	if w.Ingest {
		if _, err := eng.Execute(ctx, authorIndexDDL+locationIndexDDL+keywordIndexDDL); err != nil {
			return nil, err
		}
		e.writer = newWriter(seed, scale.Users, 0)
		for len(e.writer.Records()) < scale.IngestPreload {
			for _, m := range e.writer.batch(scale.Batch) {
				if err := eng.UpsertValue("GleambookMessages", m.object()); err != nil {
					return nil, err
				}
			}
		}
	} else {
		for _, o := range load.users {
			if err := eng.UpsertValue("GleambookUsers", o); err != nil {
				return nil, err
			}
		}
		for _, o := range load.messages {
			if err := eng.UpsertValue("GleambookMessages", o); err != nil {
				return nil, err
			}
		}
		if _, err := eng.Execute(ctx, authorIndexDDL); err != nil {
			return nil, err
		}
		e.userBytes = load.userBytes
		if w.OpenLoopWriter {
			e.writer = newWriter(seed, scale.Users, scale.Messages)
		}
	}
	if err := eng.Checkpoint(); err != nil {
		return nil, err
	}
	if e.storedBytes, err = dirBytes(filepath.Join(dir, "storage")); err != nil {
		return nil, err
	}
	if e.walBytes, err = dirBytes(filepath.Join(dir, "txnlog")); err != nil {
		return nil, err
	}
	if w.Ingest {
		e.userBytes = userBytes(e.writer.Records())
	}

	// The slow-query log is off: it would write a line per analytics query
	// on a slow host.
	opts := server.Options{SlowQueryThreshold: -1}
	e.plain = httptest.NewServer(server.NewHandler(eng, opts))
	if trace {
		e.tracer = newTracer()
		e.traced = httptest.NewServer(tracedHandler{
			next:   server.NewHandler(tracedEngine{eng: eng, tracer: e.tracer}, opts),
			tracer: e.tracer,
		})
	}
	e.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: e.clients() + 1, DisableCompression: true}}

	for i := 0; i < scale.Warm; i++ {
		for _, op := range e.oneOfEach() {
			rec := e.issue(op, false)
			if _, err := e.verifyResponse(&rec); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", op.Class, err)
			}
		}
	}
	done = true
	return e, nil
}

// close stops the servers and the engine; it is safe on a partly set-up Env.
func (e *Env) close() {
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	for _, s := range []*httptest.Server{e.plain, e.traced} {
		if s != nil {
			s.Close()
		}
	}
	if e.eng != nil {
		_ = e.eng.Close() // the data directory is deleted next; nothing to save
		e.eng = nil
	}
}

// clients is the number of closed-loop clients: the workload's, but never
// more than nproc in total with the open-loop writer.
func (e *Env) clients() int {
	limit := runtime.NumCPU()
	if e.w.OpenLoopWriter {
		limit--
	}
	return max(1, min(e.w.Clients, limit))
}

func dirBytes(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// nextUpsert draws the next write statement.
func (e *Env) nextUpsert() Op {
	recs := e.writer.batch(e.scale.Batch)
	stmt, bytes := upsertStatement(recs)
	e.writtenBytes += bytes
	return Op{Class: classUpsert, Stmt: stmt, Key: len(recs)}
}

// source returns the op generator of closed-loop client c.
func (e *Env) source(c int) func() Op {
	if e.w.Cycle {
		classes := e.w.readClasses()
		i := 0
		return func() Op {
			class := classes[i%len(classes)]
			i++
			return Op{Class: class, Stmt: analyticsStatements[class]}
		}
	}
	return e.w.Source(e, subSeed(e.seed, streamClient+c))
}

// oneOfEach returns one op of every class of the workload, for warm-up and
// for the fixed pass that the exactly repeating counts are taken over.
func (e *Env) oneOfEach() []Op {
	var ops []Op
	if e.w.Cycle {
		next := e.source(0)
		for range e.w.readClasses() {
			ops = append(ops, next())
		}
	} else {
		// Draw from a stream of its own until every class has come up, so
		// that the timed clients' streams are not consumed.
		next := e.w.Source(e, rand.New(rand.NewSource(e.seed)))
		seen := map[string]bool{}
		for len(seen) < len(e.w.Classes) {
			if op := next(); !seen[op.Class] {
				seen[op.Class] = true
				ops = append(ops, op)
			}
		}
	}
	if e.w.OpenLoopWriter {
		ops = append(ops, e.nextUpsert())
	}
	return ops
}

// opRecord is one issued op with its raw outcome; responses are kept and
// checked after the timed phase so that checking does not load the clients.
type opRecord struct {
	op      Op
	traced  bool
	req     int64
	start   time.Time
	latency time.Duration // closed loop: send to last body byte; open loop: from the due time
	lag     time.Duration // open loop: how late the op was sent
	status  int
	body    []byte
	err     error
}

type queryResponse struct {
	Status  string            `json:"status"`
	Results []json.RawMessage `json:"results"`
	Errors  []string          `json:"errors"`
	Metrics struct {
		ParseTime           string `json:"parseTime"`
		OptimizeTime        string `json:"optimizeTime"`
		ExecuteTime         string `json:"executeTime"`
		ResultSize          int64  `json:"resultSize"`
		PeakWorkingMemBytes int64  `json:"peakWorkingMemBytes"`
	} `json:"metrics"`
}

// issue sends one op and reads the whole response.
func (e *Env) issue(op Op, traced bool) (rec opRecord) {
	rec = opRecord{op: op, traced: traced, req: e.nextReq.Add(1)}
	payload, err := json.Marshal(struct {
		Statement string `json:"statement"`
	}{op.Stmt})
	if err != nil {
		rec.err = err
		return rec
	}
	url := e.plain.URL
	if traced {
		url = e.traced.URL
	}
	req, err := http.NewRequest(http.MethodPost, url+"/query/service", bytes.NewReader(payload))
	if err != nil {
		rec.err = err
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(reqHeader, strconv.FormatInt(rec.req, 10))
	}
	// A read beside the writer must see every statement acknowledged before
	// it was sent and may see those sent before its response arrived.
	rec.op.AckedBefore = int(e.acked.Load())
	defer func() { rec.op.SentAfter = int(e.sent.Load()) }()
	if op.Class == classUpsert {
		e.sent.Add(1)
		defer e.acked.Add(1)
	}
	rec.start = time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		rec.err = err
		return rec
	}
	rec.status = resp.StatusCode
	rec.body, rec.err = io.ReadAll(resp.Body)
	end := time.Now()
	resp.Body.Close()
	rec.latency = end.Sub(rec.start)
	if traced {
		e.tracer.record(spanClient, rec.req, rec.start, end)
	}
	return rec
}

// verifyResponse checks one outcome: transport error, HTTP status, service
// status, then the results against the oracle.
func (e *Env) verifyResponse(rec *opRecord) (*queryResponse, error) {
	if rec.err != nil {
		return nil, rec.err
	}
	if rec.status != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %.200s", rec.status, rec.body)
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.body, &resp); err != nil {
		return nil, err
	}
	if resp.Status != "success" {
		return nil, fmt.Errorf("status %q: %v", resp.Status, resp.Errors)
	}
	var fresh [][]Message
	if e.w.OpenLoopWriter {
		fresh = e.writer.Stmts
	}
	return &resp, e.oracle.check(rec.op, resp.Results, fresh)
}

// Phase is the outcome of one timed phase.
type Phase struct {
	wall    time.Duration
	clients [][]opRecord // closed-loop clients, each in issue order
	writes  []opRecord   // open-loop writer
}

// ops returns every op of the phase in the order it was issued.
func (p *Phase) ops() []*opRecord {
	var all []*opRecord
	for c := range p.clients {
		for i := range p.clients[c] {
			all = append(all, &p.clients[c][i])
		}
	}
	for i := range p.writes {
		all = append(all, &p.writes[i])
	}
	sort.Slice(all, func(i, j int) bool { return all[i].req < all[j].req })
	return all
}

// timedPhase runs the workload's clients for the given time. When tracing,
// every other round of a client goes through the span wrappers, so traced
// and untraced requests see the same state of a changing system.
func (e *Env) timedPhase(length time.Duration) *Phase {
	p := &Phase{clients: make([][]opRecord, e.clients())}
	stop := make(chan struct{})
	start := time.Now()
	var wg sync.WaitGroup
	if e.w.OpenLoopWriter {
		// The reader runs until the writer's schedule ends.
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(stop)
			p.writes = e.openLoopWriter(start, length)
		}()
	} else {
		timer := time.AfterFunc(length, func() { close(stop) })
		defer timer.Stop()
	}
	for c := range p.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.clients[c] = e.closedLoop(e.source(c), stop)
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

func (e *Env) closedLoop(next func() Op, stop <-chan struct{}) []opRecord {
	period := e.w.period()
	var recs []opRecord
	for i := 0; ; i++ {
		select {
		case <-stop:
			return recs
		default:
		}
		recs = append(recs, e.issue(next(), e.traced != nil && (i/period)%2 == 1))
	}
}

// scheduled is one op of an open-loop schedule.
type scheduled struct {
	due     time.Duration // since the schedule began
	lag     time.Duration // how long after its due time the op was sent
	latency time.Duration // from its due time to its completion
}

// runSchedule calls send(i) at start + i*interval for every due time before
// start + length, never early and one at a time: an op that is still running
// when the next is due delays it, and that delay is part of the next op's
// latency, which is timed from when it was due.
func runSchedule(start time.Time, interval, length time.Duration, send func(i int)) []scheduled {
	var out []scheduled
	for i := 0; ; i++ {
		due := time.Duration(i) * interval
		if due >= length {
			return out
		}
		if wait := time.Until(start.Add(due)); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Since(start)
		send(i)
		out = append(out, scheduled{due: due, lag: sent - due, latency: time.Since(start) - due})
	}
}

func (e *Env) openLoopWriter(start time.Time, length time.Duration) []opRecord {
	interval := time.Duration(float64(time.Second) / e.scale.WriterRate)
	var recs []opRecord
	sched := runSchedule(start, interval, length, func(i int) {
		recs = append(recs, e.issue(e.nextUpsert(), e.traced != nil && i%2 == 1))
	})
	for i, s := range sched {
		recs[i].latency, recs[i].lag = s.latency, s.lag
	}
	return recs
}

// sameMessage compares a stored record with a generated one field by field.
func sameMessage(got *adm.Object, m Message) bool {
	fields := 3
	same := got.Get("messageId") == adm.Int64(m.ID) && got.Get("authorId") == adm.Int64(m.Author) &&
		got.Get("message") == adm.String(m.Text)
	if m.Reply >= 0 {
		fields++
		same = same && got.Get("inResponseTo") == adm.Int64(m.Reply)
	}
	if m.HasLoc {
		fields++
		same = same && got.Get("senderLocation") == adm.Point{X: m.X, Y: m.Y}
	}
	return same && got.Len() == fields
}

// verifyDurable is the end-of-run check of the writing workloads: after the
// crash stop, recovery must bring back the last acknowledged version of
// every key the writer wrote, and COUNT(*) must match. It returns the
// recovery time, the number of checks made and the failures.
func (e *Env) verifyDurable() (recovery time.Duration, checked int, failures []error) {
	t0 := time.Now()
	reopened, err := e.eng.Reopen()
	recovery = time.Since(t0)
	if err != nil {
		e.eng = nil
		return recovery, 1, []error{fmt.Errorf("reopen: %w", err)}
	}
	e.eng = reopened
	want := e.scale.Messages // plus the writer's keys; ingest starts empty
	if e.w.Ingest {
		want = 0
	}
	var recs []Message
	if e.writer != nil {
		recs = e.writer.Records()
		want += len(recs)
	}
	for _, m := range recs {
		checked++
		got, ok, err := reopened.GetKey("GleambookMessages", adm.Int64(m.ID))
		switch {
		case err != nil:
			failures = append(failures, fmt.Errorf("get %d: %w", m.ID, err))
		case !ok:
			failures = append(failures, fmt.Errorf("acknowledged key %d is missing after recovery", m.ID))
		case !sameMessage(got, m):
			failures = append(failures, fmt.Errorf("key %d is %s after recovery, want %+v", m.ID, adm.ToJSON(got), m))
		}
	}
	checked++
	res, err := reopened.Query(context.Background(), `SELECT VALUE COUNT(*) FROM GleambookMessages m;`)
	switch {
	case err != nil:
		failures = append(failures, fmt.Errorf("count: %w", err))
	case len(res.Rows) != 1 || res.Rows[0] != adm.Int64(want):
		failures = append(failures, fmt.Errorf("COUNT(*) is %v after recovery, want %d", res.Rows, want))
	}
	return recovery, checked, failures
}
