package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"asterix/internal/adm"
	"asterix/internal/hyracks"
	"asterix/internal/sqlpp"
	"asterix/internal/txn"
)

// The layer probes time calls into each layer's public functions, from
// outside, on the workload's own data and statements. They run after the
// timed phase of a traced run, with nothing else running.

// layerMetrics fills the per-layer metrics of a traced run and writes its
// span file.
func (e *Env) layerMetrics(rec *Record, o Options, load *Load, p *Phase,
	responses map[int64]*queryResponse, before, after counters, written int64) error {
	spans := e.tracer.spans
	if err := os.MkdirAll(o.TraceDir, 0o755); err != nil {
		return err
	}
	if err := e.tracer.write(filepath.Join(o.TraceDir, "trace-"+e.w.Name+".json")); err != nil {
		return err
	}
	set := rec.setLayer
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	// Spans: self time per layer, and the cross-instrument check of the
	// benchmark's core.Execute span against the phase times the server
	// reports for the same request.
	self := selfTimes(spans)
	execute := durations(spans, spanExecute)
	var clientSelf, serverSelf, resultBytes, agreement []float64
	agreementByClass := map[string][]float64{}
	ops := p.ops()
	var tracedOps []*opRecord
	var peakWorking int64
	resultRows := 0
	for _, r := range ops {
		resp := responses[r.req]
		if resp == nil {
			continue // failed; already counted
		}
		resultRows += len(resp.Results)
		peakWorking = max(peakWorking, resp.Metrics.PeakWorkingMemBytes)
		if !r.traced {
			continue
		}
		tracedOps = append(tracedOps, r)
		clientSelf = append(clientSelf, us(self[r.req][spanClient]))
		serverSelf = append(serverSelf, us(self[r.req][spanHandler]))
		resultBytes = append(resultBytes, float64(resp.Metrics.ResultSize))
		var reported time.Duration
		for _, s := range []string{resp.Metrics.ParseTime, resp.Metrics.OptimizeTime, resp.Metrics.ExecuteTime} {
			d, err := time.ParseDuration(s)
			if err != nil {
				return fmt.Errorf("response metrics: %w", err)
			}
			reported += d
		}
		if reported > 0 {
			ratio := float64(execute[r.req]) / float64(reported)
			agreement = append(agreement, ratio)
			agreementByClass[r.op.Class] = append(agreementByClass[r.op.Class], ratio)
		}
	}
	if len(tracedOps) == 0 {
		return fmt.Errorf("the timed phase traced no request")
	}
	set("client.self_us_per_req", median(clientSelf))
	set("server.self_us_per_req", median(serverSelf))
	set("server.result_bytes_per_req", mean(resultBytes))
	set("instrument_agreement", median(agreement))
	for class, ratios := range agreementByClass {
		rec.Diagnostics["instrument_agreement."+class] = Value{median(ratios), "ratio"}
	}
	set("tracing_overhead_pct", tracingOverhead(ops))

	// Replay the first traced statements, in the mix they were issued,
	// through the parser and the compiler alone. What remains of a request's
	// core.Execute span is job generation, the job and result collection.
	sample := tracedOps[:min(len(tracedOps), e.scale.ProbeStmts)]
	var parse, compile, run []float64
	for _, r := range sample {
		if _, err := sqlpp.ParseScript(r.op.Stmt); err != nil { // untimed first pass
			return err
		}
		t0 := time.Now()
		if _, err := sqlpp.ParseScript(r.op.Stmt); err != nil {
			return err
		}
		parseT := time.Since(t0)
		frontEnd := parseT
		if r.op.Class != classUpsert {
			t0 = time.Now()
			if _, err := e.eng.Explain(r.op.Stmt); err != nil {
				return fmt.Errorf("explain %s: %w", r.op.Class, err)
			}
			frontEnd = time.Since(t0)
			compile = append(compile, us(max(0, frontEnd-parseT)))
		}
		parse = append(parse, us(parseT))
		run = append(run, us(max(0, execute[r.req]-frontEnd))/1000)
	}
	set("sqlpp.parse_us_per_stmt", mean(parse))
	set("algebricks.compile_us_per_stmt", mean(compile))
	set("core.run_ms_per_stmt", mean(run))

	// Engine counters over the timed phase.
	nOps := float64(len(ops))
	set("hyracks.tuples_moved_per_result_row", ratio(float64(after.cluster.TuplesOut-before.cluster.TuplesOut), float64(resultRows)))
	set("hyracks.spills", float64(after.cluster.Spills-before.cluster.Spills))
	set("mem.waits", float64(after.gov.Waits-before.gov.Waits))
	set("mem.grow_denied", float64(after.gov.GrowDenied-before.gov.GrowDenied))
	set("mem.peak_working_bytes", float64(peakWorking))
	hits, misses := float64(after.cache.Hits-before.cache.Hits), float64(after.cache.Misses-before.cache.Misses)
	set("storage.hit_ratio", ratio(hits, hits+misses))
	set("storage.reads_per_op", float64(after.cache.Reads-before.cache.Reads)/nOps)
	pageWrites := float64(after.cache.Writes - before.cache.Writes)
	set("storage.page_writes", pageWrites)
	set("lsm.flushes", after.flushes-before.flushes)
	set("lsm.merges", after.merges-before.merges)
	set("lsm.flush_s", after.flushS-before.flushS)
	set("lsm.merge_s", after.mergeS-before.mergeS)
	set("lsm.write_amp", ratio(pageWrites*pageSize, float64(written)))
	set("txn.wal_bytes_per_user_byte", ratio(float64(after.wal-before.wal), float64(written)))
	set("allocs_per_op", float64(after.mallocs-before.mallocs)/nOps)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	set("heap_peak_mb", float64(ms.HeapSys)/(1<<20))

	// Read-only workloads have a fixed pass, one op of each class from one
	// client, whose counts must repeat exactly for a seed.
	if e.writer == nil {
		c0, err := e.snapshot()
		if err != nil {
			return err
		}
		rows := 0
		for _, op := range e.oneOfEach() {
			r := e.issue(op, false)
			resp, err := e.verifyResponse(&r)
			if err != nil {
				return fmt.Errorf("fixed pass %s: %w", op.Class, err)
			}
			rows += len(resp.Results)
		}
		c1, err := e.snapshot()
		if err != nil {
			return err
		}
		rec.Counts["pass.result_rows"] = int64(rows)
		rec.Counts["pass.tuples_out"] = c1.cluster.TuplesOut - c0.cluster.TuplesOut
		rec.Counts["pass.spills"] = c1.cluster.Spills - c0.cluster.Spills
		rec.Counts["pass.cache_hits"] = c1.cache.Hits - c0.cache.Hits
		rec.Counts["pass.cache_misses"] = c1.cache.Misses - c0.cache.Misses
		rec.Counts["pass.page_reads"] = c1.cache.Reads - c0.cache.Reads
	}

	// Storage: a full scan of the messages through the dataset's own scan
	// call, random primary-key gets, and the shape of the LSM.
	ds, ok := e.eng.Dataset("GleambookMessages")
	if !ok {
		return fmt.Errorf("dataset GleambookMessages is gone")
	}
	rows := 0
	t0 := time.Now()
	for part := 0; part < ds.Partitions(); part++ {
		if err := ds.ScanPartition(part, func(adm.Value) error { rows++; return nil }); err != nil {
			return err
		}
	}
	set("core.scan_ns_per_row", ratio(float64(time.Since(t0).Nanoseconds()), float64(rows)))
	r := subSeed(e.seed, streamProbe)
	t0 = time.Now()
	for i := 0; i < e.scale.ProbeKeys; i++ {
		if _, found, err := e.eng.GetKey("GleambookMessages", adm.Int64(r.Intn(rows))); err != nil || !found {
			return fmt.Errorf("get of a live key: found=%v err=%v", found, err)
		}
	}
	set("lsm.get_us", us(time.Since(t0))/float64(e.scale.ProbeKeys))
	components, _ := ds.LSMStats()
	set("lsm.components", float64(components))
	if err := ds.FlushAll(); err != nil {
		return err
	}
	stored, err := dirBytes(filepath.Join(e.dir, "storage"))
	if err != nil {
		return err
	}
	live := load.userBytes
	if e.writer != nil {
		live = userBytes(e.writer.Records())
		if !e.w.Ingest {
			live += load.userBytes
		}
	}
	set("lsm.space_amp_end", ratio(float64(stored), float64(live)))

	// adm: the workload's own records through the codec.
	recs := load.data.Messages
	if e.w.Ingest {
		recs = e.writer.Records()
	}
	recs = recs[:min(len(recs), e.scale.ProbeRecords)]
	objs := make([]*adm.Object, len(recs))
	for i, m := range recs {
		objs[i] = m.object()
	}
	encoded := make([][]byte, len(objs))
	n := float64(len(objs))
	probe := func(prefix string, f func(i int) error) error {
		for i := range objs { // untimed first pass
			if err := f(i); err != nil {
				return err
			}
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := range objs {
			if err := f(i); err != nil {
				return err
			}
		}
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&m1)
		set(prefix+"_ns_per_rec", float64(elapsed.Nanoseconds())/n)
		set(prefix+"_bytes_per_rec", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
		set(prefix+"_allocs_per_rec", float64(m1.Mallocs-m0.Mallocs)/n)
		return nil
	}
	var sink int
	if err := probe("adm.encode", func(i int) error { encoded[i] = adm.EncodeValue(objs[i]); return nil }); err != nil {
		return err
	}
	if err := probe("adm.decode", func(i int) error { _, err := adm.DecodeValue(encoded[i]); return err }); err != nil {
		return err
	}
	if err := probe("adm.tojson", func(i int) error { sink += len(adm.ToJSON(objs[i])); return nil }); err != nil {
		return err
	}
	_ = sink

	// hyracks: stand-alone single-partition jobs over synthetic tuples, on
	// the engine's own cluster, so they draw on the workload's working
	// memory and spill where its queries do.
	for _, op := range []string{"sort", "join", "groupby"} {
		d, in, err := e.operatorJob(op, e.scale.ProbeRows)
		if err != nil {
			return fmt.Errorf("stand-alone %s job: %w", op, err)
		}
		set("hyracks."+op+"_ns_per_row", float64(d.Nanoseconds())/float64(in))
	}
	return nil
}

// setLayer records a per-layer metric with the unit perLayer declares.
func (rec *Record) setLayer(name string, v float64) {
	for _, def := range perLayer {
		if def.Name == name {
			rec.Metrics[name] = Value{v, def.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in perLayer")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracingOverhead compares the traced and untraced requests of the same
// phase, class by class, by their median latency (a mean would be decided by
// which side the few flush and merge stalls fell on), and returns the share
// by which tracing lengthens the time the phase's requests take.
func tracingOverhead(ops []*opRecord) float64 {
	byClass := map[string]*[2][]float64{}
	for _, r := range ops {
		if byClass[r.op.Class] == nil {
			byClass[r.op.Class] = &[2][]float64{}
		}
		side := 0
		if r.traced {
			side = 1
		}
		byClass[r.op.Class][side] = append(byClass[r.op.Class][side], r.latency.Seconds())
	}
	var extra, base float64
	for _, sides := range byClass {
		if len(sides[0]) == 0 || len(sides[1]) == 0 {
			continue
		}
		n := float64(len(sides[0]) + len(sides[1]))
		extra += n * (median(sides[1]) - median(sides[0]))
		base += n * median(sides[0])
	}
	return ratio(extra, base) * 100
}

// operatorJob runs one memory-intensive operator alone and returns its wall
// time and the number of input tuples.
func (e *Env) operatorJob(op string, rows int) (time.Duration, int, error) {
	gen := func(n int, key func(r *rand.Rand, i int) int64) *hyracks.Operator {
		return hyracks.NewScan("gen", 1, func(_ *hyracks.TaskContext, emit func(hyracks.Tuple) error) error {
			r := rand.New(rand.NewSource(5))
			for i := 0; i < n; i++ {
				if err := emit(hyracks.Tuple{adm.Int64(key(r, i)), adm.String("payload-padding-1234567890")}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	keys := int64(max(1, rows/4))
	random := func(r *rand.Rand, _ int) int64 { return r.Int63() }
	repeated := func(r *rand.Rand, _ int) int64 { return r.Int63n(keys) }
	j := hyracks.NewJob()
	out := 0
	sink := j.Add(hyracks.NewFuncSink("sink", 1, func(int, hyracks.Tuple) error { out++; return nil }))
	in, want := rows, rows
	switch op {
	case "sort":
		s := j.Add(hyracks.NewSort("sort", 1, hyracks.Comparator{Columns: []int{0}}))
		j.MustConnect(j.Add(gen(rows, random)), s, 0, hyracks.OneToOne())
		j.MustConnect(s, sink, 0, hyracks.OneToOne())
	case "groupby":
		g := j.Add(hyracks.NewGroupBy("groupby", 1, []int{0}, []hyracks.AggSpec{hyracks.CountAgg(-1)}))
		j.MustConnect(j.Add(gen(rows, repeated)), g, 0, hyracks.OneToOne())
		j.MustConnect(g, sink, 0, hyracks.OneToOne())
		want = -1 // the number of distinct keys drawn
	case "join":
		// Every probe tuple matches exactly one of the build side's keys.
		hj := j.Add(hyracks.NewHashJoin("join", 1, []int{0}, []int{0}, hyracks.InnerJoin, 2, nil))
		j.MustConnect(j.Add(gen(rows, repeated)), hj, 0, hyracks.OneToOne())
		j.MustConnect(j.Add(gen(int(keys), func(_ *rand.Rand, i int) int64 { return int64(i) })), hj, 1, hyracks.OneToOne())
		j.MustConnect(hj, sink, 0, hyracks.OneToOne())
		in = rows + int(keys)
	default:
		return 0, 0, fmt.Errorf("unknown operator %q", op)
	}
	t0 := time.Now()
	if err := e.eng.Cluster().Run(context.Background(), j); err != nil {
		return 0, 0, err
	}
	d := time.Since(t0)
	if want >= 0 && out != want {
		return 0, 0, fmt.Errorf("%d output tuples, want %d", out, want)
	}
	if out == 0 {
		return 0, 0, fmt.Errorf("no output")
	}
	return d, in, nil
}

// countRedo runs the transaction manager's recovery pass over a log
// directory with an apply function that only counts.
func countRedo(logDir string) (int, error) {
	log, err := txn.OpenLog(logDir)
	if err != nil {
		return 0, err
	}
	n, err := txn.NewManager(log).Recover(func(*txn.LogRecord) error { return nil })
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	return n, err
}
