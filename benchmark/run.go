package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"asterix/internal/hyracks"
	"asterix/internal/mem"
	"asterix/internal/obs"
	"asterix/internal/storage"
)

// MetricDef names a metric as BENCHMARK.json does.
type MetricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the metrics an untraced run reports, for every workload.
// BENCHMARK.json holds their bounds; README.md says what each means on each
// workload.
var endToEnd = []MetricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "ops/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"stored_bytes_per_user_byte", "ratio", "lower"},
}

// perLayer lists the metrics a traced run reports, for every workload.
var perLayer = []MetricDef{
	{"client.self_us_per_req", "us", "lower"},
	{"server.self_us_per_req", "us", "lower"},
	{"server.result_bytes_per_req", "bytes", "lower"},
	{"sqlpp.parse_us_per_stmt", "us", "lower"},
	{"algebricks.compile_us_per_stmt", "us", "lower"},
	{"core.run_ms_per_stmt", "ms", "lower"},
	{"core.scan_ns_per_row", "ns", "lower"},
	{"adm.decode_ns_per_rec", "ns", "lower"},
	{"adm.decode_bytes_per_rec", "bytes", "lower"},
	{"adm.decode_allocs_per_rec", "count", "lower"},
	{"adm.encode_ns_per_rec", "ns", "lower"},
	{"adm.encode_bytes_per_rec", "bytes", "lower"},
	{"adm.encode_allocs_per_rec", "count", "lower"},
	{"adm.tojson_ns_per_rec", "ns", "lower"},
	{"adm.tojson_bytes_per_rec", "bytes", "lower"},
	{"adm.tojson_allocs_per_rec", "count", "lower"},
	{"hyracks.tuples_moved_per_result_row", "ratio", "lower"},
	{"hyracks.spills", "count", "lower"},
	{"hyracks.sort_ns_per_row", "ns", "lower"},
	{"hyracks.join_ns_per_row", "ns", "lower"},
	{"hyracks.groupby_ns_per_row", "ns", "lower"},
	{"mem.waits", "count", "lower"},
	{"mem.grow_denied", "count", "lower"},
	{"mem.peak_working_bytes", "bytes", "lower"},
	{"storage.hit_ratio", "ratio", "higher"},
	{"storage.reads_per_op", "count", "lower"},
	{"storage.page_writes", "count", "lower"},
	{"lsm.get_us", "us", "lower"},
	{"lsm.components", "count", "lower"},
	{"lsm.merges", "count", "lower"},
	{"lsm.flushes", "count", "lower"},
	{"lsm.flush_s", "s", "lower"},
	{"lsm.merge_s", "s", "lower"},
	{"lsm.write_amp", "ratio", "lower"},
	{"lsm.space_amp_end", "ratio", "lower"},
	{"txn.wal_bytes_per_user_byte", "ratio", "lower"},
	{"txn.recovery_s", "s", "lower"},
	{"txn.recovered_records", "count", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"heap_peak_mb", "MB", "lower"},
	{"tracing_overhead_pct", "%", "lower"},
	{"instrument_agreement", "ratio", "lower"},
}

// Value is one measured metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Environment is recorded with every result.
type Environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// FlushPolicy states how commits reach the disk, which both sides of a
	// comparison must share.
	FlushPolicy string `json:"flush_policy"`
}

func environment(commit string) Environment {
	return Environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit,
		FlushPolicy: "NoSyncCommits: no fsync per commit; flush and merge are size-triggered and run on the writer's thread"}
}

// Record is the full result of one run; -out appends it to a file as one
// JSON line, and -compare reads such files.
type Record struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Trace    bool        `json:"trace"`
	Scale    string      `json:"scale"`
	Env      Environment `json:"env"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Metrics are the end-to-end metrics of an untraced run, or the
	// per-layer metrics of a traced one.
	Metrics map[string]Value `json:"metrics"`
	// Classes has the client-observed latency of every op class.
	Classes map[string]Latency `json:"classes"`
	// Diagnostics are printed and stored but carry no bound.
	Diagnostics map[string]Value `json:"diagnostics,omitempty"`
	// Counts must repeat exactly between runs of one seed when the workload
	// has a single client and no timed writer.
	Counts map[string]int64 `json:"counts,omitempty"`
	// Digests fingerprint the results arrays of the fixed statements.
	Digests map[string]string `json:"digests,omitempty"`
	Errors  []string          `json:"errors,omitempty"`
}

// Options selects one run.
type Options struct {
	Seed     int64
	Length   time.Duration // of the timed phase
	Trace    bool
	Scale    Scale
	Commit   string // recorded in the result's environment
	WorkDir  string // engine data directories are made and removed here
	TraceDir string // span files of traced runs are written here
}

// counters are the engine's cumulative counts the benchmark reads from
// outside; metrics are differences of two snapshots.
type counters struct {
	cache   storage.Stats
	cluster hyracks.NodeStats
	gov     mem.Stats
	flushes float64
	merges  float64
	flushS  float64
	mergeS  float64
	wal     int64
	mallocs uint64
}

func (e *Env) snapshot() (counters, error) {
	c := counters{cache: e.eng.BufferCacheStats(), cluster: e.eng.Cluster().TotalStats(),
		gov: e.eng.MemGovernor().StatsSnapshot()}
	snap := e.eng.Metrics().Snapshot()
	num := func(name string) float64 {
		switch v := snap[name].(type) {
		case int64:
			return float64(v)
		case float64:
			return v
		case obs.HistogramSnapshot:
			return v.Sum
		}
		return 0
	}
	c.flushes, c.merges = num("lsm_flushes_total"), num("lsm_merges_total")
	c.flushS, c.mergeS = num("lsm_flush_duration_seconds"), num("lsm_merge_duration_seconds")
	var err error
	c.wal, err = dirBytes(filepath.Join(e.dir, "txnlog"))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	return c, err
}

// runWorkload performs one run: set-ups, the timed phase, verification and,
// when tracing, the layer probes.
func runWorkload(w *Workload, o Options) (*Record, error) {
	rec := &Record{Workload: w.Name, Seed: o.Seed, Seconds: o.Length.Seconds(), Trace: o.Trace,
		Scale: o.Scale.Name, Env: environment(o.Commit), Metrics: map[string]Value{},
		Classes: map[string]Latency{}, Diagnostics: map[string]Value{}, Counts: map[string]int64{}}
	load, err := newLoad(o.Seed, o.Scale)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.WorkDir, 0o755); err != nil {
		return nil, err
	}

	// Set-up runs several times, each in a fresh directory, and setup_s is
	// the median; the last one is the system the timed phase measures. A
	// traced run reports no set-up time and sets up once.
	setups := o.Scale.Setups
	if o.Trace {
		setups = 1
	}
	var env *Env
	var setupS []float64
	for i := 0; i < setups; i++ {
		dir, err := os.MkdirTemp(o.WorkDir, w.Name+"-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		start := time.Now()
		e, err := setUp(w, o.Scale, o.Seed, load, dir, o.Trace)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if i < setups-1 {
			e.close()
			os.RemoveAll(dir)
			continue
		}
		env = e
	}
	defer env.close()
	// The loaded objects are garbage now; collect them before timing.
	load.users, load.messages = nil, nil
	runtime.GC()

	rec.Counts["setup.stored_bytes"] = env.storedBytes
	rec.Counts["setup.user_bytes"] = env.userBytes
	rec.Counts["setup.wal_bytes"] = env.walBytes
	writtenBefore := env.writtenBytes
	before, err := env.snapshot()
	if err != nil {
		return nil, err
	}
	phase := env.timedPhase(o.Length)
	after, err := env.snapshot()
	if err != nil {
		return nil, err
	}
	written := env.writtenBytes - writtenBefore

	// Verification, after the clock has stopped.
	responses := map[int64]*queryResponse{}
	fail := func(err error) {
		rec.Failed++
		if len(rec.Errors) < 10 {
			rec.Errors = append(rec.Errors, err.Error())
		}
	}
	for _, r := range phase.ops() {
		rec.Attempted++
		resp, err := env.verifyResponse(r)
		if err != nil {
			fail(fmt.Errorf("%s: %w", r.op.Class, err))
			continue
		}
		responses[r.req] = resp
		if w.Cycle && r.op.Class != classUpsert && !w.OpenLoopWriter {
			d := digest(r.op.Class, resp.Results)
			if rec.Digests == nil {
				rec.Digests = map[string]string{}
			}
			if prev, ok := rec.Digests[r.op.Class]; ok && prev != d {
				fail(fmt.Errorf("%s: results differ between two runs of the statement", r.op.Class))
			}
			rec.Digests[r.op.Class] = d
		}
	}
	if rec.Attempted == 0 {
		return nil, fmt.Errorf("the timed phase completed no op")
	}

	summarizePhase(rec, w, phase, setupS, env)

	if o.Trace {
		if err := env.layerMetrics(rec, o, load, phase, responses, before, after, written); err != nil {
			return nil, err
		}
	}

	// The writing workloads end with a crash: a checkpoint, a fixed tail of
	// further statements that only the log holds, a crash stop, and a
	// recovery after which the last acknowledged version of every key must
	// be readable. (Redoing the whole timed phase instead would take longer
	// than the phase.) A traced run does the same on every workload, to time
	// recovery.
	if env.writer != nil || o.Trace {
		if err := env.eng.Checkpoint(); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		if env.writer != nil {
			for i := 0; i < o.Scale.CrashTail; i++ {
				r := env.issue(env.nextUpsert(), false)
				rec.Attempted++
				if _, err := env.verifyResponse(&r); err != nil {
					fail(fmt.Errorf("%s: %w", r.op.Class, err))
				}
			}
		}
		if err := env.eng.CrashStop(); err != nil {
			return nil, fmt.Errorf("crash stop: %w", err)
		}
		if o.Trace {
			redo, err := countRedo(filepath.Join(env.dir, "txnlog"))
			if err != nil {
				return nil, err
			}
			rec.setLayer("txn.recovered_records", float64(redo))
		}
		recovery, checked, failures := env.verifyDurable()
		rec.Attempted += checked
		for _, err := range failures {
			fail(err)
		}
		if o.Trace {
			rec.setLayer("txn.recovery_s", recovery.Seconds())
		}
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// summarizePhase fills the end-to-end metrics, the per-class latencies and
// the diagnostics of the timed phase.
func summarizePhase(rec *Record, w *Workload, p *Phase, setupS []float64, e *Env) {
	byClass := map[string][]float64{}
	var rounds, lags []float64
	work := 0.0 // queries; records on ingest
	round := len(w.readClasses())
	for _, client := range p.clients {
		for i, r := range client {
			ms := float64(r.latency) / float64(time.Millisecond)
			byClass[r.op.Class] = append(byClass[r.op.Class], ms)
			if r.op.Class == classUpsert {
				work += float64(r.op.Key)
			} else {
				work++
			}
			if w.Cycle && i%round == round-1 {
				var sum float64
				for _, rr := range client[i-round+1 : i+1] {
					sum += float64(rr.latency) / float64(time.Millisecond)
				}
				rounds = append(rounds, sum)
			}
		}
	}
	for _, r := range p.writes {
		byClass[r.op.Class] = append(byClass[r.op.Class], float64(r.latency)/float64(time.Millisecond))
		lags = append(lags, float64(r.lag)/float64(time.Millisecond))
	}
	for class, ms := range byClass {
		rec.Classes[class] = summarize(ms)
	}

	// p50_ms is the median latency of the request a user of this workload
	// waits for: the writer's statement beside a reader, a round of the
	// cycled classes, or the first class of a mix.
	headline := byClass[w.Classes[0]]
	switch {
	case w.OpenLoopWriter:
		headline = byClass[classUpsert]
	case w.Cycle:
		headline = rounds
	}
	if !rec.Trace {
		rec.Metrics["setup_s"] = Value{median(setupS), "s"}
		rec.Metrics["throughput_ops_s"] = Value{work / p.wall.Seconds(), "ops/s"}
		rec.Metrics["p50_ms"] = Value{median(headline), "ms"}
		rec.Metrics["stored_bytes_per_user_byte"] = Value{float64(e.storedBytes) / float64(e.userBytes), "ratio"}
	}
	rec.Diagnostics["timed_wall_s"] = Value{p.wall.Seconds(), "s"}
	for i, s := range setupS {
		rec.Diagnostics[fmt.Sprintf("setup_s.%d", i+1)] = Value{s, "s"}
	}
	if len(lags) > 0 {
		rec.Diagnostics["writer_lag_ms.p50"] = Value{median(lags), "ms"}
		rec.Diagnostics["writer_lag_ms.max"] = Value{slices.Max(lags), "ms"}
	}
}
