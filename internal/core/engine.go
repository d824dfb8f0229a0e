package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"asterix/internal/adm"
	"asterix/internal/algebricks"
	"asterix/internal/fault"
	"asterix/internal/hyracks"
	"asterix/internal/lsm"
	"asterix/internal/mem"
	"asterix/internal/metadata"
	"asterix/internal/obs"
	"asterix/internal/sqlpp"
	"asterix/internal/storage"
	"asterix/internal/txn"
)

// Config configures an Engine.
type Config struct {
	// DataDir is the root of all persistent state (required).
	DataDir string
	// Partitions is the number of storage/index partitions per dataset —
	// the simulated shared-nothing "nodes" of Figure 1 (default 2).
	Partitions int
	// Nodes must be 0 or equal to Partitions: every partition runs on a
	// node controller of its own.
	Nodes int
	// PageSize is the buffer-cache page size (default 8192).
	PageSize int
	// TotalMemory, when set, is the single budget of Figure 2: the memory
	// governor splits it across the buffer cache, the LSM component pool,
	// and query working memory. The component pool gets a quarter; knobs
	// left unset are derived from the total (the buffer cache gets a
	// quarter, working memory the remainder), explicitly-set knobs are
	// honored as carve-outs. Zero means "derive the total from the legacy
	// knobs instead", with a component pool of 4x MemComponentBudget.
	TotalMemory int64
	// BufferPages is the buffer-cache size in pages (default 4096, or
	// TotalMemory/4 worth of pages).
	BufferPages int
	// MemComponentBudget bounds each LSM memory component (default a
	// quarter of mem.DefaultComponentBytes, or TotalMemory/16).
	MemComponentBudget int
	// WorkingMemory caps the governor's query working-memory pool,
	// shared by all concurrent sorts/joins/aggregations (default
	// mem.DefaultWorkingBytes, or what TotalMemory leaves after the other
	// pools).
	WorkingMemory int
	// AdmitTimeout bounds how long a query waits for working-memory
	// admission before failing retriably (default 10s).
	AdmitTimeout time.Duration
	// MergePolicy for LSM components (default ConstantPolicy{4}).
	MergePolicy lsm.MergePolicy
	// NoSyncCommits skips the per-commit log fsync (a group-commit
	// stand-in for ingest-heavy workloads and benchmarks; recovery from
	// in-process failures is unaffected).
	NoSyncCommits bool
	// Compression deflate-compresses stored record values (the storage-
	// compression feature §VII credits to community contributors).
	// Compressed and raw records coexist, so the option can be toggled
	// across restarts.
	Compression bool
	// OptimizerDisable names rewrite rules to skip (see
	// algebricks.DefaultRules), for experiment ablations such as turning
	// off only greedy join ordering. Naming every rule runs each query
	// exactly as translated.
	OptimizerDisable []string
	// Now overrides the statement clock (tests); nil = time.Now.
	Now func() time.Time

	// componentPool caps the governor's shared LSM memory-component pool
	// across all datasets; withDefaults derives it.
	componentPool int
}

func (c Config) withDefaults() (Config, error) {
	if c.DataDir == "" {
		return c, fmt.Errorf("core: Config.DataDir is required")
	}
	if c.Partitions <= 0 {
		c.Partitions = 2
	}
	if c.Nodes != 0 && c.Nodes != c.Partitions {
		return c, fmt.Errorf("core: Config.Nodes %d differs from Partitions %d", c.Nodes, c.Partitions)
	}
	if c.PageSize <= 0 {
		c.PageSize = 8192
	}
	if c.AdmitTimeout <= 0 {
		c.AdmitTimeout = 10 * time.Second
	}
	if c.TotalMemory > 0 {
		// One-knob sizing: derive the pools Figure 2 splits the budget
		// into, honoring any explicitly-set legacy knob as a carve-out.
		if c.TotalMemory < 1<<20 {
			return c, fmt.Errorf("core: Config.TotalMemory %d is below the 1 MiB minimum", c.TotalMemory)
		}
		if c.BufferPages <= 0 {
			c.BufferPages = int(c.TotalMemory/4) / c.PageSize
			if c.BufferPages < 64 {
				c.BufferPages = 64
			}
		}
		c.componentPool = int(c.TotalMemory / 4)
		if c.MemComponentBudget <= 0 {
			// At least 64 KiB, since the total is at least 1 MiB.
			c.MemComponentBudget = c.componentPool / 4
		}
		if c.WorkingMemory <= 0 {
			w := c.TotalMemory - int64(c.BufferPages)*int64(c.PageSize) - int64(c.componentPool)
			if w <= 0 {
				return c, fmt.Errorf("core: Config.TotalMemory %d leaves no working memory after the buffer cache (%d) and component pool (%d)",
					c.TotalMemory, c.BufferPages*c.PageSize, c.componentPool)
			}
			c.WorkingMemory = int(w)
		}
	} else {
		// Legacy knobs: default each pool, then report their sum as the
		// total budget.
		if c.BufferPages <= 0 {
			c.BufferPages = 4096
		}
		if c.MemComponentBudget <= 0 {
			c.MemComponentBudget = mem.DefaultComponentBytes / 4
		}
		c.componentPool = 4 * c.MemComponentBudget
		if c.WorkingMemory <= 0 {
			c.WorkingMemory = mem.DefaultWorkingBytes
		}
		c.TotalMemory = int64(c.BufferPages)*int64(c.PageSize) + int64(c.componentPool) + int64(c.WorkingMemory)
	}
	// A misspelt or renamed rule would make its ablation a silent no-op.
	var rules []string
	for _, r := range algebricks.DefaultRules() {
		rules = append(rules, r.Name)
	}
	for _, name := range c.OptimizerDisable {
		if !slices.Contains(rules, name) {
			return c, fmt.Errorf("core: Config.OptimizerDisable names unknown rule %q; the rules are %s",
				name, strings.Join(rules, ", "))
		}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c, nil
}

// Engine is the embedded BDMS instance.
type Engine struct {
	cfg     Config
	fm      *storage.FileManager
	bc      *storage.BufferCache
	catalog *metadata.Catalog
	cluster *hyracks.Cluster
	txmgr   *txn.Manager
	gov     *mem.Governor
	// maint flushes and merges every LSM index off the writers' threads.
	maint *lsm.Worker
	opt   *algebricks.Optimizer

	// Observability: the registry is shared by every subsystem; the
	// engine-level instruments below are pushed per statement.
	reg         *obs.Registry
	mStatements *obs.Counter
	mQueries    *obs.Counter
	mStmtErrors *obs.Counter
	mQueryDur   *obs.Histogram

	mu       sync.Mutex
	datasets map[string]*Dataset
}

// Open opens (or creates) an engine instance, running crash recovery from
// the write-ahead log.
func Open(cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// The catalog is read first: a directory of another storage format is
	// refused before anything in it is opened, created or repaired.
	cat, err := metadata.Open(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	fm, err := storage.NewFileManager(filepath.Join(cfg.DataDir, "storage"), cfg.PageSize)
	if err != nil {
		return nil, err
	}
	log, err := txn.OpenLog(filepath.Join(cfg.DataDir, "txnlog"))
	if err != nil {
		return nil, err
	}
	cluster, err := hyracks.NewCluster(cfg.Partitions, filepath.Join(cfg.DataDir, "tmp"))
	if err != nil {
		return nil, errors.Join(err, log.Close())
	}
	bc := storage.NewBufferCache(fm, cfg.BufferPages)
	reg := obs.NewRegistry()
	// One governor owns the whole Figure 2 budget: the buffer cache's
	// fixed slice, the shared LSM component pool, and the query working
	// pool every Hyracks job is admitted through.
	gov := mem.NewGovernor(mem.Config{
		BufferCacheBytes: bc.CapacityBytes(),
		ComponentBytes:   int64(cfg.componentPool),
		WorkingBytes:     int64(cfg.WorkingMemory),
		AdmitTimeout:     cfg.AdmitTimeout,
		Metrics:          reg,
	})
	cluster.Gov = gov
	e := &Engine{
		cfg:      cfg,
		fm:       fm,
		bc:       bc,
		catalog:  cat,
		cluster:  cluster,
		txmgr:    txn.NewManager(log),
		gov:      gov,
		maint:    &lsm.Worker{},
		datasets: map[string]*Dataset{},
	}
	e.txmgr.NoSync = cfg.NoSyncCommits
	e.registerMetrics(reg)
	// Open all datasets, then redo committed updates since the last
	// checkpoint.
	for name, def := range cat.Datasets {
		d, err := e.openDataset(def)
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("core: open dataset %s: %w", name, err)
		}
		e.datasets[name] = d
	}
	if _, err := e.Recover(); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// Recover redoes committed updates from the WAL into LSM memory
// components, returning the number of records replayed. An update names its
// dataset by incarnation — one of a dataset dropped since names no open
// dataset and is skipped — and carries the value as stored, which redo
// decodes with the dataset's type for index maintenance.
func (e *Engine) Recover() (int, error) {
	w := &indexWriter{redo: true}
	byIncarnation := map[int64]*Dataset{}
	for _, d := range e.datasets {
		byIncarnation[d.def.Incarnation] = d
	}
	return e.txmgr.Recover(func(rec *txn.LogRecord) error {
		d, ok := byIncarnation[rec.Incarnation]
		if !ok {
			return nil // dataset dropped after the logged update
		}
		var o *adm.Object
		if rec.Op == txn.OpUpsert {
			var err error
			if o, err = d.decodeRecord(rec.Value); err != nil {
				return err
			}
		}
		return d.apply(rec, o, w)
	})
}

// Checkpoint flushes all memory components and truncates the redo window.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	datasets := make([]*Dataset, 0, len(e.datasets))
	for _, d := range e.datasets {
		datasets = append(datasets, d)
	}
	e.mu.Unlock()
	for _, d := range datasets {
		if d.def.External {
			continue
		}
		if err := d.FlushAll(); err != nil {
			return err
		}
	}
	if err := e.bc.FlushAll(); err != nil {
		return err
	}
	return e.txmgr.Checkpoint()
}

// Close lets the flushes and merges under way finish, flushes caches and
// closes files (without checkpointing; reopen will recover from the log).
// Every stage runs even if an earlier one fails; the errors are joined.
func (e *Engine) Close() error {
	e.maint.Drain()
	return errors.Join(e.bc.FlushAll(), e.fm.Close(), e.txmgr.Log.Close())
}

// CrashStop simulates a hard crash: maintenance is abandoned and file
// handles close WITHOUT flushing the buffer cache or checkpointing, so
// only state already durable (the WAL, flushed components, manifests)
// survives. The engine is unusable afterwards; Reopen the DataDir to run
// recovery.
func (e *Engine) CrashStop() error {
	e.maint.Stop()
	return errors.Join(e.fm.Close(), e.txmgr.Log.Close())
}

// Reopen opens a fresh engine over this engine's DataDir with the same
// configuration — the crash-recovery path: call CrashStop (or Close)
// first, then Reopen replays the WAL via txn.Manager.Recover into the
// LSM datasets.
func (e *Engine) Reopen() (*Engine, error) {
	return Open(e.cfg)
}

// registerMetrics binds the engine's registry: push-style engine
// instruments plus scrape-time callbacks publishing the private counters
// of the storage buffer cache, Hyracks nodes, and transaction manager.
// LSM flush/merge metrics are pre-created here so exposition always lists
// them; the trees share them by name (see lsm.Options.Metrics).
func (e *Engine) registerMetrics(reg *obs.Registry) {
	e.reg = reg
	// One optimizer per engine so per-rule fired counters accumulate in
	// the registry (surfaced at /admin/metrics).
	e.opt = algebricks.NewOptimizer(reg)
	e.opt.Disabled = map[string]bool{}
	for _, name := range e.cfg.OptimizerDisable {
		e.opt.Disabled[name] = true
	}
	e.mStatements = reg.Counter("engine_statements_total", "statements executed")
	e.mQueries = reg.Counter("engine_queries_total", "query statements executed")
	e.mStmtErrors = reg.Counter("engine_statement_errors_total", "statements that returned an error")
	e.mQueryDur = reg.Histogram("engine_query_duration_seconds", "per-statement wall time", nil)

	reg.Counter("lsm_flushes_total", "LSM memory-component flushes")
	reg.Counter("lsm_merges_total", "LSM disk-component merges")
	reg.Histogram("lsm_flush_duration_seconds", "LSM flush wall time", nil)
	reg.Histogram("lsm_merge_duration_seconds", "LSM merge wall time", nil)
	reg.Gauge("lsm_sealed_components", "sealed memory components waiting for or in their flush")
	reg.Histogram("lsm_writer_stall_seconds", "time a writer waited for an index's sealed slot to free", nil)

	bc := e.bc
	reg.RegisterFunc("storage_buffercache_hits_total", "buffer-cache page hits", obs.TypeCounter,
		func() float64 { return float64(bc.Stats().Hits) })
	reg.RegisterFunc("storage_buffercache_misses_total", "buffer-cache page misses", obs.TypeCounter,
		func() float64 { return float64(bc.Stats().Misses) })
	reg.RegisterFunc("storage_buffercache_reads_total", "physical page reads", obs.TypeCounter,
		func() float64 { return float64(bc.Stats().Reads) })
	reg.RegisterFunc("storage_buffercache_writes_total", "physical page writes", obs.TypeCounter,
		func() float64 { return float64(bc.Stats().Writes) })
	reg.RegisterFunc("storage_buffercache_hit_ratio", "hits / (hits+misses)", obs.TypeGauge,
		func() float64 { return bc.Stats().HitRatio() })

	cl := e.cluster
	reg.RegisterFunc("hyracks_tuples_in_total", "tuples received by operator tasks", obs.TypeCounter,
		func() float64 { return float64(cl.TotalStats().TuplesIn) })
	reg.RegisterFunc("hyracks_tuples_out_total", "tuples emitted by operator tasks", obs.TypeCounter,
		func() float64 { return float64(cl.TotalStats().TuplesOut) })
	reg.RegisterFunc("hyracks_rows_read_total", "stored records visited by leaf tasks, emitted or filtered out", obs.TypeCounter,
		func() float64 { return float64(cl.TotalStats().RowsRead) })
	reg.RegisterFunc("hyracks_spills_total", "run-file spills across all nodes", obs.TypeCounter,
		func() float64 { return float64(cl.TotalStats().Spills) })
	reg.RegisterFunc("hyracks_nodes", "node controllers in the cluster", obs.TypeGauge,
		func() float64 { return float64(len(cl.Nodes)) })

	tm := e.txmgr
	reg.RegisterFunc("txn_begins_total", "transactions started", obs.TypeCounter,
		func() float64 { return float64(tm.Stats().Begins) })
	reg.RegisterFunc("txn_commits_total", "transactions committed", obs.TypeCounter,
		func() float64 { return float64(tm.Stats().Commits) })
	reg.RegisterFunc("txn_aborts_total", "transactions aborted", obs.TypeCounter,
		func() float64 { return float64(tm.Stats().Aborts) })
	reg.RegisterFunc("txn_torn_tails_total", "torn WAL tails detected by log scans", obs.TypeCounter,
		func() float64 { return float64(tm.Log.TornTails()) })
	reg.RegisterFunc("txn_log_writes_total", "write system calls WAL appends issued", obs.TypeCounter,
		func() float64 { n, _ := tm.Log.Writes(); return float64(n) })
	reg.RegisterFunc("txn_log_bytes_total", "bytes WAL appends wrote", obs.TypeCounter,
		func() float64 { _, n := tm.Log.Writes(); return float64(n) })
	tm.Locks.BindMetrics(reg)

	reg.RegisterFunc("hyracks_job_attempts_total", "job executions", obs.TypeCounter,
		func() float64 { return float64(cl.JobStats().Attempts) })
	reg.RegisterFunc("hyracks_task_panics_total", "jobs failed by an operator panic", obs.TypeCounter,
		func() float64 { return float64(cl.JobStats().TaskPanics) })

	fault.BindMetrics(reg)
}

// Metrics returns the engine's observability registry (the HTTP server
// exposes it at /admin/metrics and /admin/stats).
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// BufferCacheStats exposes buffer-cache counters (benchmark harness).
func (e *Engine) BufferCacheStats() storage.Stats { return e.bc.Stats() }

// Cluster exposes the Hyracks cluster (benchmark harness).
func (e *Engine) Cluster() *hyracks.Cluster { return e.cluster }

// Maintenance returns the spans of the newest background flushes and
// merges (the server adds them to /admin/stats and to timing profiles).
func (e *Engine) Maintenance() *obs.SpanNode { return e.maint.Trace() }

// MemGovernor exposes the memory governor (admission tests, benchmark
// harness).
func (e *Engine) MemGovernor() *mem.Governor { return e.gov }

// Dataset returns an open dataset handle.
func (e *Engine) Dataset(name string) (*Dataset, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	d, ok := e.datasets[name]
	return d, ok
}

// SecondaryIndexHandle returns an open secondary index (benchmark harness
// access to index-only operations).
func (e *Engine) SecondaryIndexHandle(dataset, index string) (*SecondaryIndex, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	d, ok := e.datasets[dataset]
	if !ok {
		return nil, false
	}
	i, ok := d.findIndex(index)
	if !ok {
		return nil, false
	}
	return d.idxs[i], true
}

// ResultKind classifies statement results.
type ResultKind int

// Result kinds.
const (
	ResultDDL ResultKind = iota
	ResultDML
	ResultQuery
)

// Result is one statement's outcome.
type Result struct {
	Kind ResultKind
	// Rows holds query results in output order.
	Rows []adm.Value
	// Count is the number of records affected by DML.
	Count int64
	// Plan is the optimized logical plan (queries, and the query that
	// located a DELETE's victims). PlanText and PlanJSON render it, so a
	// query nobody asks them of pays for no rendering.
	Plan algebricks.Op
	// RulesFired maps optimizer rule name -> rewrite sites fired while
	// compiling this query.
	RulesFired map[string]int
	// PeakWorkingMem is the query's high-water mark of granted working
	// memory in bytes (0 for statements that drew none).
	PeakWorkingMem int64
}

// The plan renderers; a test swaps them to count renders.
var renderPlanText, renderPlanJSON = algebricks.PlanString, algebricks.PlanJSON

// PlanText renders the optimized plan as text ("" when there is none).
func (r *Result) PlanText() string {
	if r.Plan == nil {
		return ""
	}
	return renderPlanText(r.Plan)
}

// PlanJSON renders the optimized plan as a stable JSON tree ("" when
// there is none).
func (r *Result) PlanJSON() string {
	if r.Plan == nil {
		return ""
	}
	return renderPlanJSON(r.Plan)
}

// JSONRows renders query rows as JSON strings.
func (r *Result) JSONRows() []string {
	out := make([]string, len(r.Rows))
	for i, v := range r.Rows {
		out[i] = adm.ToJSON(v)
	}
	return out
}

// Execute parses and executes a ;-separated script, returning one Result
// per statement. Execution stops at the first error.
//
// When the context carries an obs.Span (the HTTP server attaches one per
// request), the statement lifecycle is traced into it: a "parse" child,
// then per statement a "statement" child whose subtree holds compile and
// execute phases down to per-operator tasks. Without a span every trace
// call is a nil no-op.
func (e *Engine) Execute(ctx context.Context, script string) ([]Result, error) {
	root := obs.SpanFromContext(ctx)
	ps := root.StartChild("parse")
	stmts, err := sqlpp.ParseScript(script)
	ps.End()
	if err != nil {
		e.mStmtErrors.Inc()
		return nil, err
	}
	var results []Result
	for _, stmt := range stmts {
		ss := root.StartChild("statement")
		start := time.Now()
		r, err := e.executeStmt(obs.ContextWithSpan(ctx, ss), stmt)
		ss.End()
		e.mStatements.Inc()
		e.mQueryDur.Observe(time.Since(start).Seconds())
		if err != nil {
			e.mStmtErrors.Inc()
			return results, err
		}
		results = append(results, r)
	}
	return results, nil
}

// Query executes a single query statement and returns its result.
func (e *Engine) Query(ctx context.Context, src string) (*Result, error) {
	results, err := e.Execute(ctx, src)
	if err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("core: empty statement")
	}
	last := results[len(results)-1]
	return &last, nil
}

// QueryAST executes an already-parsed query (the AQL front end uses this).
func (e *Engine) QueryAST(ctx context.Context, q *sqlpp.QueryStmt) (*Result, error) {
	r, err := e.executeStmt(ctx, q)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

func (e *Engine) executeStmt(ctx context.Context, stmt sqlpp.Statement) (Result, error) {
	// Queries and deletes trace their own compile/execute phases (see
	// runSelect); every other statement kind is a single "execute" phase.
	switch stmt.(type) {
	case *sqlpp.QueryStmt, *sqlpp.DeleteStmt:
	default:
		es := obs.SpanFromContext(ctx).StartChild("execute")
		defer es.End()
	}
	switch s := stmt.(type) {
	case *sqlpp.CreateDataverse, *sqlpp.UseDataverse:
		// Single-dataverse engine: accepted for compatibility.
		return Result{Kind: ResultDDL}, nil
	case *sqlpp.CreateType:
		return e.execCreateType(s)
	case *sqlpp.CreateDataset:
		return e.execCreateDataset(s)
	case *sqlpp.CreateExternalDataset:
		return e.execCreateExternalDataset(s)
	case *sqlpp.CreateIndex:
		return e.execCreateIndex(s)
	case *sqlpp.DropStmt:
		return e.execDrop(s)
	case *sqlpp.LoadStmt:
		return e.execLoad(ctx, s)
	case *sqlpp.InsertStmt:
		return e.execUpsert(ctx, s.Dataset, s.Expr, false)
	case *sqlpp.UpsertStmt:
		return e.execUpsert(ctx, s.Dataset, s.Expr, true)
	case *sqlpp.DeleteStmt:
		return e.execDelete(ctx, s)
	case *sqlpp.QueryStmt:
		return e.execQuery(ctx, s)
	case *sqlpp.ExplainStmt:
		plan, err := e.explainAST(s.Query)
		if err != nil {
			return Result{}, err
		}
		return Result{Kind: ResultQuery, Rows: []adm.Value{adm.String(explainText(plan))}, Plan: plan}, nil
	}
	return Result{}, fmt.Errorf("core: unsupported statement %T", stmt)
}

// evaluator builds a statement-scoped evaluator.
func (e *Engine) evaluator() *algebricks.Evaluator {
	return &algebricks.Evaluator{
		Catalog: (*engineCatalog)(e),
		Now:     adm.Datetime(e.cfg.Now().UnixMilli()),
	}
}

// engineCatalog adapts Engine to algebricks.Catalog.
type engineCatalog Engine

// Resolve implements algebricks.Catalog.
func (c *engineCatalog) Resolve(name string) (algebricks.DataSource, bool) {
	e := (*Engine)(c)
	e.mu.Lock()
	defer e.mu.Unlock()
	d, ok := e.datasets[name]
	if !ok {
		return nil, false
	}
	return d, true
}

// ResolveIndex implements algebricks.Catalog.
func (c *engineCatalog) ResolveIndex(dataset, field string) (algebricks.IndexAccessor, bool) {
	e := (*Engine)(c)
	e.mu.Lock()
	defer e.mu.Unlock()
	d, ok := e.datasets[dataset]
	if !ok {
		return nil, false
	}
	if !d.def.External && len(d.def.PrimaryKey) > 0 && d.def.PrimaryKey[0] == field {
		return primaryIndex{d}, true
	}
	for _, si := range d.idxs {
		if len(si.def.Fields) > 0 && si.def.Fields[0] == field {
			return si, true
		}
	}
	return nil, false
}

// execQuery compiles and runs a query: SELECT blocks go through the full
// Algebricks → Hyracks pipeline; bare expressions evaluate directly.
func (e *Engine) execQuery(ctx context.Context, q *sqlpp.QueryStmt) (Result, error) {
	e.mQueries.Inc()
	sp := obs.SpanFromContext(ctx)
	ev := e.evaluator()
	switch q.Body.(type) {
	case *sqlpp.SelectExpr, *sqlpp.UnionExpr:
	default:
		if err := algebricks.Bind(q.Body, ev.Catalog); err != nil {
			return Result{}, err
		}
		es := sp.StartChild("execute")
		v, err := ev.Eval(q.Body, algebricks.NewEnv(nil, nil, nil))
		es.End()
		if err != nil {
			return Result{}, err
		}
		return Result{Kind: ResultQuery, Rows: []adm.Value{v}}, nil
	}
	return e.runSelect(ctx, ev, q.Body)
}

// runSelect compiles a SELECT (or UNION) through Algebricks — translate,
// optimize, jobgen — and runs the job on the cluster. It is the one way
// the engine finds records by predicate: queries return its rows, DELETE
// deletes them.
func (e *Engine) runSelect(ctx context.Context, ev *algebricks.Evaluator, body sqlpp.Expr) (Result, error) {
	sp := obs.SpanFromContext(ctx)
	cs := sp.StartChild("compile")
	ts := cs.StartChild("translate")
	tr := &algebricks.Translator{Ev: ev, Catalog: ev.Catalog}
	err := algebricks.Bind(body, ev.Catalog)
	var plan algebricks.Op
	if err == nil {
		plan, err = tr.TranslateQuery(body)
	}
	ts.End()
	if err != nil {
		cs.End()
		return Result{}, err
	}
	opt := cs.StartChild("optimize")
	plan, orep := e.opt.Optimize(tr, plan)
	opt.End()
	g := &algebricks.JobGen{
		Cluster:     e.cluster,
		Catalog:     ev.Catalog,
		Ev:          ev,
		Parallelism: e.cfg.Partitions,
	}
	js := cs.StartChild("jobgen")
	coll := &hyracks.Collector{}
	job, err := g.Build(plan, coll)
	js.End()
	cs.End()
	if err != nil {
		return Result{}, err
	}
	es := sp.StartChild("execute")
	err = e.cluster.Run(obs.ContextWithSpan(ctx, es), job)
	es.End()
	if err != nil {
		return Result{PeakWorkingMem: job.PeakWorkingBytes()}, err
	}
	es.Add("resultTuples", int64(coll.Len()))
	rows := make([]adm.Value, 0, coll.Len())
	for _, t := range coll.Tuples() {
		rows = append(rows, t[0])
	}
	return Result{
		Kind: ResultQuery, Rows: rows, Plan: plan, RulesFired: orep.Fired,
		PeakWorkingMem: job.PeakWorkingBytes(),
	}, nil
}

// Explain returns the optimized plan for a query without running it.
func (e *Engine) Explain(src string) (string, error) {
	q, err := sqlpp.ParseQuery(src)
	if err != nil {
		return "", err
	}
	plan, err := e.explainAST(q)
	if err != nil {
		return "", err
	}
	return explainText(plan), nil
}

// explainAST optimizes a parsed query without running it. A constant
// expression has no plan (nil).
func (e *Engine) explainAST(q *sqlpp.QueryStmt) (algebricks.Op, error) {
	switch q.Body.(type) {
	case *sqlpp.SelectExpr, *sqlpp.UnionExpr:
	default:
		return nil, nil
	}
	ev := e.evaluator()
	if err := algebricks.Bind(q.Body, ev.Catalog); err != nil {
		return nil, err
	}
	tr := &algebricks.Translator{Ev: ev, Catalog: ev.Catalog}
	plan, err := tr.TranslateQuery(q.Body)
	if err != nil {
		return nil, err
	}
	plan, _ = e.opt.Optimize(tr, plan)
	return plan, nil
}

// explainText is what EXPLAIN shows for a plan of explainAST.
func explainText(plan algebricks.Op) string {
	if plan == nil {
		return "constant expression\n"
	}
	return algebricks.PlanString(plan)
}
