// Package asterix is a Go reproduction of Apache AsterixDB — the Big Data
// Management System described in "AsterixDB Mid-Flight: A Case Study in
// Building Systems in Academia" (Carey, ICDE 2019). It provides an
// embedded BDMS: a NoSQL-style data model (ADM), SQL++ and AQL query
// languages, a rule-based parallel query optimizer (Algebricks), a
// partitioned-parallel dataflow runtime (Hyracks), and LSM-based storage
// with B+tree, R-tree, and inverted keyword secondary indexes.
//
// Quick start:
//
//	db, err := asterix.Open(asterix.Config{DataDir: "/tmp/asterix"})
//	defer db.Close()
//	db.Execute(ctx, `CREATE TYPE T AS {id: int}; CREATE DATASET D(T) PRIMARY KEY id;`)
//	db.Execute(ctx, `UPSERT INTO D ({"id": 1, "greeting": "hello"});`)
//	res, err := db.Query(ctx, `SELECT VALUE d.greeting FROM D d;`)
package asterix

import (
	"context"
	"time"

	"asterix/internal/adm"
	"asterix/internal/aql"
	"asterix/internal/core"
	"asterix/internal/lsm"
	"asterix/internal/obs"
)

// Config configures a DB instance.
type Config struct {
	// DataDir is the root directory for all persistent state (required).
	DataDir string
	// Partitions is the number of storage partitions per dataset — the
	// simulated shared-nothing nodes (default 2).
	Partitions int
	// Nodes is the dataflow cluster's node-controller count (default =
	// Partitions).
	Nodes int
	// PageSize is the buffer-cache page size in bytes (default 8192).
	PageSize int
	// FrameSize is the dataflow runtime's frame (batch) size in tuples
	// (default 256).
	FrameSize int
	// TotalMemory is the instance-wide memory budget in bytes. When set,
	// the memory governor splits it across the buffer cache, LSM memory
	// components, and operator working memory; any of the explicit knobs
	// below carve their share out of it. When zero, the explicit knobs
	// (or their defaults) apply and the total is their sum.
	TotalMemory int64
	// BufferPages sizes the buffer cache in pages (default 4096, or
	// TotalMemory/4 when TotalMemory is set).
	BufferPages int
	// MemComponentBudget bounds each LSM memory component in bytes
	// (default 4 MiB). The sum of all memory components is bounded by a
	// pool of 4x MemComponentBudget, or TotalMemory/4 when TotalMemory is
	// set; the governor flushes the earliest-dirty component when the
	// pool overflows.
	MemComponentBudget int
	// WorkingMemory bounds the shared operator working-memory pool in
	// bytes (default 32 MiB, or the TotalMemory remainder).
	WorkingMemory int
	// AdmitTimeout bounds how long a query waits for working-memory
	// admission before failing retriably (default 10s).
	AdmitTimeout time.Duration
	// MergePolicy selects the LSM merge policy: "constant" (default),
	// "tiered", or "none".
	MergePolicy string
	// OptimizerDisable names optimizer rules to skip (experiment
	// ablations; see algebricks.DefaultRules). Naming every rule runs each
	// query exactly as translated.
	OptimizerDisable []string
	// Now overrides the statement clock (tests and reproducible runs).
	Now func() time.Time
}

// DB is an embedded AsterixDB instance.
type DB struct {
	engine *core.Engine
}

// Result is the outcome of one statement: Rows for queries, Count for DML.
type Result = core.Result

// Value is an ADM value (the data model of query results).
type Value = adm.Value

// Open opens (creating if needed) a database instance rooted at
// cfg.DataDir, running crash recovery from its write-ahead log.
func Open(cfg Config) (*DB, error) {
	var policy lsm.MergePolicy
	switch cfg.MergePolicy {
	case "", "constant":
		policy = lsm.ConstantPolicy{Components: 4}
	case "tiered":
		policy = lsm.TieredPolicy{}
	case "none":
		policy = lsm.NoMergePolicy{}
	}
	eng, err := core.Open(core.Config{
		DataDir:            cfg.DataDir,
		Partitions:         cfg.Partitions,
		Nodes:              cfg.Nodes,
		PageSize:           cfg.PageSize,
		FrameSize:          cfg.FrameSize,
		TotalMemory:        cfg.TotalMemory,
		BufferPages:        cfg.BufferPages,
		MemComponentBudget: cfg.MemComponentBudget,
		WorkingMemory:      cfg.WorkingMemory,
		AdmitTimeout:       cfg.AdmitTimeout,
		MergePolicy:        policy,
		OptimizerDisable:   cfg.OptimizerDisable,
		Now:                cfg.Now,
	})
	if err != nil {
		return nil, err
	}
	return &DB{engine: eng}, nil
}

// Close flushes and closes the instance.
func (db *DB) Close() error { return db.engine.Close() }

// Execute runs a ;-separated SQL++ script, returning one Result per
// statement.
func (db *DB) Execute(ctx context.Context, script string) ([]Result, error) {
	return db.engine.Execute(ctx, script)
}

// Query runs a script and returns the last statement's result (typically
// a single query).
func (db *DB) Query(ctx context.Context, src string) (*Result, error) {
	return db.engine.Query(ctx, src)
}

// QueryAQL runs a query written in AQL, the system's original (now
// deprecated) query language. AQL parses to the same AST as SQL++ and
// shares the whole compilation and runtime stack — the "peer language"
// architecture the paper describes.
func (db *DB) QueryAQL(ctx context.Context, src string) (*Result, error) {
	q, err := aql.Parse(src)
	if err != nil {
		return nil, err
	}
	return db.engine.QueryAST(ctx, q)
}

// Explain returns the optimized logical plan for a query.
func (db *DB) Explain(src string) (string, error) { return db.engine.Explain(src) }

// Metrics returns the instance's observability registry: counters,
// gauges, and histograms published by every subsystem (see
// docs/OBSERVABILITY.md).
func (db *DB) Metrics() *obs.Registry { return db.engine.Metrics() }

// Checkpoint flushes all LSM memory components and truncates the
// recovery log's redo window.
func (db *DB) Checkpoint() error { return db.engine.Checkpoint() }

// Upsert programmatically inserts or replaces one record (object) in a
// dataset, with full WAL logging and index maintenance.
func (db *DB) Upsert(dataset string, record *adm.Object) error {
	return db.engine.UpsertValue(dataset, record)
}

// Get fetches a record by primary key.
func (db *DB) Get(dataset string, pk ...adm.Value) (*adm.Object, bool, error) {
	return db.engine.GetKey(dataset, pk...)
}

// Delete removes a record by primary key.
func (db *DB) Delete(dataset string, pk ...adm.Value) error {
	return db.engine.DeleteKey(dataset, pk...)
}

// Engine exposes the underlying engine for advanced integrations (feeds,
// benchmarks, the HTTP server).
func (db *DB) Engine() *core.Engine { return db.engine }
