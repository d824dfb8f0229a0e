// Package asterix is a Go reproduction of Apache AsterixDB — the Big Data
// Management System described in "AsterixDB Mid-Flight: A Case Study in
// Building Systems in Academia" (Carey, ICDE 2019). It provides an
// embedded BDMS: a NoSQL-style data model (ADM), SQL++ and AQL query
// languages, a rule-based parallel query optimizer (Algebricks), a
// partitioned-parallel dataflow runtime (Hyracks), and LSM-based storage
// with B+tree, R-tree, and inverted keyword secondary indexes.
//
// An instance has four settings (Config): its data directory, its
// partition count, one memory budget that the governor splits as in the
// paper's Figure 2, and an optional statement clock.
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
	"asterix/internal/obs"
)

// Config configures a DB instance.
type Config struct {
	// DataDir is the root directory for all persistent state (required).
	DataDir string
	// Partitions is the number of storage partitions per dataset — the
	// simulated shared-nothing nodes (default 2).
	Partitions int
	// TotalMemory is the instance-wide memory budget of Figure 2 in
	// bytes (at least 1 MiB). The memory governor splits it across the
	// buffer cache (a quarter), the LSM memory components (a quarter)
	// and operator working memory (the remainder). When zero, each pool
	// takes its default and the total is their sum.
	TotalMemory int64
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
	eng, err := core.Open(core.Config{
		DataDir:     cfg.DataDir,
		Partitions:  cfg.Partitions,
		TotalMemory: cfg.TotalMemory,
		Now:         cfg.Now,
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
