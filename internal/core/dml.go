package core

import (
	"context"
	"errors"
	"fmt"

	"asterix/internal/adm"
	"asterix/internal/algebricks"
	"asterix/internal/external"
	"asterix/internal/obs"
	"asterix/internal/sqlpp"
	"asterix/internal/txn"
)

// execUpsert evaluates the payload expression and inserts/upserts the
// resulting record(s) as one transaction: WAL first, then LSM apply, with
// record-level locks on the primary keys. A SELECT (or UNION) payload runs
// as a job like any query; a record constructor is evaluated directly.
func (e *Engine) execUpsert(ctx context.Context, dataset string, expr sqlpp.Expr, upsert bool) (Result, error) {
	e.mu.Lock()
	d, ok := e.datasets[dataset]
	e.mu.Unlock()
	if !ok {
		return Result{}, fmt.Errorf("core: unknown dataset %q", dataset)
	}
	if d.def.External {
		return Result{}, fmt.Errorf("core: dataset %q is external (read-only)", dataset)
	}
	v, err := e.payload(ctx, expr)
	if err != nil {
		return Result{}, err
	}
	var recs []adm.Value
	switch x := v.(type) {
	case *adm.Object:
		recs = []adm.Value{x}
	case adm.Array:
		recs = x
	case adm.Multiset:
		recs = x
	default:
		return Result{}, fmt.Errorf("core: INSERT/UPSERT payload must be object(s), got %s", v.Kind())
	}
	n, err := e.storeRecords(ctx, d, recs, upsert)
	if err != nil {
		return Result{}, err
	}
	return Result{Kind: ResultDML, Count: n}, nil
}

// payload computes an INSERT/UPSERT's records.
func (e *Engine) payload(ctx context.Context, expr sqlpp.Expr) (adm.Value, error) {
	ev := e.evaluator()
	switch expr.(type) {
	case *sqlpp.SelectExpr, *sqlpp.UnionExpr:
		res, err := e.runSelect(ctx, ev, expr)
		return adm.Array(res.Rows), err
	}
	if err := algebricks.Bind(expr, ev.Catalog); err != nil {
		return nil, err
	}
	return ev.Eval(expr, algebricks.NewEnv(nil, nil, nil))
}

// rollback aborts tx on an error path. The abort's own error (a failed
// WAL append) is joined with the error being propagated, so neither is
// silently discarded.
func rollback(tx *txn.Txn, err error) error {
	return errors.Join(err, tx.Abort())
}

// storeRecords writes a statement's records as one transaction. Every record
// is checked — an object of the dataset's type with a key that neither the
// statement nor, for an INSERT, the dataset holds already — and encoded into
// the bytes the dataset stores before anything is logged or applied, so a
// record that fails them leaves nothing of the statement behind.
func (e *Engine) storeRecords(ctx context.Context, d *Dataset, recs []adm.Value, upsert bool) (int64, error) {
	ups := make([]txn.LogRecord, len(recs))
	objs := make([]*adm.Object, len(recs))
	seen := map[string]bool{} // INSERT: the keys of the statement
	for i, rv := range recs {
		rec, ok := rv.(*adm.Object)
		if !ok {
			return 0, fmt.Errorf("core: record is %s, not object", rv.Kind())
		}
		if err := d.typ.Validate(rec); err != nil {
			return 0, err
		}
		part, key, _, err := d.locate(rec)
		if err != nil {
			return 0, err
		}
		if !upsert {
			_, exists, err := d.parts[part].Get(key)
			if err != nil {
				return 0, err
			}
			if exists || seen[string(key)] {
				return 0, fmt.Errorf("core: duplicate primary key in %s", d.def.Name)
			}
			seen[string(key)] = true
		}
		objs[i] = rec
		ups[i] = txn.LogRecord{Partition: int32(part), Op: txn.OpUpsert, Key: key,
			Value: encodeRecordBytes(adm.EncodeRecord(nil, rec, d.typ), e.cfg.Compression)}
	}
	if err := e.logAndApply(d, ups, objs, &indexWriter{sp: obs.SpanFromContext(ctx)}); err != nil {
		return 0, err
	}
	return int64(len(ups)), nil
}

// logAndApply runs a checked statement as one transaction: its keys locked
// and its update records logged with one write, then each applied — objs[i]
// is the record ups[i] stores, nil for a delete — then the commit written.
// Lock waits, flushes, and merges the statement stalls on are attributed to
// w's span (nil outside traced requests).
func (e *Engine) logAndApply(d *Dataset, ups []txn.LogRecord, objs []*adm.Object, w *indexWriter) error {
	tx := e.txmgr.Begin().AttachSpan(w.sp)
	if err := tx.LogUpdates(d.def.Name, d.def.Incarnation, ups); err != nil {
		return rollback(tx, err)
	}
	for i := range ups {
		if err := d.apply(&ups[i], objs[i], w); err != nil {
			return rollback(tx, err)
		}
	}
	return tx.Commit()
}

// execDelete deletes matching records: the victims are the rows of
// `SELECT VALUE alias FROM dataset AS alias WHERE cond`, compiled and run
// like any query (so a key or indexed predicate is an index search, not
// a scan), then deleted in one transaction.
func (e *Engine) execDelete(ctx context.Context, s *sqlpp.DeleteStmt) (Result, error) {
	e.mu.Lock()
	d, ok := e.datasets[s.Dataset]
	e.mu.Unlock()
	if !ok {
		return Result{}, fmt.Errorf("core: unknown dataset %q", s.Dataset)
	}
	if d.def.External {
		return Result{}, fmt.Errorf("core: dataset %q is external (read-only)", s.Dataset)
	}
	found, err := e.runSelect(ctx, e.evaluator(), &sqlpp.SelectExpr{
		Select: sqlpp.SelectClause{Value: &sqlpp.VarRef{Name: s.Alias}},
		From:   []sqlpp.FromTerm{{Expr: &sqlpp.VarRef{Name: s.Dataset}, Alias: s.Alias}},
		Where:  s.Where,
	})
	if err != nil {
		return Result{}, err
	}
	w := &indexWriter{sp: obs.SpanFromContext(ctx)}
	es := w.sp.StartChild("execute")
	defer es.End()
	ups := make([]txn.LogRecord, len(found.Rows))
	for i, row := range found.Rows {
		rec, ok := row.(*adm.Object)
		if !ok {
			return Result{}, fmt.Errorf("core: stored record is %s, not object", row.Kind())
		}
		part, key, _, err := d.locate(rec)
		if err != nil {
			return Result{}, err
		}
		ups[i] = txn.LogRecord{Partition: int32(part), Op: txn.OpDelete, Key: key}
	}
	if err := e.logAndApply(d, ups, make([]*adm.Object, len(ups)), w); err != nil {
		return Result{}, err
	}
	// The result keeps the locating query's plan, rules and job report.
	found.Kind, found.Count, found.Rows = ResultDML, int64(len(found.Rows)), nil
	return found, nil
}

// execLoad bulk-imports external data into a native dataset.
func (e *Engine) execLoad(ctx context.Context, s *sqlpp.LoadStmt) (Result, error) {
	e.mu.Lock()
	d, ok := e.datasets[s.Dataset]
	e.mu.Unlock()
	if !ok {
		return Result{}, fmt.Errorf("core: unknown dataset %q", s.Dataset)
	}
	adapter, err := external.New(s.Adapter, s.Params, d.typ)
	if err != nil {
		return Result{}, err
	}
	var recs []adm.Value
	if err := adapter.Scan(0, 1, func(rec adm.Value) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		return Result{}, err
	}
	n, err := e.storeRecords(ctx, d, recs, true)
	if err != nil {
		return Result{}, err
	}
	return Result{Kind: ResultDML, Count: n}, nil
}

// UpsertValue is the programmatic single-record upsert used by feeds and
// the benchmark harness (bypasses SQL parsing, keeps WAL + index
// maintenance).
func (e *Engine) UpsertValue(dataset string, rec *adm.Object) error {
	e.mu.Lock()
	d, ok := e.datasets[dataset]
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: unknown dataset %q", dataset)
	}
	_, err := e.storeRecords(context.Background(), d, []adm.Value{rec}, true)
	return err
}

// DeleteKey removes one record by primary key (programmatic path).
func (e *Engine) DeleteKey(dataset string, pk ...adm.Value) error {
	e.mu.Lock()
	d, ok := e.datasets[dataset]
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: unknown dataset %q", dataset)
	}
	kb, err := d.encodePK(pk)
	if err != nil {
		return err
	}
	ups := []txn.LogRecord{{Partition: int32(d.partitionOf(pk)), Op: txn.OpDelete, Key: kb}}
	return e.logAndApply(d, ups, []*adm.Object{nil}, &indexWriter{})
}

// GetKey fetches one record by primary key (programmatic path).
func (e *Engine) GetKey(dataset string, pk ...adm.Value) (*adm.Object, bool, error) {
	e.mu.Lock()
	d, ok := e.datasets[dataset]
	e.mu.Unlock()
	if !ok {
		return nil, false, fmt.Errorf("core: unknown dataset %q", dataset)
	}
	kb, err := d.encodePK(pk)
	if err != nil {
		return nil, false, err
	}
	return d.getRecord(d.partitionOf(pk), kb)
}
