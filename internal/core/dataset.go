// Package core is the BDMS engine tying the stack together (Figure 1):
// statement execution (DDL, DML, queries), hash-partitioned LSM storage
// with secondary-index maintenance, transactions and recovery, external
// datasets, and partitioned-parallel query execution over Hyracks.
package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"asterix/internal/adm"
	"asterix/internal/algebricks"
	"asterix/internal/check"
	"asterix/internal/external"
	"asterix/internal/lsm"
	"asterix/internal/metadata"
	"asterix/internal/obs"
	"asterix/internal/rtree"
	"asterix/internal/spatial"
	"asterix/internal/txn"
)

// Dataset is an open native dataset: one LSM B+tree per hash partition
// plus its secondary indexes.
type Dataset struct {
	eng   *Engine
	def   *metadata.DatasetDef
	typ   *adm.Type
	parts []*lsm.Tree
	// idxs is kept in index-name order, so that which index a write
	// dirties first and which of two candidates the optimizer is offered
	// first do not change from run to run.
	idxs []*SecondaryIndex
}

// findIndex returns the position of the named secondary index in d.idxs —
// where it would be inserted, when it is absent.
func (d *Dataset) findIndex(name string) (int, bool) {
	return slices.BinarySearchFunc(d.idxs, name, func(si *SecondaryIndex, name string) int {
		return strings.Compare(si.def.Name, name)
	})
}

// addIndex inserts si at its place in a fresh copy of d.idxs: a slice a
// reader is already ranging over is never shifted under it.
func (d *Dataset) addIndex(si *SecondaryIndex) {
	i, _ := d.findIndex(si.def.Name)
	d.idxs = slices.Insert(slices.Clone(d.idxs), i, si)
}

// SecondaryIndex is one open secondary index across all partitions.
type SecondaryIndex struct {
	def   *metadata.IndexDef
	ds    *Dataset
	trees []*lsm.Tree       // BTREE / ZORDER / HILBERT / GRID / KEYWORD
	rts   []*lsm.RTreeIndex // RTREE
	all   []lsmIndex        // trees or rts, by partition
	// Entries written (inserted or antimatter-deleted), and overwrites that
	// left the index alone because they kept its entries.
	mWritten, mSkipped *obs.Counter
}

// lsmIndex is the lifecycle surface every LSM index kind shares.
type lsmIndex interface {
	check.Validator
	Flush() error
	Unregister()
	Drop() error
}

// lsmIndexes lists every LSM index of the dataset: the primary partitions,
// then each secondary index's partitions.
func (d *Dataset) lsmIndexes() []lsmIndex {
	var all []lsmIndex
	for _, t := range d.parts {
		all = append(all, t)
	}
	for _, si := range d.idxs {
		all = append(all, si.all...)
	}
	return all
}

// dropAll retires LSM indexes — a dropped dataset's, a dropped or half-built
// secondary index's partitions: none keeps an account in the governor's
// arbitration, and none leaves storage for a later index of its name to find.
func dropAll(all []lsmIndex) (err error) {
	for _, ix := range all {
		err = errors.Join(err, ix.Drop())
	}
	return err
}

// detachGovernor removes the component-pool accounts of an index that
// failed to open; its storage stays.
func (si *SecondaryIndex) detachGovernor() {
	for _, ix := range si.all {
		ix.Unregister()
	}
}

// openDataset opens (or creates) storage for a dataset definition.
func (e *Engine) openDataset(def *metadata.DatasetDef) (*Dataset, error) {
	var typ *adm.Type
	var err error
	if def.TypeName != "" {
		typ, err = e.catalog.ResolveType(def.TypeName)
		if err != nil {
			return nil, err
		}
	} else {
		typ = adm.AnyType
	}
	d := &Dataset{eng: e, def: def, typ: typ}
	if def.External {
		return d, nil
	}
	for p := 0; p < def.Partitions; p++ {
		t, err := lsm.Open(e.bc, fmt.Sprintf("%s/p%d/primary", def.Name, p), e.lsmOptions())
		if err != nil {
			return nil, err
		}
		d.parts = append(d.parts, t)
	}
	for _, idef := range e.catalog.IndexesOf(def.Name) {
		si, err := d.openIndex(idef)
		if err != nil {
			return nil, err
		}
		d.addIndex(si)
	}
	return d, nil
}

func (d *Dataset) openIndex(idef *metadata.IndexDef) (*SecondaryIndex, error) {
	si := &SecondaryIndex{def: idef, ds: d}
	e := d.eng
	kind := strings.ToLower(idef.Kind)
	si.mWritten = e.reg.Counter("index_"+kind+"_entries_written_total", "entries inserted into or antimatter-deleted from "+idef.Kind+" secondary indexes")
	si.mSkipped = e.reg.Counter("index_"+kind+"_writes_skipped_total", "overwrites that kept a record's entries in a "+idef.Kind+" secondary index, which was therefore not written")
	for p := 0; p < d.def.Partitions; p++ {
		name := fmt.Sprintf("%s/p%d/idx-%s", d.def.Name, p, idef.Name)
		if idef.Kind == "RTREE" {
			rt, err := lsm.OpenRTree(e.bc, name, e.lsmOptions())
			if err != nil {
				si.detachGovernor()
				return nil, err
			}
			si.rts, si.all = append(si.rts, rt), append(si.all, rt)
			continue
		}
		// Entries are found by range (searchEntries), never by key.
		t, err := lsm.OpenUnfiltered(e.bc, name, e.lsmOptions())
		if err != nil {
			si.detachGovernor()
			return nil, err
		}
		si.trees, si.all = append(si.trees, t), append(si.all, t)
	}
	return si, nil
}

// lsmOptions is the one configuration every LSM index of the engine gets.
func (e *Engine) lsmOptions() lsm.Options {
	return lsm.Options{
		MemBudget: e.cfg.MemComponentBudget,
		Policy:    e.cfg.MergePolicy,
		Metrics:   e.reg,
		Gov:       e.gov,
		Worker:    e.maint,
	}
}

// --- Primary key handling ---

// primaryKeyValues extracts the dataset's primary key fields.
func (d *Dataset) primaryKeyValues(rec *adm.Object) ([]adm.Value, error) {
	pks := make([]adm.Value, len(d.def.PrimaryKey))
	for i, f := range d.def.PrimaryKey {
		v := rec.Get(f)
		if v.Kind() <= adm.KindNull {
			return nil, fmt.Errorf("core: record lacks primary key field %q", f)
		}
		if !v.Kind().IsScalar() {
			return nil, fmt.Errorf("core: primary key field %q has non-scalar kind %s", f, v.Kind())
		}
		pks[i] = v
	}
	return pks, nil
}

// encodePK builds order-preserving key bytes for a primary key, or for a
// search bound on one.
func (d *Dataset) encodePK(pks []adm.Value) (kb []byte, err error) {
	for _, v := range pks {
		if kb, err = adm.EncodeKey(kb, v); err != nil {
			return nil, err
		}
	}
	return kb, nil
}

// partitionOf hashes a primary key to a partition.
func (d *Dataset) partitionOf(pks []adm.Value) int {
	var h uint64 = 14695981039346656037
	for _, v := range pks {
		h = h*1099511628211 ^ adm.Hash64(v)
	}
	return int(h % uint64(d.def.Partitions))
}

// locate computes (partition, key bytes, pk values) for a record.
func (d *Dataset) locate(rec *adm.Object) (int, []byte, []adm.Value, error) {
	pks, err := d.primaryKeyValues(rec)
	if err != nil {
		return 0, nil, nil, err
	}
	kb, err := d.encodePK(pks)
	if err != nil {
		return 0, nil, nil, err
	}
	return d.partitionOf(pks), kb, pks, nil
}

// --- Mutations (called after WAL logging, or from recovery redo) ---

// indexWriter is what one statement, or one recovery pass, carries through
// its writes: the span that waits for a sealed component's flush are charged
// to (nil from redo and programmatic paths) and the buffers every record's
// index entries are built in. redo is set by recovery alone: after a crash
// the primary index can be a flush ahead of a secondary, so the version redo
// finds there says nothing about the entries the secondary holds, and redo
// writes every entry, changed or not.
type indexWriter struct {
	sp       *obs.Span
	redo     bool
	old, cur entryKeys
}

// apply applies one logged update: for an upsert, rec is the record its
// value stores.
func (d *Dataset) apply(u *txn.LogRecord, rec *adm.Object, w *indexWriter) error {
	if u.Op == txn.OpDelete {
		return d.applyDelete(int(u.Partition), u.Key, w)
	}
	return d.applyUpsert(int(u.Partition), u.Key, u.Value, rec, w)
}

// applyUpsert installs a record, stored as the bytes given, in the primary
// index and brings every secondary index from the replaced version's entries
// to the new one's.
func (d *Dataset) applyUpsert(part int, pk, stored []byte, rec *adm.Object, w *indexWriter) error {
	old, _, err := d.getRecord(part, pk)
	if err != nil {
		return err
	}
	if err := d.parts[part].UpsertSpan(pk, stored, w.sp); err != nil {
		return err
	}
	return d.maintainIndexes(part, pk, old, rec, w)
}

// applyDelete removes a record and its index entries.
func (d *Dataset) applyDelete(part int, pk []byte, w *indexWriter) error {
	old, _, err := d.getRecord(part, pk)
	if err != nil {
		return err
	}
	if err := d.maintainIndexes(part, pk, old, nil, w); err != nil {
		return err
	}
	return d.parts[part].DeleteSpan(pk, w.sp)
}

// storedRecord presents a stored (possibly compressed) primary-index value
// to a query leaf, which reads the fields it needs out of it in place and
// unpacks it only if it reads any. The record was written under d.typ: the
// type of a dataset never changes.
func (d *Dataset) storedRecord(stored []byte) algebricks.Record {
	return algebricks.Record{Stored: stored, Unpack: decodeRecordBytes, Type: d.typ}
}

// decodeRecord decodes a stored primary-index value whole. What needs a
// record as a value — index maintenance and its redo, GetKey — materializes
// it here.
func (d *Dataset) decodeRecord(stored []byte) (*adm.Object, error) {
	v, err := d.storedRecord(stored).Decode()
	if err != nil {
		return nil, err
	}
	o, ok := v.(*adm.Object)
	if !ok {
		return nil, fmt.Errorf("core: stored record is %s, not object", v.Kind())
	}
	return o, nil
}

func (d *Dataset) getRecord(part int, keyBytes []byte) (*adm.Object, bool, error) {
	data, ok, err := d.parts[part].Get(keyBytes)
	if err != nil || !ok {
		return nil, false, err
	}
	o, err := d.decodeRecord(data)
	return o, err == nil, err
}

// entryKeys holds one record's entries in one secondary index, back to
// back in buf, the i-th ending at ends[i]. An entry of a B-tree-shaped
// index is its key, `EncodeKey(secondary key) ‖ primary key`, and has no
// value; an RTREE entry is `rtree.AppendRect(rect) ‖ primary key`, the
// pair the R-tree keys by its rect's bits.
type entryKeys struct {
	buf  []byte
	ends []int
	tok  []byte // KEYWORD: the token being keyed
}

func (ks *entryKeys) reset() { ks.buf, ks.ends = ks.buf[:0], ks.ends[:0] }

// seal ends, with pk, the key buf has grown by since the last one — and
// drops it if the record has it already (a token that occurs twice).
func (ks *entryKeys) seal(pk []byte) {
	ks.buf = append(ks.buf, pk...)
	start := 0
	if n := len(ks.ends); n > 0 {
		start = ks.ends[n-1]
	}
	prev := 0
	for _, end := range ks.ends {
		if bytes.Equal(ks.buf[prev:end], ks.buf[start:]) {
			ks.buf = ks.buf[:start]
			return
		}
		prev = end
	}
	ks.ends = append(ks.ends, len(ks.buf))
}

// appendEntries appends to ks the entries of rec in si, building each key
// in place. Null and missing values, and values of a kind the index does
// not hold, are not indexed.
func (si *SecondaryIndex) appendEntries(ks *entryKeys, pk []byte, rec *adm.Object) (err error) {
	if rec == nil {
		return nil
	}
	fv := rec.Get(si.def.Fields[0])
	switch si.def.Kind {
	case "BTREE":
		if fv.Kind().IsScalar() {
			if ks.buf, err = adm.EncodeKey(ks.buf, fv); err == nil {
				ks.seal(pk)
			}
		}
	case "ZORDER", "HILBERT", "GRID":
		if pt, ok := fv.(adm.Point); ok {
			ks.buf = si.appendCellKey(ks.buf, pt)
			ks.seal(pk)
		}
	case "KEYWORD":
		s, _ := fv.(adm.String)
		for pos, ok := 0, true; ; {
			if ks.tok, pos, ok = algebricks.NextToken(ks.tok[:0], string(s), pos); !ok {
				break
			}
			ks.buf = adm.AppendStringKey(ks.buf, ks.tok)
			ks.seal(pk)
		}
	case "RTREE":
		switch g := fv.(type) {
		case adm.Point:
			ks.buf = rtree.AppendRect(ks.buf, rtree.PointRect(g.X, g.Y))
			ks.seal(pk)
		case adm.Rectangle:
			ks.buf = rtree.AppendRect(ks.buf, rtree.Rect{MinX: g.MinX, MinY: g.MinY, MaxX: g.MaxX, MaxY: g.MaxY})
			ks.seal(pk)
		}
	}
	return err
}

// appendCellKey appends the key a ZORDER, HILBERT or GRID index files a
// point under: its place on the curve, or its grid cell.
func (si *SecondaryIndex) appendCellKey(buf []byte, pt adm.Point) []byte {
	if si.def.Kind == "GRID" {
		return appendGridKey(buf, uint64(spatial.World.Cell(pt.X, pt.Y)))
	}
	x, y := spatial.World.Norm.Lattice(pt.X, pt.Y)
	if si.def.Kind == "ZORDER" {
		return appendCurveKey(buf, spatial.ZOrder(x, y))
	}
	return appendCurveKey(buf, spatial.Hilbert(x, y))
}

func appendCurveKey(buf []byte, curve uint64) []byte {
	var cb [8]byte
	binary.BigEndian.PutUint64(cb[:], curve)
	return adm.AppendBinaryKey(buf, cb[:])
}

func appendGridKey(buf []byte, cell uint64) []byte { return adm.AppendNumberKey(buf, float64(cell)) }

// maintainIndexes brings every secondary index from the entries of old to
// those of rec (nil: no such version). An index in which the new version
// has the entries the old one had — every component of a key delimits
// itself, so equal bytes are equal keys — is not written: they are there,
// since outside redo every version the primary returns had its entries
// written with it.
func (d *Dataset) maintainIndexes(part int, pk []byte, old, rec *adm.Object, w *indexWriter) error {
	for _, si := range d.idxs {
		w.old.reset()
		w.cur.reset()
		if err := errors.Join(si.appendEntries(&w.old, pk, old), si.appendEntries(&w.cur, pk, rec)); err != nil {
			return err
		}
		if old != nil && rec != nil && !w.redo && bytes.Equal(w.old.buf, w.cur.buf) {
			si.mSkipped.Inc()
			continue
		}
		if err := si.write(part, pk, &w.old, true, w.sp); err != nil {
			return err
		}
		if err := si.write(part, pk, &w.cur, false, w.sp); err != nil {
			return err
		}
	}
	return nil
}

// write is the one secondary-index write path — ingestion, deletion and
// index build all go through it: it inserts the entries, or with remove
// antimatter-deletes them.
func (si *SecondaryIndex) write(part int, pk []byte, ks *entryKeys, remove bool, sp *obs.Span) (err error) {
	start := 0
	for _, end := range ks.ends {
		switch e := ks.buf[start:end]; {
		case si.rts != nil && remove:
			err = si.rts[part].DeleteSpan(rtree.DecodeRect(e), pk, sp)
		case si.rts != nil:
			err = si.rts[part].InsertSpan(rtree.DecodeRect(e), pk, sp)
		case remove:
			err = si.trees[part].DeleteSpan(e, sp)
		default:
			err = si.trees[part].UpsertSpan(e, nil, sp)
		}
		if err != nil {
			return err
		}
		start = end
	}
	si.mWritten.Add(int64(len(ks.ends)))
	return nil
}

// buildIndex populates a fresh secondary index from existing data. Any
// failure aborts the build: a partial index must never be published.
func (d *Dataset) buildIndex(si *SecondaryIndex) error {
	var ks entryKeys
	for p := range d.parts {
		var buildErr error
		err := d.parts[p].Scan(nil, nil, func(k, v []byte) bool {
			var rec *adm.Object
			if rec, buildErr = d.decodeRecord(v); buildErr == nil {
				ks.reset()
				if buildErr = si.appendEntries(&ks, k, rec); buildErr == nil {
					buildErr = si.write(p, k, &ks, false, nil)
				}
			}
			return buildErr == nil
		})
		if err = errors.Join(err, buildErr); err != nil {
			return fmt.Errorf("core: build index %s on %s: %w", si.def.Name, d.def.Name, err)
		}
	}
	return nil
}

// --- algebricks.DataSource ---

// Name implements algebricks.DataSource.
func (d *Dataset) Name() string { return d.def.Name }

// Partitions implements algebricks.DataSource.
func (d *Dataset) Partitions() int { return d.def.Partitions }

// ScanPartition emits every record of one partition, whole.
func (d *Dataset) ScanPartition(part int, emit func(adm.Value) error) error {
	return d.Scan(part, decoded(emit))
}

// decoded adapts a consumer of whole records to the leaf seam.
func decoded(emit func(adm.Value) error) func(algebricks.Record) error {
	return func(rec algebricks.Record) error {
		v, err := rec.Decode()
		if err != nil {
			return err
		}
		return emit(v)
	}
}

// Scan implements algebricks.DataSource over the primary index; an
// external dataset hands over the records its adapter parses.
func (d *Dataset) Scan(part int, emit func(algebricks.Record) error) error {
	if d.def.External {
		typ := d.typ
		adapter, err := external.New(d.def.Adapter, d.def.Params, typ)
		if err != nil {
			return err
		}
		return adapter.Scan(part, d.def.Partitions, func(rec adm.Value) error {
			return emit(algebricks.Record{Value: rec})
		})
	}
	return d.scanRange(part, nil, nil, nil, emit)
}

// scanRange emits the partition's records with key bytes in [lo, hi] (nil =
// unbounded), except the one stored under skip.
func (d *Dataset) scanRange(part int, lo, hi, skip []byte, emit func(algebricks.Record) error) error {
	var scanErr error
	err := d.parts[part].Scan(lo, hi, func(k, v []byte) bool {
		if skip != nil && bytes.Equal(k, skip) {
			return true
		}
		scanErr = emit(d.storedRecord(v))
		return scanErr == nil
	})
	if err != nil {
		return err
	}
	return scanErr
}

// Count returns the number of live records across partitions.
func (d *Dataset) Count() (int64, error) {
	var total int64
	for p := range d.parts {
		n, err := d.parts[p].Count()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// LSMStats sums disk-component counts and merge counts over the primary
// index's partitions (the E8 merge-policy ablation metric).
func (d *Dataset) LSMStats() (components, merges int) {
	d.eng.maint.Drain() // count what the writes so far lead to
	for _, t := range d.parts {
		components += t.DiskComponents()
		_, m := t.Stats()
		merges += m
	}
	return components, merges
}

// FlushAll flushes every partition's memory components (primary and
// secondary) to disk components.
func (d *Dataset) FlushAll() error {
	for _, ix := range d.lsmIndexes() {
		if err := ix.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Validate runs the deep structural validators (internal/check) over
// every LSM index of the dataset, of every kind. Like every check
// validator it is a no-op unless invariants are enabled (-tags invariants
// or ASTERIX_INVARIANTS); the crash-recovery matrix calls it after every
// Reopen.
func (d *Dataset) Validate() error {
	for _, ix := range d.lsmIndexes() {
		if err := check.Run(ix); err != nil {
			return fmt.Errorf("core: dataset %s: %w", d.def.Name, err)
		}
	}
	return nil
}

// --- algebricks.IndexAccessor ---

// primaryIndex presents the dataset's primary index — one B+tree per
// hash partition, ordered on the encoded primary key — as the PRIMARY
// access path of the optimizer.
type primaryIndex struct{ ds *Dataset }

// Kind implements algebricks.IndexAccessor.
func (primaryIndex) Kind() string { return "PRIMARY" }

// KeyFields implements algebricks.IndexAccessor.
func (pi primaryIndex) KeyFields() []string { return pi.ds.def.PrimaryKey }

// keyPrefix unpacks a search bound into values of leading key fields: the
// bound itself on a single-field key, an array over a prefix otherwise.
func (pi primaryIndex) keyPrefix(bound adm.Value) ([]adm.Value, error) {
	n := len(pi.ds.def.PrimaryKey)
	if n == 1 {
		return []adm.Value{bound}, nil
	}
	arr, ok := bound.(adm.Array)
	if !ok || len(arr) == 0 || len(arr) > n {
		return nil, fmt.Errorf("core: primary search on %s: bound %s is not a prefix of its %d-field key", pi.ds.def.Name, bound, n)
	}
	return arr, nil
}

// encodeBound encodes a search bound (nil = unbounded) as key bytes; full
// reports that it covers the whole key.
func (pi primaryIndex) encodeBound(bound adm.Value) (kb []byte, full bool, err error) {
	if bound == nil {
		return nil, false, nil
	}
	pks, err := pi.keyPrefix(bound)
	if err != nil {
		return nil, false, err
	}
	kb, err = pi.ds.encodePK(pks)
	return kb, len(pks) == len(pi.ds.def.PrimaryKey), err
}

// OwnerPartition implements algebricks.IndexAccessor: a full key hashes
// to one partition, exactly as locate places the record on upsert.
func (pi primaryIndex) OwnerPartition(key adm.Value) (int, bool) {
	pks, err := pi.keyPrefix(key)
	if err != nil || len(pks) != len(pi.ds.def.PrimaryKey) {
		return 0, false
	}
	return pi.ds.partitionOf(pks), true
}

// SearchRange implements algebricks.IndexAccessor: Tree.Get when the
// bounds pin one full key, a bounded Tree.Scan otherwise.
func (pi primaryIndex) SearchRange(part int, lo, hi adm.Value, loInc, hiInc bool, emit func(algebricks.Record) error) error {
	d := pi.ds
	loB, loFull, err := pi.encodeBound(lo)
	if err != nil {
		return err
	}
	hiB, hiFull, err := pi.encodeBound(hi)
	if err != nil {
		return err
	}
	if loFull && hiFull && loInc && hiInc && bytes.Equal(loB, hiB) {
		data, ok, err := d.parts[part].Get(loB)
		if err != nil || !ok {
			return err
		}
		return emit(d.storedRecord(data))
	}
	var skip []byte
	// Every key extending a prefix sorts after the prefix and before
	// prefix+0xFF (key component tags are all below 0xFF), so appending
	// 0xFF turns "past this prefix" into a byte bound. An exclusive upper
	// bound stops at the prefix itself, which only a full key can equal.
	if lo != nil && !loInc {
		loB = append(loB, 0xFF)
	}
	if hi != nil {
		if hiInc {
			hiB = append(hiB, 0xFF)
		} else {
			skip = hiB
		}
	}
	return d.scanRange(part, loB, hiB, skip, emit)
}

// SearchSpatial implements algebricks.IndexAccessor.
func (pi primaryIndex) SearchSpatial(int, adm.Rectangle, func(algebricks.Record) error) error {
	return fmt.Errorf("core: spatial search on the primary index of %s", pi.ds.def.Name)
}

// SearchKeyword implements algebricks.IndexAccessor.
func (pi primaryIndex) SearchKeyword(int, string, func(algebricks.Record) error) error {
	return fmt.Errorf("core: keyword search on the primary index of %s", pi.ds.def.Name)
}

// Kind implements algebricks.IndexAccessor.
func (si *SecondaryIndex) Kind() string { return si.def.Kind }

// KeyFields implements algebricks.IndexAccessor.
func (si *SecondaryIndex) KeyFields() []string { return si.def.Fields[:1] }

// OwnerPartition implements algebricks.IndexAccessor: a secondary index
// is partitioned with its dataset, by primary key, so any partition can
// hold a given secondary key.
func (si *SecondaryIndex) OwnerPartition(adm.Value) (int, bool) { return 0, false }

// candidates gathers the primary keys an index search finds, as slices of
// one arena that grows by whole chunks so that none of them moves.
type candidates struct {
	pks   [][]byte
	arena []byte
}

func (c *candidates) add(pk []byte) {
	if len(c.arena)+len(pk) > cap(c.arena) {
		c.arena = make([]byte, 0, max(2*cap(c.arena), len(pk), 256))
	}
	at := len(c.arena)
	c.arena = append(c.arena, pk...)
	c.pks = append(c.pks, c.arena[at:len(c.arena):len(c.arena)])
}

// sorted returns the candidates in primary-key order, each once (an entry
// a crash left stale can name a key a second time). Entries under one
// secondary key arrive in that order and are not sorted again.
func (c *candidates) sorted() [][]byte {
	if !slices.IsSortedFunc(c.pks, bytes.Compare) {
		slices.SortFunc(c.pks, bytes.Compare)
	}
	c.pks = slices.CompactFunc(c.pks, bytes.Equal)
	return c.pks
}

// fetch resolves candidate primary keys through the primary index and
// emits the records. Callers pass them sorted: the pk-sort-before-fetch
// optimization of [26].
func (si *SecondaryIndex) fetch(part int, pks [][]byte, emit func(algebricks.Record) error) error {
	for _, pk := range pks {
		data, ok, err := si.ds.parts[part].Get(pk)
		if err != nil {
			return err
		}
		if !ok {
			continue // index entry raced a delete; primary wins
		}
		if err := emit(si.ds.storedRecord(data)); err != nil {
			return err
		}
	}
	return nil
}

// SearchRange implements algebricks.IndexAccessor for BTREE indexes: the
// records whose entries lie within the bounds as key bytes.
func (si *SecondaryIndex) SearchRange(part int, lo, hi adm.Value, loInc, hiInc bool, emit func(algebricks.Record) error) error {
	if si.def.Kind != "BTREE" {
		return fmt.Errorf("core: SearchRange on %s index", si.def.Kind)
	}
	var loB, hiB []byte
	var err error
	if lo != nil {
		if loB, err = adm.EncodeKey(nil, lo); err != nil {
			return err
		}
		if !loInc {
			loB = append(loB, 0xFF) // past every entry of the key: see scanCandidates
		}
	}
	if hi != nil {
		if hiB, err = adm.EncodeKey(nil, hi); err != nil {
			return err
		}
		if hiInc {
			hiB = append(hiB, 0xFF)
		}
	}
	var c candidates
	if err := si.scanCandidates(part, []lsm.KeyRange{{Lo: loB, Hi: hiB}}, &c); err != nil {
		return err
	}
	return si.fetch(part, c.sorted(), emit)
}

// SearchSpatial implements algebricks.IndexAccessor for the spatial index
// variants of the Section V-B study: the records the index holds as
// candidates for rect. Which of them intersect it the plan's residual
// filter decides, in the leaf, on the field it reads there anyway.
func (si *SecondaryIndex) SearchSpatial(part int, rect adm.Rectangle, emit func(algebricks.Record) error) error {
	c, err := si.spatialCandidates(part, rect)
	if err != nil {
		return err
	}
	return si.fetch(part, c.sorted(), emit)
}

// SearchSpatialAblation answers a spatial query exactly, on whole records,
// with the fetch phase's pk sort toggled (experiment E11: quantifying the
// [26] optimization): off, the candidates are fetched in a shuffled order,
// which loses the access locality the sort provides.
func (si *SecondaryIndex) SearchSpatialAblation(part int, rect adm.Rectangle, sortedFetch bool, emit func(adm.Value) error) error {
	c, err := si.spatialCandidates(part, rect)
	if err != nil {
		return err
	}
	pks := c.sorted()
	if !sortedFetch {
		rand.New(rand.NewSource(1)).Shuffle(len(pks), func(i, j int) { pks[i], pks[j] = pks[j], pks[i] })
	}
	field := si.def.Fields[0]
	return si.fetch(part, pks, decoded(func(rec adm.Value) error {
		switch p := rec.(*adm.Object).Get(field).(type) {
		case adm.Point:
			if rect.Contains(p.X, p.Y) {
				return emit(rec)
			}
		case adm.Rectangle:
			if rect.Intersects(p) {
				return emit(rec)
			}
		}
		return nil
	}))
}

// SearchSpatialCandidates runs only the index portion of a spatial search,
// returning the candidate primary-key count without fetching records —
// the "index time vs end-to-end time" split at the heart of the paper's
// Section V-B study (experiment E2).
func (si *SecondaryIndex) SearchSpatialCandidates(part int, rect adm.Rectangle) (int, error) {
	c, err := si.spatialCandidates(part, rect)
	return len(c.sorted()), err
}

// scanCandidates adds to c the primary key of every entry with key bytes in
// one of the sorted, disjoint ranges rs, read in one scan. An entry is
// `EncodeKey(skey) ‖ pk` and a pk starts with a key tag, all of which are
// below 0xFF: a bound `key ‖ 0xFF` lies past every entry of that secondary
// key and before the next one's.
func (si *SecondaryIndex) scanCandidates(part int, rs []lsm.KeyRange, c *candidates) error {
	var innerErr error
	err := si.trees[part].ScanRanges(rs, func(k, _ []byte) bool {
		var n int
		if n, innerErr = adm.KeyLen(k); innerErr == nil {
			c.add(k[n:])
		}
		return innerErr == nil
	})
	return errors.Join(err, innerErr)
}

// spatialCandidates gathers the candidate primary keys of a spatial query
// from whichever structure the index kind uses. A curve or grid index is
// read in one scan of the key ranges that cover the query: its curve
// ranges, or one range of cells per grid row.
func (si *SecondaryIndex) spatialCandidates(part int, rect adm.Rectangle) (*candidates, error) {
	c := &candidates{}
	x0, y0 := spatial.World.Norm.Lattice(rect.MinX, rect.MinY)
	x1, y1 := spatial.World.Norm.Lattice(rect.MaxX, rect.MaxY)
	var cells []spatial.CurveRange
	appendKey := appendCurveKey
	switch si.def.Kind {
	case "RTREE":
		q := rtree.Rect{MinX: rect.MinX, MinY: rect.MinY, MaxX: rect.MaxX, MaxY: rect.MaxY}
		return c, si.rts[part].Search(q, func(r rtree.Rect, key []byte) bool {
			c.add(key)
			return true
		})
	case "ZORDER":
		cells = spatial.ZOrderRanges(x0, y0, x1, y1, spatial.RangeBudget)
	case "HILBERT":
		cells = spatial.HilbertRanges(x0, y0, x1, y1, spatial.RangeBudget)
	case "GRID":
		cells, appendKey = spatial.World.CellRanges(rect.MinX, rect.MinY, rect.MaxX, rect.MaxY), appendGridKey
	default:
		return c, fmt.Errorf("core: spatial search on %s index", si.def.Kind)
	}
	// A range's bounds take at most 40 bytes (two keys of at most 19 and
	// the 0xFF), so every bound is a slice of one buffer.
	buf, rs := make([]byte, 0, 40*len(cells)), make([]lsm.KeyRange, len(cells))
	for i, r := range cells {
		lo := len(buf)
		buf = appendKey(buf, r.Lo)
		hi := len(buf)
		buf = append(appendKey(buf, r.Hi), 0xFF)
		rs[i] = lsm.KeyRange{Lo: buf[lo:hi], Hi: buf[hi:]}
	}
	return c, si.scanCandidates(part, rs, c)
}

// SearchKeyword implements algebricks.IndexAccessor for KEYWORD indexes.
func (si *SecondaryIndex) SearchKeyword(part int, token string, emit func(algebricks.Record) error) error {
	if si.def.Kind != "KEYWORD" {
		return fmt.Errorf("core: SearchKeyword on %s index", si.def.Kind)
	}
	toks := algebricks.Tokenize(token)
	if len(toks) != 1 {
		return fmt.Errorf("core: keyword search requires a single token, got %q", token)
	}
	lo := adm.AppendStringKey(nil, toks[0])
	var c candidates
	if err := si.scanCandidates(part, []lsm.KeyRange{{Lo: lo, Hi: append(slices.Clone(lo), 0xFF)}}, &c); err != nil {
		return err
	}
	return si.fetch(part, c.sorted(), emit)
}
