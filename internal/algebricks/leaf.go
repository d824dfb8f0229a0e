package algebricks

import (
	"errors"
	"slices"

	"asterix/internal/adm"
	"asterix/internal/hyracks"
	"asterix/internal/sqlpp"
)

// leafChunk is how many emitted tuples share one allocation, at most: a
// task's chunks double up to it, so a point lookup allocates one tuple. A
// tuple is never written to once emitted and its capacity is its length, so
// sharing the array shows nowhere — except that one live tuple keeps its
// chunk's others reachable, which bounds the size.
const leafChunk = 32

// errScanLimit stops a partition scan early once a pushed-down limit is
// satisfied; it never escapes the leaf.
var errScanLimit = errors.New("scan limit reached")

// leaf is where records enter a job: the one routine behind a scan and
// every kind of index search. Per record it locates the listed fields in
// the stored bytes, decodes the columns the pushed filter reads and runs
// it, and only for a record the filter lets through decodes the other
// columns and emits the tuple. Nothing else of the record is materialized
// (a record no field of which is listed is not even unpacked), unless the
// plan reads it whole: then the one column is the record.
//
// The filter sees copies: every column is decoded into fresh memory, not
// aliased to the source's bytes, which are only valid during the callback.
type leaf struct {
	out    schema
	fields []string // nil: the whole record, as one column
	filter func(l, r hyracks.Tuple) (bool, error)
	// first are the columns the filter reads, rest the others.
	first, rest []int
	max         int64 // tuples to emit per partition, 0 = all
}

func (ev *Evaluator) newLeaf(v string, fields []string, filter sqlpp.Expr, max int64) *leaf {
	lf := &leaf{out: leafSchema(v, fields), fields: fields, max: max}
	var reads needs
	if filter != nil {
		lf.filter = ev.compilePred(filter, lf.out, schema{})
		reads.addUses(filter, []string{v})
	}
	read, _ := reads.get(v)
	for c := 0; c < lf.out.width; c++ {
		if fields == nil || slices.Contains(read, fields[c]) {
			lf.first = append(lf.first, c)
		} else {
			lf.rest = append(lf.rest, c)
		}
	}
	return lf
}

// run is one task of the leaf: search hands it the partition's records.
func (lf *leaf) run(tc *hyracks.TaskContext, emit func(hyracks.Tuple) error, search func(visit func(Record) error) error) error {
	spans := make([][]byte, len(lf.fields))
	var loc *adm.Locator // of lf.fields in records of typ
	var typ *adm.Type
	types := make([]*adm.Type, len(lf.fields)) // declared types of lf.fields in typ
	row := make(hyracks.Tuple, lf.out.width)   // what the filter sees; never emitted
	var chunk hyracks.Tuple                    // where the next emitted tuples are cut from
	var emitted int64
	err := search(func(rec Record) (err error) {
		tc.RowsRead++
		if rec.Stored != nil && len(lf.fields) > 0 {
			raw, err := rec.encoding()
			if err != nil {
				return err
			}
			if loc == nil || typ != rec.Type {
				loc, typ = adm.NewLocator(rec.Type, lf.fields), rec.Type
				for i, name := range lf.fields {
					f, _ := typ.Field(name)
					types[i] = f.Type
				}
			}
			if err := loc.Locate(raw, spans); err != nil {
				return err
			}
		}
		for _, c := range lf.first {
			if row[c], err = lf.column(rec, spans, types, c); err != nil {
				return err
			}
		}
		if lf.filter != nil {
			if ok, err := lf.filter(row, nil); err != nil || !ok {
				return err
			}
		}
		if len(chunk) < len(row) {
			chunk = make(hyracks.Tuple, len(row)*int(min(emitted+1, leafChunk)))
		}
		out := chunk[:len(row):len(row)]
		chunk = chunk[len(row):]
		for _, c := range lf.first {
			out[c] = row[c]
		}
		for _, c := range lf.rest {
			if out[c], err = lf.column(rec, spans, types, c); err != nil {
				return err
			}
		}
		if err := emit(out); err != nil {
			return err
		}
		if emitted++; emitted == lf.max {
			return errScanLimit
		}
		return nil
	})
	if errors.Is(err, errScanLimit) {
		return nil
	}
	return err
}

// column materializes column c of rec, whose listed fields spans locates
// and types declares.
func (lf *leaf) column(rec Record, spans [][]byte, types []*adm.Type, c int) (adm.Value, error) {
	switch {
	case lf.fields == nil:
		return rec.Decode()
	case rec.Stored == nil:
		return fieldOf(rec.Value, lf.fields[c]), nil
	case spans[c] == nil:
		return adm.Missing, nil
	}
	v, _, err := adm.DecodeAs(spans[c], types[c])
	return v, err
}
