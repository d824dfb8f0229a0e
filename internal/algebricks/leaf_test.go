package algebricks

import (
	"testing"

	"asterix/internal/adm"
	"asterix/internal/hyracks"
	"asterix/internal/sqlpp"
)

// leafMessageType is the benchmark's GleambookMessageType and leafRecords a
// message as a dataset of that type stores it — positionally — and in the
// generic form, the form of a value of type any, which the leaf reads by the
// same fallback. Its ints are too large for the runtime's preboxed small
// values.
var leafMessageType = adm.NewObjectType("GleambookMessageType", false,
	adm.FieldType{Name: "messageId", Type: adm.Primitive(adm.KindInt64)},
	adm.FieldType{Name: "authorId", Type: adm.Primitive(adm.KindInt64)},
	adm.FieldType{Name: "inResponseTo", Type: adm.Primitive(adm.KindInt64), Optional: true},
	adm.FieldType{Name: "senderLocation", Type: adm.Primitive(adm.KindPoint), Optional: true},
	adm.FieldType{Name: "message", Type: adm.Primitive(adm.KindString)},
)

var leafRecords = func() map[string]Record {
	m := adm.NewObject(
		adm.Field{Name: "messageId", Value: adm.Int64(123456)},
		adm.Field{Name: "authorId", Value: adm.Int64(9041)},
		adm.Field{Name: "message", Value: adm.String("like verizon its voice-clarity is amazing and the plan is good too")},
		adm.Field{Name: "inResponseTo", Value: adm.Int64(77123)},
		adm.Field{Name: "senderLocation", Value: adm.Point{X: 47.5, Y: -80.25}},
	)
	return map[string]Record{
		"generic":    {Stored: adm.EncodeValue(m), Type: leafMessageType},
		"positional": {Stored: adm.EncodeRecord(nil, m, leafMessageType), Type: leafMessageType},
	}
}()

// leafCases are the per-row paths of the leaf over a leafRecords message:
// what the plan lists, what it filters by, whether the row survives, and the
// allocations a row may cost — a box per int, for a string its bytes and its
// header (Go boxes a string by allocating its header; nothing short of unsafe
// makes that one allocation), and a thirty-second of a tuple chunk.
var leafCases = []struct {
	name   string
	fields []string
	filter string
	emits  bool
	allocs float64
}{
	{"rejected/like", []string{"authorId", "message", "messageId"}, `m.message LIKE '%verizon sprint tmobile%'`, false, 2},
	{"rejected/mod", []string{"message", "messageId"}, `m.messageId % 2 = 1`, false, 1},
	{"survives/1-field", []string{"authorId"}, ``, true, 1 + 0.1},
	{"survives/3-field", []string{"authorId", "message", "messageId"}, `m.message LIKE '%verizon%'`, true, 1 + 2 + 1 + 0.1},
	{"survives/no-field", []string{}, ``, true, 0},
	{"survives/whole-record", nil, `m.messageId % 2 = 0`, true, -1}, // the old cost of every row; not gated
}

// runLeaf pushes n copies of rec through a leaf and returns how many it
// emitted.
func runLeaf(tb testing.TB, lf *leaf, rec Record, n int) (emitted int) {
	tc := &hyracks.TaskContext{}
	err := lf.run(tc, func(hyracks.Tuple) error { emitted++; return nil }, func(visit func(Record) error) error {
		for i := 0; i < n; i++ {
			if err := visit(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil || tc.RowsRead != int64(n) {
		tb.Fatalf("leaf read %d of %d rows: %v", tc.RowsRead, n, err)
	}
	return emitted
}

func leafFor(tb testing.TB, fields []string, filter string) *leaf {
	var cond sqlpp.Expr
	if filter != "" {
		cond = parseExpr(tb, filter)
	}
	return newEval(nil).newLeaf("m", fields, cond, 0)
}

// The leaf's allocation budget per row, as hard bounds: a row its filter
// rejects costs what the filter's operands cost, a row no field of which is
// read costs nothing, and no row builds an object unless the plan reads the
// record whole. It is the allocation gate of adm.Locator.Locate, the field
// walk every stored row goes through.
func TestLeafAllocations(t *testing.T) {
	const rows = 200
	for form, rec := range leafRecords {
		for _, c := range leafCases {
			lf := leafFor(t, c.fields, c.filter)
			if got := runLeaf(t, lf, rec, rows); (got == rows) != c.emits || got != 0 && got != rows {
				t.Fatalf("%s/%s: emitted %d of %d rows", form, c.name, got, rows)
			}
			// What a task allocates once — its locator among it — cancels out.
			perTask := testing.AllocsPerRun(50, func() { runLeaf(t, lf, rec, rows) })
			perRow := (testing.AllocsPerRun(50, func() { runLeaf(t, lf, rec, 2*rows) }) - perTask) / rows
			if c.allocs >= 0 && perRow > c.allocs {
				t.Errorf("%s/%s: %.2f allocations per row, want at most %.1f", form, c.name, perRow, c.allocs)
			}
		}
	}
}

// BenchmarkScanLeaf is the leaf's cost per stored row (ns, B and allocs),
// on each of its paths over each stored form.
func BenchmarkScanLeaf(b *testing.B) {
	for _, form := range []string{"generic", "positional"} {
		for _, c := range leafCases {
			b.Run(form+"/"+c.name, func(b *testing.B) {
				lf := leafFor(b, c.fields, c.filter)
				b.ReportAllocs()
				b.ResetTimer()
				runLeaf(b, lf, leafRecords[form], b.N)
			})
		}
	}
}

// Damaged record bytes under a leaf fail the task with an error; they never
// panic, whichever field the damage hits.
func TestLeafCorruptRecordIsAnError(t *testing.T) {
	lf := leafFor(t, []string{"authorId", "message", "messageId"}, `m.message LIKE '%verizon%'`)
	for _, rec := range leafRecords {
		for cut := 0; cut < len(rec.Stored); cut++ {
			flipped := append([]byte(nil), rec.Stored...)
			flipped[cut] ^= 0x5a
			for _, data := range [][]byte{rec.Stored[:cut], flipped} {
				err := lf.run(&hyracks.TaskContext{}, func(hyracks.Tuple) error { return nil },
					func(visit func(Record) error) error { return visit(Record{Stored: data, Type: rec.Type}) })
				if _, decodeErr := adm.DecodeRecord(data, rec.Type); err != nil && decodeErr == nil {
					t.Errorf("leaf fails with %v on bytes the decoder accepts: %x", err, data)
				}
			}
		}
	}
}
