package algebricks

import (
	"testing"

	"asterix/internal/adm"
	"asterix/internal/hyracks"
	"asterix/internal/sqlpp"
)

// leafMessage is a Gleambook message as the benchmark stores it; its ints
// are too large for the runtime's preboxed small values.
var leafMessage = adm.EncodeValue(adm.NewObject(
	adm.Field{Name: "messageId", Value: adm.Int64(123456)},
	adm.Field{Name: "authorId", Value: adm.Int64(9041)},
	adm.Field{Name: "message", Value: adm.String("like verizon its voice-clarity is amazing and the plan is good too")},
	adm.Field{Name: "inResponseTo", Value: adm.Int64(77123)},
	adm.Field{Name: "senderLocation", Value: adm.Point{X: 47.5, Y: -80.25}},
))

// leafCases are the per-row paths of the leaf over leafMessage: what the
// plan lists, what it filters by, whether the row survives, and the
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

// runLeaf pushes n copies of leafMessage through a leaf and returns how
// many it emitted.
func runLeaf(tb testing.TB, lf *leaf, n int) (emitted int) {
	tc := &hyracks.TaskContext{}
	err := lf.run(tc, func(hyracks.Tuple) error { emitted++; return nil }, func(visit func(Record) error) error {
		for i := 0; i < n; i++ {
			if err := visit(Record{Stored: leafMessage}); err != nil {
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
// record whole.
func TestLeafAllocations(t *testing.T) {
	const rows = 200
	for _, c := range leafCases {
		lf := leafFor(t, c.fields, c.filter)
		if got := runLeaf(t, lf, rows); (got == rows) != c.emits || got != 0 && got != rows {
			t.Fatalf("%s: emitted %d of %d rows", c.name, got, rows)
		}
		perTask := testing.AllocsPerRun(50, func() { runLeaf(t, lf, 0) })
		perRow := (testing.AllocsPerRun(50, func() { runLeaf(t, lf, rows) }) - perTask) / rows
		if c.allocs >= 0 && perRow > c.allocs {
			t.Errorf("%s: %.2f allocations per row, want at most %.1f", c.name, perRow, c.allocs)
		}
	}
}

// BenchmarkScanLeaf is the leaf's cost per stored row (ns, B and allocs),
// on each of its paths.
func BenchmarkScanLeaf(b *testing.B) {
	for _, c := range leafCases {
		b.Run(c.name, func(b *testing.B) {
			lf := leafFor(b, c.fields, c.filter)
			b.ReportAllocs()
			b.ResetTimer()
			runLeaf(b, lf, b.N)
		})
	}
}

// Damaged record bytes under a leaf fail the task with an error; they never
// panic, whichever field the damage hits.
func TestLeafCorruptRecordIsAnError(t *testing.T) {
	lf := leafFor(t, []string{"authorId", "message", "messageId"}, `m.message LIKE '%verizon%'`)
	for cut := 0; cut < len(leafMessage); cut++ {
		flipped := append([]byte(nil), leafMessage...)
		flipped[cut] ^= 0x5a
		for _, data := range [][]byte{leafMessage[:cut], flipped} {
			err := lf.run(&hyracks.TaskContext{}, func(hyracks.Tuple) error { return nil },
				func(visit func(Record) error) error { return visit(Record{Stored: data}) })
			if _, decodeErr := adm.DecodeValue(data); err != nil && decodeErr == nil {
				t.Errorf("leaf fails with %v on bytes the decoder accepts: %x", err, data)
			}
		}
	}
}
