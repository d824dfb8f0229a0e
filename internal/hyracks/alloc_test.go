package hyracks

import (
	"testing"

	"asterix/internal/adm"
)

// TestKernelAllocations is the allocation gate of the per-tuple operator
// kernels: sort comparison, hash partitioning, memory accounting, join key
// tests and the group-by probe allocate nothing per tuple. The tuples are
// built once, here, as an operator receives them.
func TestKernelAllocations(t *testing.T) {
	obj := adm.NewObject(
		adm.Field{Name: "id", Value: adm.Int64(1000)},
		adm.Field{Name: "name", Value: adm.String("ann")},
		adm.Field{Name: "tags", Value: adm.Array{adm.String("a")}},
	)
	a := Tuple{adm.Int64(123456), adm.String("like verizon"), obj, adm.Double(2.5)}
	b := Tuple{adm.Int64(123456), adm.String("like sprint"), obj, adm.Double(2.5)}
	withNull := Tuple{adm.Null, adm.String("x"), obj, adm.Double(2.5)}
	cmp := Comparator{Columns: []int{0, 1, 3}, Desc: []bool{false, true, false}}
	cols := []int{0, 1}

	gt := newGroupTable([]int{1, 0})
	for _, tp := range []Tuple{a, b} {
		if g, h := gt.probe(tp); g == nil {
			gt.insert(h, tp, nil)
		}
	}

	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Comparator.Compare", func() { cmp.Compare(a, b) }},
		{"HashColumns", func() { HashColumns(a, cols) }},
		{"Tuple.EstimateSize", func() { a.EstimateSize() }},
		{"Tuple.EstimateSizeShallow", func() { a.EstimateSizeShallow() }},
		{"keysEqual", func() { keysEqual(a, cols, b, cols) }},
		{"hasNullKey", func() { hasNullKey(withNull, cols) }},
		{"groupTable.probe/hit", func() { gt.probe(b) }},
		{"groupTable.probe/miss", func() { gt.probe(withNull) }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got != 0 {
			t.Errorf("%s: %v allocations per tuple, want 0", c.name, got)
		}
	}
}
