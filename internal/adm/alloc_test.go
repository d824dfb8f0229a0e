package adm

import "testing"

// TestKernelAllocations is the allocation gate of Equal and Encode, the
// per-column kernels of joins, duplicate elimination and run files: on
// every typical shape a call allocates nothing. (Compare and Hash64 are
// gated by experiment E14, Locator.Locate by algebricks'
// TestLeafAllocations.) The values are boxed once, here, as a tuple holds
// them, so the calls below box nothing.
func TestKernelAllocations(t *testing.T) {
	var (
		i1, i2 Value = Int64(123456), Int64(123457)
		d1     Value = Double(123456)
		s1, s2 Value = String("like verizon its voice-clarity"), String("like verizon its voice-clarity")
		o1, o2 Value = smallObject(), smallObject()
		a1     Value = Array{Int64(1000), String("b"), Double(2.5)}
		buf          = make([]byte, 0, 1024)
	)
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Equal/int", func() { Equal(i1, i2) }},
		{"Equal/int-double", func() { Equal(i1, d1) }},
		{"Equal/string", func() { Equal(s1, s2) }},
		{"Equal/object", func() { Equal(o1, o2) }},
		{"Equal/array", func() { Equal(a1, a1) }},
		{"Encode/int", func() { buf = Encode(buf[:0], i1) }},
		{"Encode/string", func() { buf = Encode(buf[:0], s1) }},
		{"Encode/object", func() { buf = Encode(buf[:0], o1) }},
		{"Encode/array", func() { buf = Encode(buf[:0], a1) }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got != 0 {
			t.Errorf("%s: %v allocations per call, want 0", c.name, got)
		}
	}
}

// smallObject is an 8-field record of the width the benchmark's types
// have, with fields out of name order.
func smallObject() *Object {
	return NewObject(
		Field{Name: "id", Value: Int64(1000)},
		Field{Name: "author", Value: String("ann")},
		Field{Name: "score", Value: Double(2.5)},
		Field{Name: "tags", Value: Array{String("a"), String("b")}},
		Field{Name: "at", Value: Datetime(1554076800000)},
		Field{Name: "loc", Value: Point{X: 1, Y: 2}},
		Field{Name: "nested", Value: NewObject(Field{Name: "x", Value: Int64(1000)})},
		Field{Name: "flag", Value: Boolean(true)},
	)
}
