package hyracks

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"

	"asterix/internal/adm"
	"asterix/internal/sqlpp"
)

// TestAggregatesMatchSQLPP keeps the runtime's table and the language's list
// of aggregate names in step.
func TestAggregatesMatchSQLPP(t *testing.T) {
	var names []string
	for name := range Aggregates {
		names = append(names, name)
	}
	want := slices.Clone(sqlpp.Aggregates)
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Fatalf("hyracks.Aggregates defines %v, sqlpp.Aggregates lists %v", names, want)
	}
}

// FuzzAggregateMerge checks that every aggregate merges: folding a list in
// two parts and merging the partial states answers what one fold over the
// whole list answers, value or error. Spilled group-by read-back, the
// parallel group-by and the aggregating join all rely on it. A double sum
// depends on the order of its additions, so doubles agree within the
// rounding error bound of a sum of the items' magnitudes.
func FuzzAggregateMerge(f *testing.F) {
	f.Add([]byte{0, 0xff, 0, 0xfe, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(1))
	f.Add([]byte{1, 7, 6, 'x', 3, 4, 8, 9, 7, 2, 1, 0, 0, 0, 5, 1}, uint8(2))
	f.Add([]byte{2, 0x10, 0, 0, 0, 0, 0, 0, 0x40, 5, 0, 1, 3, 4, 2, 9, 9, 9, 9, 9, 9, 9, 0x43, 0}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		values, magnitude := fuzzValues(data)
		at := int(split) % (len(values) + 1)
		bound := float64(len(values)+2) * 0x1p-50 * magnitude
		specs := []AggSpec{CountAgg(-1)}
		for _, agg := range Aggregates {
			specs = append(specs, agg(0))
		}
		for _, spec := range specs {
			whole, wholeErr := Fold(spec, values)
			merged, mergedErr := foldMerged(spec, values[:at], values[at:])
			switch {
			case (wholeErr == nil) != (mergedErr == nil):
				t.Fatalf("%s: one fold gives %v, %v; merged parts give %v, %v", spec.Name, whole, wholeErr, merged, mergedErr)
			case wholeErr != nil:
				if wholeErr.Error() != mergedErr.Error() {
					t.Fatalf("%s: one fold fails with %q, merged parts with %q", spec.Name, wholeErr, mergedErr)
				}
			case !sameAnswer(whole, merged, bound):
				t.Fatalf("%s over %v split at %d: one fold gives %v, merged parts %v", spec.Name, values, at, whole, merged)
			}
		}
	})
}

// foldMerged folds a and b apart and finishes the merge of their states.
func foldMerged(spec AggSpec, a, b []adm.Value) (adm.Value, error) {
	partial := spec
	partial.Finish = func(s adm.Value) (adm.Value, error) { return s, nil }
	sa, err := Fold(partial, a)
	if err != nil {
		return nil, err
	}
	sb, err := Fold(partial, b)
	if err != nil {
		return nil, err
	}
	return spec.Finish(spec.Merge(sa, sb))
}

// fuzzValues decodes a value list from data, one tag byte and its payload
// per value, and returns it with the sum of its numbers' finite magnitudes.
func fuzzValues(data []byte) ([]adm.Value, float64) {
	var out []adm.Value
	magnitude := 0.0
	for len(data) > 0 {
		tag := data[0]
		data = data[1:]
		var v adm.Value
		switch tag % 10 {
		case 0: // an integer within 256 of MaxInt64 or MinInt64
			if len(data) == 0 {
				return out, magnitude
			}
			if data[0]&1 == 0 {
				v = adm.Int64(math.MaxInt64 - int64(data[0]>>1))
			} else {
				v = adm.Int64(math.MinInt64 + int64(data[0]>>1))
			}
			data = data[1:]
		case 1: // a small integer
			if len(data) == 0 {
				return out, magnitude
			}
			v = adm.Int64(int8(data[0]))
			data = data[1:]
		case 2: // a finite double of any sign, 52 bits and a scale
			if len(data) < 8 {
				return out, magnitude
			}
			bits := binary.LittleEndian.Uint64(data)
			v = adm.Double(math.Ldexp(float64(int64(bits)>>11), int(int8(bits>>56))/2))
			data = data[8:]
		case 3:
			v = adm.Double(math.NaN())
		case 4:
			v = adm.Double(math.Copysign(0, float64(int(tag&0x10)-8)))
		case 5:
			v = adm.Double(math.Inf(1 - int(tag&0x10)/8))
		case 6:
			v = adm.String(string(rune('a' + tag%3)))
		case 7:
			v = adm.Array{adm.Int64(int64(tag % 3))}
		case 8:
			v = adm.Null
		case 9:
			v = adm.Missing
		}
		if f, ok := adm.AsFloat(v); ok && !math.IsInf(f, 0) && !math.IsNaN(f) {
			magnitude += math.Abs(f)
		}
		out = append(out, v)
	}
	return out, magnitude
}

// sameAnswer compares two finished aggregates: exactly, except that two
// doubles may differ by bound, and NaN equals NaN.
func sameAnswer(x, y adm.Value, bound float64) bool {
	if a, ok := x.(adm.Double); ok {
		if b, ok := y.(adm.Double); ok {
			return a == b || math.IsNaN(float64(a)) && math.IsNaN(float64(b)) || math.Abs(float64(a-b)) <= bound
		}
	}
	return x.Kind() == y.Kind() && adm.Compare(x, y) == 0
}
