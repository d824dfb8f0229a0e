package adm

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// quickValue wraps a generated scalar Value for testing/quick.
type quickScalar struct{ V Value }

// Generate implements quick.Generator, producing random scalar values.
func (quickScalar) Generate(r *rand.Rand, size int) reflect.Value {
	var v Value
	switch r.Intn(10) {
	case 8, 9:
		v = randomNumber(r)
	case 0:
		v = Boolean(r.Intn(2) == 0)
	case 1:
		v = Int64(r.Int63() - r.Int63())
	case 2:
		v = Double(r.NormFloat64() * float64(r.Intn(1e6)+1))
	case 3:
		b := make([]byte, r.Intn(size+1))
		for i := range b {
			b[i] = byte(r.Intn(128))
		}
		v = String(b)
	case 4:
		v = Datetime(r.Int63n(4e12) - 2e12)
	case 5:
		v = Date(r.Int31n(60000) - 30000)
	case 6:
		v = Time(r.Int31n(86400000))
	default:
		v = Point{X: r.NormFloat64() * 100, Y: r.NormFloat64() * 100}
	}
	return reflect.ValueOf(quickScalar{V: v})
}

// Property (quick): binary encoding round-trips scalar values.
func TestQuickEncodeDecodeScalar(t *testing.T) {
	f := func(s quickScalar) bool {
		got, err := DecodeValue(EncodeValue(s.V))
		return err == nil && Compare(got, s.V) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property (quick): EncodeKey is order-preserving for same-kind scalars
// (and across the int64/double numeric family).
func TestQuickKeyEncodingOrder(t *testing.T) {
	comparableKinds := func(a, b Value) bool {
		if a.Kind() == b.Kind() {
			return true
		}
		return a.Kind().IsNumeric() && b.Kind().IsNumeric()
	}
	f := func(a, b quickScalar) bool {
		if !comparableKinds(a.V, b.V) {
			return true // vacuous
		}
		ka, err1 := EncodeKey(nil, a.V)
		kb, err2 := EncodeKey(nil, b.V)
		if err1 != nil || err2 != nil {
			return false
		}
		cmpVals := Compare(a.V, b.V)
		cmpKeys := bytes.Compare(ka, kb)
		if cmpVals < 0 {
			return cmpKeys < 0
		}
		if cmpVals > 0 {
			return cmpKeys > 0
		}
		return cmpKeys == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property (quick): Compare is antisymmetric, numbers compare exactly, and
// hashing respects equality on scalars — on generated values, and on every
// pair of keyValues().
func TestQuickCompareAndHash(t *testing.T) {
	f := func(a, b quickScalar) bool {
		if Compare(a.V, b.V) != -Compare(b.V, a.V) {
			return false
		}
		if a.V.Kind().IsNumeric() && b.V.Kind().IsNumeric() && Compare(a.V, b.V) != exactCompare(a.V, b.V) {
			return false
		}
		if Compare(a.V, b.V) == 0 && Hash64(a.V) != Hash64(b.V) {
			return false
		}
		return Compare(a.V, a.V) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	for _, a := range keyValues() {
		for _, b := range keyValues() {
			if Compare(a, b) == 0 && Hash64(a) != Hash64(b) {
				t.Errorf("%v %s and %v %s are equal and hash apart", a, a.Kind(), b, b.Kind())
			}
		}
	}
}

// Property (quick): JSON serialization of int64/string/bool arrays
// re-parses to an equal value.
func TestQuickJSONRoundTripSimple(t *testing.T) {
	f := func(ints []int64, strs []string, flag bool) bool {
		arr := Array{Boolean(flag)}
		for _, i := range ints {
			arr = append(arr, Int64(i))
		}
		for _, s := range strs {
			arr = append(arr, String(s))
		}
		parsed, err := ParseJSON([]byte(ToJSON(arr)))
		return err == nil && Compare(arr, parsed) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
