package adm

import (
	"bytes"
	"testing"
)

// FuzzADMBinaryRoundTrip checks the canonical-fixpoint property of the
// binary codec: any input the decoder accepts must re-encode to a form
// that decodes and re-encodes to identical bytes. (The first encoding may
// differ from arbitrary fuzz input — e.g. non-minimal varints — but one
// decode/encode pass must reach a fixpoint.) It also serves as a
// crash/OOM harness for the decoder on adversarial bytes.
func FuzzADMBinaryRoundTrip(f *testing.F) {
	for _, v := range roundTripSeeds() {
		f.Add(EncodeValue(v))
	}
	// A few invalid seeds so the corpus covers error paths.
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00})
	f.Add([]byte{byte(KindArray), 0xff, 0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, data []byte) {
		v1, n, err := Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		e1 := EncodeValue(v1)
		v2, err := DecodeValue(e1)
		if err != nil {
			t.Fatalf("re-decode of encoded value failed: %v\nvalue: %v\nencoding: %x", err, v1, e1)
		}
		e2 := EncodeValue(v2)
		if !bytes.Equal(e1, e2) {
			t.Fatalf("encoding is not a fixpoint:\n e1=%x\n e2=%x", e1, e2)
		}
	})
}

// roundTripSeeds is one value of every kind, the seed corpus the codec's
// fuzz targets share.
func roundTripSeeds() []Value {
	return []Value{
		Missing,
		Null,
		Boolean(true),
		Int64(-42),
		Double(3.25),
		String("gleambook"),
		Date(18000),
		Time(12 * 3600 * 1000),
		Datetime(1554076800000),
		Duration{Months: 14, Millis: 86400000},
		Point{X: 1.5, Y: -2.5},
		Rectangle{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10},
		UUID{0x9e, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		Binary{0xde, 0xad, 0xbe, 0xef},
		Array{Int64(1), String("x"), Null},
		Multiset{Boolean(false), Double(0)},
		func() Value {
			o := NewObject()
			o.Set("id", Int64(7))
			o.Set("name", String("alice"))
			o.Set("tags", Array{String("a"), String("b")})
			return o
		}(),
	}
}

// FuzzADMDecodeFields drives the field locator with arbitrary bytes and an
// arbitrary subset of field names: it must never panic or reach outside its
// input, and every column it locates must agree with the full decode
// wherever that succeeds (checkLocateFields). mask picks the requested names out of the
// input's own field names plus two that may be absent.
func FuzzADMDecodeFields(f *testing.F) {
	dup := &Object{fields: []Field{
		{Name: "a", Value: Int64(1)}, {Name: "b", Value: Array{Null, String("x")}},
		{Name: "a", Value: Double(2)}, {Name: "c", Value: NewObject(Field{Name: "a", Value: Missing})},
	}}
	for _, v := range append(roundTripSeeds(), Value(dup)) {
		for _, mask := range []uint16{0, 1, 5, 0xffff} {
			f.Add(EncodeValue(v), mask)
		}
	}
	f.Add([]byte{byte(KindObject), 0xff, 0xff, 0xff, 0xff, 0x0f}, uint16(3))
	f.Add([]byte{byte(KindObject), 2, 1, 'a', byte(KindArray), 0xff, 0xff, 0x03}, uint16(2))

	f.Fuzz(func(t *testing.T, data []byte, mask uint16) {
		candidates := []string{"a", "id"}
		if v, _, err := Decode(data); err == nil {
			if o, ok := v.(*Object); ok {
				for _, fl := range o.Fields() {
					candidates = append(candidates, fl.Name)
				}
			}
		}
		var names []string
		for i, c := range candidates {
			if i < 16 && mask&(1<<i) != 0 {
				names = append(names, c)
			}
		}
		checkLocateFields(t, data, names)
	})
}
