package adm

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

// FuzzADMBinaryRoundTrip checks the canonical-fixpoint property of the
// binary codec: any input the decoder accepts must re-encode to a form
// that decodes and re-encodes to identical bytes. (The first encoding may
// differ from arbitrary fuzz input — e.g. non-minimal varints — but one
// decode/encode pass must reach a fixpoint.) Every value it decodes must
// also render, through ToJSON, as valid JSON. It also serves as a
// crash/OOM harness for the decoder on adversarial bytes.
func FuzzADMBinaryRoundTrip(f *testing.F) {
	for _, v := range roundTripSeeds() {
		f.Add(EncodeValue(v))
	}
	// Numbers JSON has no spelling for.
	nan, inf := math.NaN(), math.Inf(1)
	for _, v := range []Value{Double(nan), Double(inf), Double(-inf), Point{X: inf, Y: 0},
		Rectangle{MinX: -inf, MinY: nan, MaxX: 1, MaxY: inf}, Array{Double(nan), Double(1)}} {
		f.Add(EncodeValue(v))
	}
	// A few invalid seeds so the corpus covers error paths.
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00})
	f.Add([]byte{byte(KindArray), 0xff, 0xff, 0xff, 0xff, 0x0f})

	for _, rec := range fuzzRecords() {
		f.Add(EncodeRecord(nil, rec, fuzzRecordType))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		v1, n, err := Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		if js := ToJSON(v1); !json.Valid([]byte(js)) {
			t.Fatalf("ToJSON(%v) = %s, not valid JSON", v1, js)
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

// FuzzDecodeRecord reads arbitrary bytes as a stored record of
// fuzzRecordType, in either form: whatever the damage, the decoder fails
// with ErrCorrupt and never panics, and a record it accepts re-encodes to a
// fixpoint. The type declares an object, an array of objects and a multiset
// of objects, so the positional records it reads nest.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range fuzzRecords() {
		data := EncodeRecord(nil, rec, fuzzRecordType)
		f.Add(data)
		f.Add(data[:len(data)-1])
		f.Add(EncodeValue(rec))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data, fuzzRecordType)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeRecord(%x) fails with %v, not ErrCorrupt", data, err)
		}
		o, isObj := rec.(*Object)
		if err != nil || !isObj {
			return
		}
		e1 := EncodeRecord(nil, o, fuzzRecordType)
		v2, err := DecodeRecord(e1, fuzzRecordType)
		if err != nil {
			t.Fatalf("re-decode of encoded record failed: %v\nrecord: %v\nencoding: %x", err, o, e1)
		}
		if e2 := EncodeRecord(nil, v2.(*Object), fuzzRecordType); !bytes.Equal(e1, e2) {
			t.Fatalf("record encoding is not a fixpoint:\n e1=%x\n e2=%x", e1, e2)
		}
	})
}

// fuzzRecordType is the type under which the fuzz targets read their input
// as a stored record, and fuzzRecords are records of it: with and without
// the optional and the undeclared fields, an int where a double is declared,
// one too long for one-byte offsets, and nested objects — declared and not,
// in and out of collections, one long enough for two-byte offsets itself.
var fuzzRecordType = NewObjectType("FuzzType", false,
	FieldType{Name: "id", Type: Primitive(KindInt64)},
	FieldType{Name: "name", Type: Primitive(KindString), Optional: true},
	FieldType{Name: "score", Type: Primitive(KindDouble), Optional: true},
	FieldType{Name: "tags", Type: NewArrayType(Primitive(KindString)), Optional: true},
	FieldType{Name: "a", Type: AnyType, Optional: true},
	FieldType{Name: "job", Type: fuzzNestedType, Optional: true},
	FieldType{Name: "jobs", Type: NewArrayType(fuzzNestedType), Optional: true},
	FieldType{Name: "bag", Type: NewMultisetType(fuzzNestedType), Optional: true},
)

var fuzzNestedType = NewObjectType("FuzzNested", false,
	FieldType{Name: "org", Type: Primitive(KindString)},
	FieldType{Name: "since", Type: Primitive(KindDate), Optional: true},
)

func fuzzRecords() []*Object {
	job := func(org string, extra ...Field) *Object {
		return NewObject(append([]Field{{Name: "org", Value: String(org)}, {Name: "since", Value: Date(17000)}}, extra...)...)
	}
	return []*Object{
		NewObject(Field{Name: "id", Value: Int64(7)}),
		NewObject(Field{Name: "name", Value: String("")}, Field{Name: "id", Value: Int64(-1)}, Field{Name: "score", Value: Int64(3)}),
		NewObject(Field{Name: "x", Value: Point{X: 1, Y: 2}}, Field{Name: "id", Value: Int64(8)}, Field{Name: "a", Value: Null},
			Field{Name: "tags", Value: Array{String("t")}}, Field{Name: "y", Value: NewObject(Field{Name: "id", Value: Missing})}),
		NewObject(Field{Name: "id", Value: Int64(9)}, Field{Name: "name", Value: String(strings.Repeat("long ", 60))}, Field{Name: "z", Value: Boolean(true)}),
		NewObject(Field{Name: "id", Value: Int64(10)}, Field{Name: "job", Value: job("acme", Field{Name: "title", Value: String("cto")})},
			Field{Name: "jobs", Value: Array{job("a"), NewObject(Field{Name: "org", Value: String("b")}), Null}},
			Field{Name: "bag", Value: Multiset{job(strings.Repeat("c", 300))}}, Field{Name: "more", Value: job("open")}),
		NewObject(Field{Name: "id", Value: Int64(11)}, Field{Name: "jobs", Value: Array{}}, Field{Name: "job", Value: Null}),
	}
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

// FuzzADMDecodeFields drives the field locator with arbitrary bytes — read
// as a record of no type and of fuzzRecordType — and an arbitrary subset of
// field names: it must never panic or reach outside its input, and every
// column it locates must agree with the whole decode wherever that succeeds
// (checkLocate). mask picks the requested names out of the input's own
// field names plus two that may be absent.
func FuzzADMDecodeFields(f *testing.F) {
	dup := &Object{fields: []Field{
		{Name: "a", Value: Int64(1)}, {Name: "b", Value: Array{Null, String("x")}},
		{Name: "a", Value: Double(2)}, {Name: "c", Value: NewObject(Field{Name: "a", Value: Missing})},
	}}
	seeds := [][]byte{EncodeRecord(nil, dup, fuzzRecordType)}
	for _, v := range append(roundTripSeeds(), Value(dup)) {
		seeds = append(seeds, EncodeValue(v))
	}
	for _, rec := range fuzzRecords() {
		seeds = append(seeds, EncodeRecord(nil, rec, fuzzRecordType))
	}
	for _, seed := range seeds {
		for _, mask := range []uint16{0, 1, 5, 0xffff} {
			f.Add(seed, mask)
		}
	}
	f.Add([]byte{byte(KindObject), 0xff, 0xff, 0xff, 0xff, 0x0f}, uint16(3))
	f.Add([]byte{byte(KindObject), 2, 1, 'a', byte(KindArray), 0xff, 0xff, 0x03}, uint16(2))
	// Offsets into the table itself, past the end, and an open part that
	// holds a declared name the record has no value for.
	f.Add([]byte{tagPositional1, 3, 0, 0, 0, 0, 0, byte(KindInt64), 2}, uint16(2))
	f.Add([]byte{tagPositional2, 0, 13, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, byte(KindInt64), 2}, uint16(3))
	f.Add([]byte{tagPositional1, 7, 0, 0, 0, 0, 9, byte(KindInt64), 2, 1, 1, 'a', byte(KindNull)}, uint16(3))

	f.Fuzz(func(t *testing.T, data []byte, mask uint16) {
		candidates := []string{"a", "id"}
		if v, err := DecodeRecord(data, fuzzRecordType); err == nil {
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
		checkLocate(t, data, fuzzRecordType, names)
		checkLocate(t, data, nil, names)
	})
}
