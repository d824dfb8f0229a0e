package adm

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// randomRecordType is an object type of up to six declared fields — scalars,
// a double (which admits ints), any, a nested object type, collections —
// some optional, closed or open; one in eight declares no field at all.
func randomRecordType(r *rand.Rand) *Type {
	nested := NewObjectType("", r.Intn(2) == 0, FieldType{Name: "org", Type: Primitive(KindString)},
		FieldType{Name: "since", Type: Primitive(KindDate), Optional: true})
	kinds := []*Type{Primitive(KindInt64), Primitive(KindDouble), Primitive(KindString), AnyType, nested,
		NewArrayType(nested), NewMultisetType(Primitive(KindInt64))}
	t := NewObjectType("T", r.Intn(3) == 0)
	if r.Intn(8) == 0 {
		return t
	}
	for i, n := 0, 1+r.Intn(6); i < n; i++ {
		t.Fields = append(t.Fields, FieldType{Name: fmt.Sprintf("f%d", i), Type: kinds[r.Intn(len(kinds))], Optional: r.Intn(3) == 0})
	}
	return t
}

// randomOfType is a value that conforms to t; long picks the length class of
// its strings (0: short, 1: a few hundred bytes, 2: past 64 KiB).
func randomOfType(r *rand.Rand, t *Type, long int) Value {
	switch t.Tag {
	case TagPrimitive:
		switch t.Prim {
		case KindInt64:
			return Int64(r.Int63n(1<<40) - 1<<39)
		case KindDouble:
			if r.Intn(2) == 0 {
				return Int64(r.Intn(100)) // numeric promotion: stays an int
			}
			return Double(r.NormFloat64())
		case KindString:
			return String(strings.Repeat("s", []int{r.Intn(3), 300, 70000}[long]*r.Intn(2)))
		case KindDate:
			return Date(r.Int31n(20000))
		}
	case TagArray, TagMultiset:
		elems := make([]Value, r.Intn(3))
		for i := range elems {
			elems[i] = randomOfType(r, t.Elem, 0)
		}
		if t.Tag == TagArray {
			return Array(elems)
		}
		return Multiset(elems)
	case TagObject:
		return randomRecord(r, t, 0)
	}
	if v := randomValue(r, 2); v.Kind() > KindNull {
		return v
	}
	return Boolean(true)
}

// randomRecord is a record that conforms to t, its fields in a random order:
// optional fields absent or null now and then, undeclared ones if t is open.
func randomRecord(r *rand.Rand, t *Type, long int) *Object {
	var fields []Field
	for _, f := range t.Fields {
		switch {
		case f.Optional && r.Intn(3) == 0:
		case f.Optional && r.Intn(4) == 0:
			fields = append(fields, Field{Name: f.Name, Value: Null})
		default:
			fields = append(fields, Field{Name: f.Name, Value: randomOfType(r, f.Type, long)})
		}
	}
	for i := r.Intn(4); i > 0 && !t.Closed; i-- {
		fields = append(fields, Field{Name: fmt.Sprintf("x%d", i), Value: randomValue(r, 2)})
	}
	r.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
	return NewObject(fields...)
}

// Over random types and records that conform to them: the positional
// encoding decodes to what the generic one does — the same fields with the
// same kinds, declared ones first in declared order, then the others as
// written — and a locator finds in both what Get finds in the decode.
func TestPositionalMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	widths := map[byte]int{}
	for i := 0; i < 3000; i++ {
		typ := randomRecordType(r)
		long := 0
		if i%10 == 0 {
			long = 1 + i/10%2
		}
		rec := randomRecord(r, typ, long)
		if err := typ.Validate(rec); err != nil {
			t.Fatalf("generated record %v does not conform to %v: %v", rec, typ, err)
		}
		pos, gen := EncodeRecord(nil, rec, typ), EncodeValue(rec)
		widths[pos[0]]++
		if len(pos) > 1<<8 && pos[0] == tagPositional1 || len(pos) > 1<<16 && pos[0] != tagPositional4 {
			t.Fatalf("a record of %d bytes has tag %d", len(pos), pos[0])
		}
		if _, _, err := Decode(pos); err == nil {
			t.Fatalf("Decode accepts positional record %x without its type", pos)
		}
		if _, err := skipValue(pos); err == nil {
			t.Fatalf("skipValue accepts positional record %x", pos)
		}
		got, err := DecodeRecord(pos, typ)
		if err != nil {
			t.Fatalf("DecodeRecord(EncodeRecord(%v), %v): %v", rec, typ, err)
		}
		want, err := DecodeRecord(gen, typ)
		if err != nil {
			t.Fatal(err)
		}
		var order []Field
		for _, f := range typ.Fields {
			if rec.Has(f.Name) {
				order = append(order, Field{Name: f.Name, Value: rec.Get(f.Name)})
			}
		}
		for _, f := range want.(*Object).Fields() {
			if _, declared := typ.Field(f.Name); !declared {
				order = append(order, f)
			}
		}
		fields := got.(*Object).Fields()
		if len(fields) != len(order) {
			t.Fatalf("%v under %v decodes to %v", rec, typ, got)
		}
		for k, f := range fields {
			if f.Name != order[k].Name || Compare(f.Value, order[k].Value) != 0 || f.Value.Kind() != order[k].Value.Kind() {
				t.Fatalf("%v under %v decodes to %v: field %d is not %s: %v", rec, typ, got, k, order[k].Name, order[k].Value)
			}
		}
		names := []string{"absent", "x1", "f0"}
		for _, f := range fields {
			names = append(names, f.Name)
		}
		names = append(names, "f0", "x1") // wanted twice
		r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		names = names[:1+r.Intn(len(names))]
		checkLocate(t, pos, typ, names)
		checkLocate(t, gen, typ, names)
	}
	if len(widths) != 3 {
		t.Errorf("offset widths met: %v; want all three", widths)
	}
}

// Damage to a positional record is an error, never a panic or a read
// outside it: in its offsets, ErrCorrupt from the decoder too.
func TestPositionalDamageIsCorrupt(t *testing.T) {
	names := []string{"tags", "id", "z", "name", "a", "x"}
	for _, rec := range fuzzRecords() {
		data := EncodeRecord(nil, rec, fuzzRecordType)
		head := 1 + (len(fuzzRecordType.Fields)+1)*offsetWidth(data[0])
		for cut := 0; cut < len(data); cut++ {
			checkLocate(t, data[:cut], fuzzRecordType, names)
			for _, flip := range []byte{0x01, 0x5a, 0xff} {
				damaged := append([]byte(nil), data...)
				damaged[cut] ^= flip
				checkLocate(t, damaged, fuzzRecordType, names)
				checkLocate(t, damaged, nil, names)
				if _, err := DecodeRecord(damaged, fuzzRecordType); cut > 0 && cut < head && !errors.Is(err, ErrCorrupt) {
					t.Errorf("offset byte %d of %x damaged: DecodeRecord = %v, want ErrCorrupt", cut, data, err)
				}
			}
		}
		if _, err := DecodeRecord(data, AnyType); !errors.Is(err, ErrCorrupt) {
			t.Errorf("a positional record read without an object type: %v, want ErrCorrupt", err)
		}
		if err := NewLocator(nil, names).Locate(data, make([][]byte, len(names))); err != ErrCorrupt {
			t.Errorf("a positional record located without a type: %v, want ErrCorrupt", err)
		}
	}
}
