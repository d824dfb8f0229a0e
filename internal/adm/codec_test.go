package adm

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

func TestParseJSONBasics(t *testing.T) {
	v := MustParseJSON(`{"id": 1, "name": "alice", "score": 2.5,
		"tags": ["a", "b"], "friends": {{1, 2, 3}}, "extra": null, "ok": true}`)
	o, ok := v.(*Object)
	if !ok {
		t.Fatalf("expected object, got %T", v)
	}
	if !Equal(o.Get("id"), Int64(1)) {
		t.Errorf("id = %v", o.Get("id"))
	}
	if o.Get("id").Kind() != KindInt64 {
		t.Errorf("integer literal should parse as int64, got %s", o.Get("id").Kind())
	}
	if o.Get("score").Kind() != KindDouble {
		t.Errorf("fractional literal should parse as double")
	}
	if o.Get("friends").Kind() != KindMultiset {
		t.Errorf("{{...}} should parse as multiset, got %s", o.Get("friends").Kind())
	}
	if o.Get("extra").Kind() != KindNull {
		t.Errorf("null should parse as null")
	}
}

func TestParseJSONEscapes(t *testing.T) {
	v := MustParseJSON(`"a\nb\tA😀"`)
	want := "a\nb\tA\U0001F600"
	if string(v.(String)) != want {
		t.Errorf("got %q, want %q", v, want)
	}
}

func TestParseJSONErrors(t *testing.T) {
	bad := []string{``, `{`, `[1,`, `{"a"}`, `tru`, `{"a":1}x`, `"unterminated`, `{{1,}`, `01a`}
	for _, s := range bad {
		if _, err := ParseJSON([]byte(s)); err == nil {
			t.Errorf("ParseJSON(%q) should fail", s)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		v := randomValue(r, 2)
		// JSON round-trip only holds for pure-JSON values; skip others.
		if !jsonRepresentable(v) {
			continue
		}
		s := ToJSON(v)
		got, err := ParseJSON([]byte(s))
		if err != nil {
			t.Fatalf("reparse %q: %v", s, err)
		}
		if Compare(v, got) != 0 {
			t.Fatalf("json round trip changed %v -> %v (text %q)", v, got, s)
		}
	}
}

func jsonRepresentable(v Value) bool {
	switch x := v.(type) {
	case nullValue, Boolean, Int64, String:
		return true
	case Double:
		f := float64(x)
		return f == f && f != float64(int64(f)) // avoid NaN and int-valued doubles
	case Array:
		for _, e := range x {
			if !jsonRepresentable(e) {
				return false
			}
		}
		return true
	case *Object:
		for _, f := range x.Fields() {
			if !jsonRepresentable(f.Value) {
				return false
			}
		}
		return true
	}
	return false
}

func TestTemporalParsing(t *testing.T) {
	dt, err := ParseDatetime("2017-01-20T10:30:00")
	if err != nil {
		t.Fatal(err)
	}
	if FormatDatetime(dt) != "2017-01-20T10:30:00" {
		t.Errorf("datetime round trip: %s", FormatDatetime(dt))
	}
	d, err := ParseDate("2017-01-20")
	if err != nil {
		t.Fatal(err)
	}
	if FormatDate(d) != "2017-01-20" {
		t.Errorf("date round trip: %s", FormatDate(d))
	}
	tm, err := ParseTime("23:59:59.500")
	if err != nil {
		t.Fatal(err)
	}
	if FormatTime(tm) != "23:59:59.500" {
		t.Errorf("time round trip: %s", FormatTime(tm))
	}
	du, err := ParseDuration("P30D")
	if err != nil {
		t.Fatal(err)
	}
	if du.Millis != 30*millisPerDay || du.Months != 0 {
		t.Errorf("P30D parsed as %+v", du)
	}
	du2, err := ParseDuration("P1Y2MT3H4M5S")
	if err != nil {
		t.Fatal(err)
	}
	if du2.Months != 14 || du2.Millis != 3*3600000+4*60000+5000 {
		t.Errorf("P1Y2MT3H4M5S parsed as %+v", du2)
	}
	if _, err := ParseDuration("30D"); err == nil {
		t.Error("duration without P should fail")
	}
}

func TestAddDuration(t *testing.T) {
	dt, _ := ParseDatetime("2017-01-31T00:00:00")
	got := AddDuration(dt, Duration{Months: 1})
	// Go's AddDate normalizes Jan 31 + 1 month to Mar 3 (2017 not a leap year).
	if FormatDatetime(got) != "2017-03-03T00:00:00" {
		t.Errorf("add 1 month to Jan 31: %s", FormatDatetime(got))
	}
	end, _ := ParseDatetime("2018-06-15T12:00:00")
	start := SubDuration(end, Duration{Millis: 30 * millisPerDay})
	if FormatDatetime(start) != "2018-05-16T12:00:00" {
		t.Errorf("minus P30D: %s", FormatDatetime(start))
	}
}

// Property: EncodeKey preserves Compare order for scalar values, the
// generated numbers of randomNumber among them, which it orders exactly.
func TestPropKeyEncodingPreservesOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var vals []Value
	for i := 0; i < 400; i++ {
		v := randomValue(r, 0)
		if v.Kind().IsScalar() && v.Kind() != KindRectangle {
			vals = append(vals, v)
		}
		vals = append(vals, randomNumber(r))
	}
	// Also adversarial strings containing 0x00 bytes.
	vals = append(vals, String("a\x00b"), String("a\x00"), String("a"), String("a\x01"), String(""))
	type kv struct {
		v Value
		k []byte
	}
	var ks []kv
	for _, v := range vals {
		k, err := EncodeKey(nil, v)
		if err != nil {
			t.Fatalf("EncodeKey(%v): %v", v, err)
		}
		if n, err := KeyLen(k); err != nil || n != len(k) {
			t.Fatalf("KeyLen(% x), the key of %v, = %d, %v", k, v, n, err)
		}
		ks = append(ks, kv{v, k})
	}
	sort.Slice(ks, func(i, j int) bool { return bytes.Compare(ks[i].k, ks[j].k) < 0 })
	for i := 1; i < len(ks); i++ {
		a, b := ks[i-1], ks[i]
		if a.v.Kind() == b.v.Kind() || (a.v.Kind().IsNumeric() && b.v.Kind().IsNumeric()) {
			if c := Compare(a.v, b.v); c != bytes.Compare(a.k, b.k) {
				t.Fatalf("key order disagrees with value order: %v (key %x) before %v (key %x), Compare %d",
					a.v, a.k, b.v, b.k, c)
			}
		}
	}
}

func TestCompositeKeyOrder(t *testing.T) {
	// ("a", 2) < ("a", 10) must hold even though "2" > "1" textually.
	k1, k2 := mustKey(t, String("a"), Int64(2)), mustKey(t, String("a"), Int64(10))
	if bytes.Compare(k1, k2) >= 0 {
		t.Error(`("a",2) should sort before ("a",10)`)
	}
	// ("a\x00", 1) vs ("a", 1): "a" < "a\x00".
	k3, k4 := mustKey(t, String("a\x00"), Int64(1)), mustKey(t, String("a"), Int64(1))
	if bytes.Compare(k4, k3) >= 0 {
		t.Error(`("a",1) should sort before ("a\x00",1)`)
	}
	// (1, x) < (1.5, y) < (2, z): a number's key ends where it ends.
	k5, k6 := mustKey(t, Int64(1), Int64(99)), mustKey(t, Double(1.5), Int64(0))
	if k7 := mustKey(t, Int64(2), Int64(-5)); bytes.Compare(k5, k6) >= 0 || bytes.Compare(k6, k7) >= 0 {
		t.Error(`(1, 99) < (1.5, 0) < (2, -5) should hold`)
	}
}

func TestEncodeKeyRejectsNonScalar(t *testing.T) {
	if _, err := EncodeKey(nil, Array{Int64(1)}); err == nil {
		t.Error("arrays must be rejected as keys")
	}
	if _, err := EncodeKey(nil, NewObject()); err == nil {
		t.Error("objects must be rejected as keys")
	}
}

func TestDecodeCorruptInput(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		v := randomValue(r, 2)
		data := EncodeValue(v)
		if len(data) < 2 {
			continue
		}
		trunc := data[:r.Intn(len(data)-1)+1]
		if val, n, err := Decode(trunc); err == nil && n == len(trunc) {
			// Truncation at a value boundary can decode legitimately; only
			// flag decodes that consumed everything but produced a value
			// of a different kind family than plausible.
			_ = val
		}
	}
	// Explicit corrupt cases must error.
	if _, err := DecodeValue(nil); err == nil {
		t.Error("empty input must fail")
	}
	if _, err := DecodeValue([]byte{0xFE}); err == nil {
		t.Error("unknown tag must fail")
	}
	if _, err := DecodeValue([]byte{byte(KindString), 0x05, 'a'}); err == nil {
		t.Error("truncated string must fail")
	}
}

// checkLocate asserts the Locator contract on one input, a record of typ
// (nil: of no type): it never reaches outside data, damage is ErrCorrupt,
// and whenever the whole decode yields an object it succeeds and every
// requested name decodes to what Get gives on the whole decode (absent:
// Missing; a repeated name: its first occurrence).
func checkLocate(t *testing.T, data []byte, typ *Type, names []string) {
	t.Helper()
	out := make([][]byte, len(names))
	err := NewLocator(typ, names).Locate(data, out)
	for i, span := range out {
		// data[pos:] keeps data's backing array: its offset is the
		// difference of the capacities.
		if off := cap(data) - cap(span); span != nil &&
			(off < 0 || off+len(span) > len(data) || len(span) > 0 && &span[0] != &data[off]) {
			t.Fatalf("Locate(%x, %q): column %d is not a slice of the input", data, names, i)
		}
	}
	if err != nil && err != ErrCorrupt {
		t.Fatalf("Locate(%x, %q) fails with %v, not ErrCorrupt", data, names, err)
	}
	full, fullErr := DecodeRecord(data, typ)
	o, isObj := full.(*Object)
	if fullErr != nil || !isObj {
		return // only "no panic, no over-read" is promised
	}
	if err != nil {
		t.Fatalf("Locate(%x, %q) failed on input DecodeRecord accepts: %v", data, names, err)
	}
	for i, name := range names {
		var got Value = Missing
		declared, _ := typ.Field(name)
		if out[i] != nil {
			if got, _, err = DecodeAs(out[i], declared.Type); err != nil {
				t.Fatalf("Locate(%x, %q): column %q does not decode: %v", data, names, name, err)
			}
		}
		if want := o.Get(name); Compare(got, want) != 0 || got.Kind() != want.Kind() {
			t.Fatalf("Locate(%x, %q): column %q = %v, whole decode has %v", data, names, name, got, want)
		}
	}
}

func TestSkipValueMatchesDecode(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		v := randomValue(r, 3)
		if i%2 == 1 { // every other value a record, for the locator below
			v = NewObject(Field{Name: "c", Value: v}, Field{Name: "a", Value: randomValue(r, 2)}, Field{Name: "z", Value: randomValue(r, 1)})
		}
		data := EncodeValue(v)
		if n, err := skipValue(data); err != nil || n != len(data) {
			t.Fatalf("skipValue(%x) = %d, %v; want %d", data, n, err, len(data))
		}
		// On a damaged encoding the two walkers must agree on accept or
		// reject, and on the length when they accept.
		cut := data[:r.Intn(len(data))]
		if r.Intn(2) == 0 && len(data) > 1 {
			cut = append([]byte(nil), data...)
			cut[r.Intn(len(cut))] ^= byte(1 + r.Intn(255))
		}
		_, dn, derr := Decode(cut)
		sn, serr := skipValue(cut)
		if (derr == nil) != (serr == nil) || (derr == nil && dn != sn) {
			t.Fatalf("on %x: Decode = %d, %v but skipValue = %d, %v", cut, dn, derr, sn, serr)
		}
		// The locator walks the same damage: an error or columns that agree
		// with the full decode, never a panic. A name no record has makes it
		// walk to the end, where it must reject what Decode rejects.
		checkLocate(t, cut, nil, []string{"z", "nope", "a"})
		var none [1][]byte
		if lerr := NewLocator(nil, []string{"\x00absent"}).Locate(cut, none[:]); derr == nil && lerr != nil ||
			derr != nil && lerr == nil && len(cut) > 0 && Kind(cut[0]) == KindObject {
			t.Fatalf("on %x: Decode = %v but a full Locate walk = %v", cut, derr, lerr)
		}
	}
}

func TestLocateGenericForm(t *testing.T) {
	// Built field by field: NewObject would collapse the duplicate name.
	rec := &Object{fields: []Field{
		{Name: "id", Value: Int64(7)},
		{Name: "alias", Value: String("u7")},
		{Name: "friendIds", Value: Multiset{Int64(1), Int64(2)}},
		{Name: "id", Value: String("shadowed")},
		{Name: "employment", Value: Array{NewObject(Field{Name: "org", Value: String("x")})}},
	}}
	data := EncodeValue(rec)
	for _, names := range [][]string{
		{}, {"id"}, {"alias", "id"}, {"employment"}, {"nope"}, {"id", "nope", "friendIds"},
		{"id", "alias", "friendIds", "employment"}, {"id", "id"},
	} {
		checkLocate(t, data, nil, names)
	}
	// Once every wanted name is met the rest of the record is not read:
	// damage behind the last wanted field goes unnoticed, damage before it
	// is an error, never a panic.
	var out [2][]byte
	aliasEnd := bytes.Index(data, []byte("u7")) + 2
	if err := NewLocator(nil, []string{"id", "alias"}).Locate(data[:aliasEnd], out[:]); err != nil {
		t.Errorf("leading-field projection read past its last field: %v", err)
	}
	if err := NewLocator(nil, []string{"employment"}).Locate(data[:aliasEnd], out[:1]); err == nil {
		t.Error("truncated record must fail when the wanted field lies behind the damage")
	}
	// Not an object: no fields.
	if err := NewLocator(nil, []string{"a"}).Locate(EncodeValue(Int64(3)), out[:1]); err != nil || out[0] != nil {
		t.Errorf("non-object: column %x, %v; want absent", out[0], err)
	}
	if err := NewLocator(nil, nil).Locate(nil, nil); err == nil {
		t.Error("empty input must fail")
	}
}
