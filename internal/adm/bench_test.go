package adm

import (
	"fmt"
	"testing"
)

var benchSink Value

// BenchmarkLocateFields measures what a scan pays per record for the fields
// a plan reads — located in place, then decoded — against the whole-record
// decode ("all"), on the two Gleambook record shapes in both stored forms,
// the generic one and the positional one of their declared types: ns, bytes
// and allocations per record.
func BenchmarkLocateFields(b *testing.B) {
	message := NewObject(
		Field{Name: "messageId", Value: Int64(123456)},
		Field{Name: "authorId", Value: Int64(9041)},
		Field{Name: "message", Value: String("like verizon its voice-clarity is amazing and the plan is good too")},
		Field{Name: "inResponseTo", Value: Int64(77123)},
		Field{Name: "senderLocation", Value: Point{X: 47.5, Y: -80.25}},
	)
	user := NewObject(
		Field{Name: "id", Value: Int64(9041)},
		Field{Name: "alias", Value: String("user009041")},
		Field{Name: "name", Value: String("Gleambook User 9041")},
		Field{Name: "userSince", Value: Datetime(1325376000000)},
		Field{Name: "friendIds", Value: Multiset{Int64(3), Int64(1500), Int64(88), Int64(17003), Int64(4242)}},
		Field{Name: "employment", Value: Array{NewObject(
			Field{Name: "organizationName", Value: String("Org41")},
			Field{Name: "startDate", Value: Date(14000)},
		)}},
	)
	employment := NewObjectType("EmploymentType", false,
		FieldType{Name: "organizationName", Type: Primitive(KindString)},
		FieldType{Name: "startDate", Type: Primitive(KindDate)},
		FieldType{Name: "endDate", Type: Primitive(KindDate), Optional: true})
	for _, rec := range []struct {
		name   string
		obj    *Object
		typ    *Type
		fields [][]string
	}{
		{"message", message, NewObjectType("GleambookMessageType", false,
			FieldType{Name: "messageId", Type: Primitive(KindInt64)},
			FieldType{Name: "authorId", Type: Primitive(KindInt64)},
			FieldType{Name: "inResponseTo", Type: Primitive(KindInt64), Optional: true},
			FieldType{Name: "senderLocation", Type: Primitive(KindPoint), Optional: true},
			FieldType{Name: "message", Type: Primitive(KindString)},
		), [][]string{{"authorId"}, {"authorId", "message", "messageId"}}},
		{"user", user, NewObjectType("GleambookUserType", false,
			FieldType{Name: "id", Type: Primitive(KindInt64)},
			FieldType{Name: "alias", Type: Primitive(KindString)},
			FieldType{Name: "name", Type: Primitive(KindString)},
			FieldType{Name: "userSince", Type: Primitive(KindDatetime)},
			FieldType{Name: "friendIds", Type: NewMultisetType(Primitive(KindInt64))},
			FieldType{Name: "employment", Type: NewArrayType(employment)},
		), [][]string{{"id"}, {"alias", "id"}}},
	} {
		for form, data := range [][]byte{EncodeValue(rec.obj), EncodeRecord(nil, rec.obj, rec.typ)} {
			form := [...]string{"generic", "positional"}[form]
			run := func(name string, decode func() (Value, error)) {
				b.Run(fmt.Sprintf("%s/%s/%s", rec.name, form, name), func(b *testing.B) {
					b.ReportAllocs()
					b.ReportMetric(float64(len(data)), "B/rec")
					for i := 0; i < b.N; i++ {
						v, err := decode()
						if err != nil {
							b.Fatal(err)
						}
						benchSink = v
					}
				})
			}
			for _, fields := range rec.fields {
				spans := make([][]byte, len(fields))
				loc := NewLocator(rec.typ, fields)
				run(fmt.Sprintf("fields=%d", len(fields)), func() (v Value, err error) {
					if err = loc.Locate(data, spans); err != nil {
						return nil, err
					}
					for _, span := range spans {
						if v, _, err = Decode(span); err != nil {
							return nil, err
						}
					}
					return v, nil
				})
			}
			run("all", func() (Value, error) { return DecodeRecord(data, rec.typ) })
		}
	}
}

var keySink []byte

// BenchmarkEncodeKey measures EncodeKey per key, and the key's length, for a
// small integer, an integer beyond 2^53, a double with a full fraction and
// a short string.
func BenchmarkEncodeKey(b *testing.B) {
	for _, c := range []struct {
		name string
		v    Value
	}{
		{"int", Int64(12345)},
		{"int-beyond-2^53", Int64(1<<53 + 1)},
		{"double", Double(0.1)},
		{"string", String("user009041")},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			buf, _ := EncodeKey(nil, c.v)
			b.ReportMetric(float64(len(buf)), "B/key")
			for i := 0; i < b.N; i++ {
				buf, _ = EncodeKey(buf[:0], c.v)
			}
			keySink = buf
		})
	}
}
