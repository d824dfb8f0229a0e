package adm

import (
	"fmt"
	"testing"
)

var benchSink Value

// BenchmarkLocateFields measures what a scan pays per record for the fields
// a plan reads — located in place, then decoded — against the whole-record
// decode ("all"), on the two Gleambook record shapes: ns, bytes and
// allocations per record.
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
	for _, rec := range []struct {
		name   string
		obj    *Object
		fields [][]string
	}{
		{"message", message, [][]string{{"authorId"}, {"authorId", "message", "messageId"}}},
		{"user", user, [][]string{{"id"}, {"alias", "id"}}},
	} {
		data := EncodeValue(rec.obj)
		run := func(name string, decode func() (Value, error)) {
			b.Run(rec.name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
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
			run(fmt.Sprintf("fields=%d", len(fields)), func() (v Value, err error) {
				if err = LocateFields(data, fields, spans); err != nil {
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
		run("all", func() (Value, error) { return DecodeValue(data) })
	}
}
