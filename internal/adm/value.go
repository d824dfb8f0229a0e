// Package adm implements the Asterix Data Model (ADM): a superset of JSON
// with object-database extensions — richer primitive types (temporal,
// spatial, binary), multisets in addition to arrays, and a distinction
// between null (known to be absent) and missing (not present at all).
//
// ADM values are immutable once constructed and safe for concurrent reads.
package adm

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value. The numeric order of kinds
// defines the cross-kind total order used for sorting heterogeneous data:
// missing < null < boolean < numbers < string < temporal < spatial <
// binary < array < multiset < object.
type Kind uint8

// Value kinds, in cross-kind sort order.
const (
	KindMissing Kind = iota
	KindNull
	KindBoolean
	KindInt64
	KindDouble
	KindString
	KindDate
	KindTime
	KindDatetime
	KindDuration
	KindPoint
	KindRectangle
	KindUUID
	KindBinary
	KindArray
	KindMultiset
	KindObject
)

var kindNames = [...]string{
	KindMissing:   "missing",
	KindNull:      "null",
	KindBoolean:   "boolean",
	KindInt64:     "int64",
	KindDouble:    "double",
	KindString:    "string",
	KindDate:      "date",
	KindTime:      "time",
	KindDatetime:  "datetime",
	KindDuration:  "duration",
	KindPoint:     "point",
	KindRectangle: "rectangle",
	KindUUID:      "uuid",
	KindBinary:    "binary",
	KindArray:     "array",
	KindMultiset:  "multiset",
	KindObject:    "object",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsNumeric reports whether the kind is a numeric type.
func (k Kind) IsNumeric() bool { return k == KindInt64 || k == KindDouble }

// IsScalar reports whether the kind is a scalar (non-collection, non-object)
// type, and hence usable as an index key.
func (k Kind) IsScalar() bool { return k > KindNull && k < KindArray }

// Value is an immutable ADM value.
type Value interface {
	Kind() Kind
	// String renders the value as an ADM literal (JSON extended with
	// constructor syntax for non-JSON types).
	String() string
}

// Missing is the ADM "missing" value: the field was not present at all.
type missingValue struct{}

// Null is the ADM "null" value: the field is present and known to be null.
type nullValue struct{}

// Missing and Null are the singleton instances of the two absent-value kinds.
var (
	Missing Value = missingValue{}
	Null    Value = nullValue{}
)

func (missingValue) Kind() Kind     { return KindMissing }
func (missingValue) String() string { return "missing" }
func (nullValue) Kind() Kind        { return KindNull }
func (nullValue) String() string    { return "null" }

// Boolean is an ADM boolean.
type Boolean bool

func (Boolean) Kind() Kind { return KindBoolean }
func (b Boolean) String() string {
	if b {
		return "true"
	}
	return "false"
}

// Int64 is an ADM 64-bit signed integer (ADM's int8/16/32/64 collapse to a
// single 64-bit representation here).
type Int64 int64

func (Int64) Kind() Kind       { return KindInt64 }
func (i Int64) String() string { return strconv.FormatInt(int64(i), 10) }

// Double is an ADM IEEE-754 double.
type Double float64

func (Double) Kind() Kind { return KindDouble }
func (d Double) String() string {
	f := float64(d)
	if math.IsInf(f, 1) {
		return "Infinity"
	}
	if math.IsInf(f, -1) {
		return "-Infinity"
	}
	if math.IsNaN(f) {
		return "NaN"
	}
	s := strconv.FormatFloat(f, 'g', -1, 64)
	// Keep doubles visually distinct from ints in literal output.
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// String is an ADM UTF-8 string.
type String string

func (String) Kind() Kind       { return KindString }
func (s String) String() string { return strconv.Quote(string(s)) }

// Date is days since the Unix epoch.
type Date int32

func (Date) Kind() Kind       { return KindDate }
func (d Date) String() string { return `date("` + FormatDate(d) + `")` }

// Time is milliseconds since midnight.
type Time int32

func (Time) Kind() Kind       { return KindTime }
func (t Time) String() string { return `time("` + FormatTime(t) + `")` }

// Datetime is milliseconds since the Unix epoch (UTC).
type Datetime int64

func (Datetime) Kind() Kind { return KindDatetime }
func (t Datetime) String() string {
	return `datetime("` + FormatDatetime(t) + `")`
}

// Duration is an ISO-8601 duration split into a month part and a
// millisecond part, since months have no fixed length in milliseconds.
type Duration struct {
	Months int32
	Millis int64
}

func (Duration) Kind() Kind { return KindDuration }
func (d Duration) String() string {
	return `duration("` + FormatDuration(d) + `")`
}

// Point is a 2-D point (the paper's "simple (Googlemap style) spatial"
// attribute type).
type Point struct{ X, Y float64 }

func (Point) Kind() Kind { return KindPoint }
func (p Point) String() string {
	return fmt.Sprintf(`point("%g,%g")`, p.X, p.Y)
}

// Rectangle is an axis-aligned 2-D rectangle (bounding box).
type Rectangle struct{ MinX, MinY, MaxX, MaxY float64 }

func (Rectangle) Kind() Kind { return KindRectangle }
func (r Rectangle) String() string {
	return fmt.Sprintf(`rectangle("%g,%g %g,%g")`, r.MinX, r.MinY, r.MaxX, r.MaxY)
}

// Contains reports whether (x, y) lies inside or on the rectangle boundary.
func (r Rectangle) Contains(x, y float64) bool {
	return x >= r.MinX && x <= r.MaxX && y >= r.MinY && y <= r.MaxY
}

// Intersects reports whether two rectangles overlap.
func (r Rectangle) Intersects(o Rectangle) bool {
	return r.MinX <= o.MaxX && o.MinX <= r.MaxX && r.MinY <= o.MaxY && o.MinY <= r.MaxY
}

// UUID is a 128-bit identifier.
type UUID [16]byte

func (UUID) Kind() Kind { return KindUUID }
func (u UUID) String() string {
	return fmt.Sprintf(`uuid("%x-%x-%x-%x-%x")`, u[0:4], u[4:6], u[6:8], u[8:10], u[10:16])
}

// Binary is an opaque byte string.
type Binary []byte

func (Binary) Kind() Kind       { return KindBinary }
func (b Binary) String() string { return fmt.Sprintf(`hex("%X")`, []byte(b)) }

// Array is an ordered list of values.
type Array []Value

func (Array) Kind() Kind { return KindArray }
func (a Array) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, v := range a {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(']')
	return sb.String()
}

// Multiset is an unordered bag of values. Its literal syntax is {{ ... }}.
type Multiset []Value

func (Multiset) Kind() Kind { return KindMultiset }
func (m Multiset) String() string {
	var sb strings.Builder
	sb.WriteString("{{")
	for i, v := range m {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(v.String())
	}
	sb.WriteString("}}")
	return sb.String()
}

// Field is a named field of an Object.
type Field struct {
	Name  string
	Value Value
}

// Object is an ADM object (record). Field order is preserved as
// constructed; lookup is by name. Objects are the unit of storage in
// datasets.
type Object struct {
	fields []Field
}

// NewObject builds an object from fields, keeping their order. Duplicate
// names keep the last occurrence, and a field whose value is missing is
// left out (see Set).
func NewObject(fields ...Field) *Object {
	o := &Object{fields: make([]Field, 0, len(fields))}
	for _, f := range fields {
		o.Set(f.Name, f.Value)
	}
	return o
}

func (*Object) Kind() Kind { return KindObject }

// Len returns the number of fields.
func (o *Object) Len() int { return len(o.fields) }

// Fields returns the fields in construction order. The returned slice must
// not be modified.
func (o *Object) Fields() []Field { return o.fields }

// Get returns the value of the named field, or Missing if absent.
func (o *Object) Get(name string) Value {
	for _, f := range o.fields {
		if f.Name == name {
			return f.Value
		}
	}
	return Missing
}

// Has reports whether the named field is present.
func (o *Object) Has(name string) bool {
	for _, f := range o.fields {
		if f.Name == name {
			return true
		}
	}
	return false
}

// Set sets the named field, replacing any existing value. An object never
// holds a field whose value is missing, so setting one leaves the object
// as it is: a missing value is an absent field. Set is intended for use
// during construction only; objects must not be mutated after being
// shared.
func (o *Object) Set(name string, v Value) {
	if v == Missing {
		return
	}
	for i, f := range o.fields {
		if f.Name == name {
			o.fields[i].Value = v
			return
		}
	}
	o.fields = append(o.fields, Field{Name: name, Value: v})
}

// Without returns a copy of the object without the named field.
func (o *Object) Without(name string) *Object {
	out := &Object{fields: make([]Field, 0, len(o.fields))}
	for _, f := range o.fields {
		if f.Name != name {
			out.fields = append(out.fields, f)
		}
	}
	return out
}

// smallObjectFields bounds the stack-resident index buffers the compare
// and hash kernels use to visit object fields (and multiset elements) in
// canonical order without allocating. Wider values fall back to the
// sorted-copy path.
const smallObjectFields = 16

// sortedIdx writes the name-sorted order of o's fields into idx, which
// must have length len(o.fields). Insertion sort: quadratic, but only
// run on ≤ smallObjectFields inputs, and allocation-free so the hot
// comparator/hash kernels can call it per tuple.
func (o *Object) sortedIdx(idx []int32) {
	for i := range o.fields {
		j := i
		for j > 0 && o.fields[idx[j-1]].Name > o.fields[i].Name {
			idx[j] = idx[j-1]
			j--
		}
		idx[j] = int32(i)
	}
}

// sortedFields returns the fields sorted by name (for canonical hashing and
// equality), without modifying the object.
func (o *Object) sortedFields() []Field {
	fs := make([]Field, len(o.fields))
	copy(fs, o.fields)
	sort.Slice(fs, func(i, j int) bool { return fs[i].Name < fs[j].Name })
	return fs
}

func (o *Object) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, f := range o.fields {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Quote(f.Name))
		sb.WriteByte(':')
		sb.WriteString(f.Value.String())
	}
	sb.WriteByte('}')
	return sb.String()
}

// AsFloat converts a numeric value to float64. ok is false for
// non-numeric values.
func AsFloat(v Value) (f float64, ok bool) {
	switch x := v.(type) {
	case Int64:
		return float64(x), true
	case Double:
		return float64(x), true
	}
	return 0, false
}

// AsInt converts an integer-valued numeric value to int64.
func AsInt(v Value) (i int64, ok bool) {
	switch x := v.(type) {
	case Int64:
		return int64(x), true
	case Double:
		f := float64(x)
		if f == math.Trunc(f) && !math.IsInf(f, 0) {
			return int64(f), true
		}
	}
	return 0, false
}

// Truthy implements SQL++ boolean coercion: only boolean true is true;
// null/missing propagate as unknown (reported via ok=false).
func Truthy(v Value) (val, known bool) {
	switch x := v.(type) {
	case Boolean:
		return bool(x), true
	case missingValue, nullValue:
		return false, false
	}
	return false, false
}
