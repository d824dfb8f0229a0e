package adm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Binary storage encoding: each value is a 1-byte kind tag followed by a
// kind-specific payload. Variable-length payloads are uvarint
// length-prefixed. This is the on-disk record format for LSM components
// and the frame format for Hyracks data movement.

// Encode appends the binary encoding of v to buf and returns the result.
func Encode(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.Kind()))
	switch x := v.(type) {
	case missingValue, nullValue:
	case Boolean:
		if x {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case Int64:
		buf = binary.AppendVarint(buf, int64(x))
	case Double:
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(float64(x)))
	case String:
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		buf = append(buf, x...)
	case Date:
		buf = binary.AppendVarint(buf, int64(x))
	case Time:
		buf = binary.AppendVarint(buf, int64(x))
	case Datetime:
		buf = binary.AppendVarint(buf, int64(x))
	case Duration:
		buf = binary.AppendVarint(buf, int64(x.Months))
		buf = binary.AppendVarint(buf, x.Millis)
	case Point:
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(x.X))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(x.Y))
	case Rectangle:
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(x.MinX))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(x.MinY))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(x.MaxX))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(x.MaxY))
	case UUID:
		buf = append(buf, x[:]...)
	case Binary:
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		buf = append(buf, x...)
	case Array:
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		for _, e := range x {
			buf = Encode(buf, e)
		}
	case Multiset:
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		for _, e := range x {
			buf = Encode(buf, e)
		}
	case *Object:
		fs := x.Fields()
		buf = binary.AppendUvarint(buf, uint64(len(fs)))
		for _, f := range fs {
			buf = binary.AppendUvarint(buf, uint64(len(f.Name)))
			buf = append(buf, f.Name...)
			buf = Encode(buf, f.Value)
		}
	default:
		panic(fmt.Sprintf("adm: cannot encode %T", v))
	}
	return buf
}

// EncodeValue returns a fresh encoding of v.
func EncodeValue(v Value) []byte { return Encode(nil, v) }

// Decode decodes one value from data, returning it and the number of bytes
// consumed.
func Decode(data []byte) (Value, int, error) {
	if len(data) == 0 {
		return nil, 0, ErrCorrupt
	}
	k := Kind(data[0])
	pos := 1
	fail := func(what string) (Value, int, error) {
		return nil, 0, fmt.Errorf("%w (%s)", ErrCorrupt, what)
	}
	switch k {
	case KindMissing:
		return Missing, pos, nil
	case KindNull:
		return Null, pos, nil
	case KindBoolean:
		if pos >= len(data) {
			return fail("boolean")
		}
		return Boolean(data[pos] != 0), pos + 1, nil
	case KindInt64:
		i, n := binary.Varint(data[pos:])
		if n <= 0 {
			return fail("int64")
		}
		return Int64(i), pos + n, nil
	case KindDouble:
		if pos+8 > len(data) {
			return fail("double")
		}
		return Double(math.Float64frombits(binary.BigEndian.Uint64(data[pos:]))), pos + 8, nil
	case KindString:
		l, n := binary.Uvarint(data[pos:])
		// The length check stays in uint64: converting an adversarial l
		// to int first can overflow negative and slip past the bound.
		if n <= 0 || l > uint64(len(data)-pos-n) {
			return fail("string")
		}
		pos += n
		return String(data[pos : pos+int(l)]), pos + int(l), nil
	case KindDate:
		i, n := binary.Varint(data[pos:])
		if n <= 0 {
			return fail("date")
		}
		return Date(i), pos + n, nil
	case KindTime:
		i, n := binary.Varint(data[pos:])
		if n <= 0 {
			return fail("time")
		}
		return Time(i), pos + n, nil
	case KindDatetime:
		i, n := binary.Varint(data[pos:])
		if n <= 0 {
			return fail("datetime")
		}
		return Datetime(i), pos + n, nil
	case KindDuration:
		months, n := binary.Varint(data[pos:])
		if n <= 0 {
			return fail("duration")
		}
		pos += n
		millis, n := binary.Varint(data[pos:])
		if n <= 0 {
			return fail("duration")
		}
		return Duration{Months: int32(months), Millis: millis}, pos + n, nil
	case KindPoint:
		if pos+16 > len(data) {
			return fail("point")
		}
		x := math.Float64frombits(binary.BigEndian.Uint64(data[pos:]))
		y := math.Float64frombits(binary.BigEndian.Uint64(data[pos+8:]))
		return Point{X: x, Y: y}, pos + 16, nil
	case KindRectangle:
		if pos+32 > len(data) {
			return fail("rectangle")
		}
		var f [4]float64
		for i := range f {
			f[i] = math.Float64frombits(binary.BigEndian.Uint64(data[pos+8*i:]))
		}
		return Rectangle{MinX: f[0], MinY: f[1], MaxX: f[2], MaxY: f[3]}, pos + 32, nil
	case KindUUID:
		if pos+16 > len(data) {
			return fail("uuid")
		}
		var u UUID
		copy(u[:], data[pos:pos+16])
		return u, pos + 16, nil
	case KindBinary:
		l, n := binary.Uvarint(data[pos:])
		if n <= 0 || l > uint64(len(data)-pos-n) {
			return fail("binary")
		}
		pos += n
		b := make(Binary, l)
		copy(b, data[pos:pos+int(l)])
		return b, pos + int(l), nil
	case KindArray, KindMultiset:
		return decodeElems(data, nil)
	case KindObject:
		fields, pos, err := decodeFields(data, pos, nil)
		if err != nil {
			return nil, 0, err
		}
		return &Object{fields: fields}, pos, nil
	}
	return nil, 0, fmt.Errorf("%w (unknown kind tag %d)", ErrCorrupt, data[0])
}

// decodeElems decodes the array or multiset at the start of data, its
// elements under declared type elem (nil: none; see DecodeAs).
func decodeElems(data []byte, elem *Type) (Value, int, error) {
	cnt, pos := binary.Uvarint(data[1:])
	if pos <= 0 {
		return nil, 0, fmt.Errorf("%w (collection)", ErrCorrupt)
	}
	pos++
	// Cap the preallocation: cnt is untrusted and every element costs at
	// least one input byte, so a huge count on a short input must not
	// allocate ahead of decoding.
	elems := make([]Value, 0, min(cnt, uint64(len(data)-pos)))
	for i := uint64(0); i < cnt; i++ {
		e, n, err := DecodeAs(data[pos:], elem)
		if err != nil {
			return nil, 0, err
		}
		elems = append(elems, e)
		pos += n
	}
	if Kind(data[0]) == KindArray {
		return Array(elems), pos, nil
	}
	return Multiset(elems), pos, nil
}

// DecodeValue decodes a value that occupies the whole input.
func DecodeValue(data []byte) (Value, error) {
	v, n, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w (%d trailing bytes)", ErrCorrupt, len(data)-n)
	}
	return v, nil
}

// decodeFields decodes the count-prefixed name/value pairs at data[pos:] —
// an object's payload, and the open part of a positional record — and
// appends them to fields. It returns the position behind the last pair.
func decodeFields(data []byte, pos int, fields []Field) ([]Field, int, error) {
	cnt, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("%w (object)", ErrCorrupt)
	}
	pos += n
	// Same untrusted-count cap as collections above.
	fields = slices.Grow(fields, int(min(cnt, uint64(len(data)-pos))))
	for i := uint64(0); i < cnt; i++ {
		name, n := chunk(data[pos:])
		if n < 0 {
			return nil, 0, fmt.Errorf("%w (object field name)", ErrCorrupt)
		}
		pos += n
		v, n, err := Decode(data[pos:])
		if err != nil {
			return nil, 0, err
		}
		pos += n
		fields = append(fields, Field{Name: string(name), Value: v})
	}
	return fields, pos, nil
}

// ErrCorrupt is what every decoder reports for bytes that are no ADM
// encoding — truncated, a length or an offset past the input, an unknown
// kind tag: the in-place walkers (a Locator and the skipping it uses) and the
// positional record decoder return it as is, one preallocated error, so that
// a walk allocates nothing, not even to fail; Decode wraps it.
var ErrCorrupt = errors.New("adm: decode: truncated or invalid input")

// chunk returns the length-prefixed byte string at the start of data and
// the bytes it occupies with its prefix, -1 if data does not hold it.
func chunk(data []byte) ([]byte, int) {
	// The length check stays in uint64: converting an adversarial l to int
	// first can overflow negative and slip past the bound.
	l, n := binary.Uvarint(data)
	if n <= 0 || l > uint64(len(data)-n) {
		return nil, -1
	}
	return data[n : n+int(l)], n + int(l)
}

// skipValue returns the number of bytes the encoded value at the start of
// data occupies, without materializing it. It accepts exactly the
// encodings Decode accepts.
func skipValue(data []byte) (int, error) {
	if len(data) == 0 {
		return 0, ErrCorrupt
	}
	pos, n := 1, 0
	switch k := Kind(data[0]); k {
	case KindMissing, KindNull:
	case KindBoolean:
		pos++
	case KindDouble:
		pos += 8
	case KindPoint, KindUUID:
		pos += 16
	case KindRectangle:
		pos += 32
	case KindDuration:
		if _, n = binary.Varint(data[pos:]); n <= 0 {
			return 0, ErrCorrupt
		}
		pos += n
		fallthrough
	case KindInt64, KindDate, KindTime, KindDatetime:
		if _, n = binary.Varint(data[pos:]); n <= 0 {
			return 0, ErrCorrupt
		}
		pos += n
	case KindString, KindBinary:
		if _, n = chunk(data[pos:]); n < 0 {
			return 0, ErrCorrupt
		}
		pos += n
	case KindArray, KindMultiset, KindObject:
		cnt, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, ErrCorrupt
		}
		pos += n
		for i := uint64(0); i < cnt; i++ {
			if k == KindObject {
				if _, n = chunk(data[pos:]); n < 0 {
					return 0, ErrCorrupt
				}
				pos += n
			}
			n, err := skipValue(data[pos:])
			if err != nil {
				return 0, err
			}
			pos += n
		}
	default:
		return 0, ErrCorrupt
	}
	if pos > len(data) {
		return 0, ErrCorrupt
	}
	return pos, nil
}

// EncodeKey appends an order-preserving encoding of a scalar value:
// bytes.Compare over encodings agrees with Compare over values. Used as
// the key format for B+trees and other ordered indexes. Only scalar kinds
// are supported; numerics (int64/double) share one exact encoding so that
// their numeric cross-kind order is preserved.
func EncodeKey(buf []byte, v Value) ([]byte, error) {
	switch x := v.(type) {
	case missingValue:
		buf = append(buf, 0x00)
	case nullValue:
		buf = append(buf, 0x01)
	case Boolean:
		if x {
			buf = append(buf, 0x02, 1)
		} else {
			buf = append(buf, 0x02, 0)
		}
	case Int64:
		buf = appendNumberKey(buf, x < 0, uint64(max(x, -x)), 0) // -MinInt64 wraps to 2^63 as a uint64
	case Double:
		buf = AppendNumberKey(buf, float64(x))
	case String:
		buf = AppendStringKey(buf, x)
	case Date:
		buf = append(buf, 0x05)
		buf = appendOrderedInt(buf, int64(x))
	case Time:
		buf = append(buf, 0x06)
		buf = appendOrderedInt(buf, int64(x))
	case Datetime:
		buf = append(buf, 0x07)
		buf = appendOrderedInt(buf, int64(x))
	case Duration:
		buf = append(buf, 0x08)
		buf = appendOrderedInt(buf, int64(x.Months)*30*millisPerDay+x.Millis)
		buf = appendOrderedInt(buf, int64(x.Months))
		buf = appendOrderedInt(buf, x.Millis)
	case Point:
		buf = append(buf, 0x09)
		buf = appendOrderedFloat(buf, x.X)
		buf = appendOrderedFloat(buf, x.Y)
	case UUID:
		buf = append(buf, 0x0B)
		buf = append(buf, x[:]...)
	case Binary:
		buf = AppendBinaryKey(buf, x)
	default:
		return nil, fmt.Errorf("adm: %s values cannot be index keys", v.Kind())
	}
	return buf, nil
}

// AppendNumberKey, AppendStringKey and AppendBinaryKey are EncodeKey for a
// number, a string and a binary the caller holds unboxed.
//
// A number's key is exact: the tag 0x03; two bytes of sign and biased binary
// exponent, 0x8000 | (e+1075) for a positive number whose leading 1 is worth
// 2^e and 0x8000 − (e+1075) for a negative one (0x8000 is zero, 0x8FFE and
// 0x7002 are ±Inf, 0x8FFF is NaN); then the bits after the leading 1, seven
// to a byte whose low bit says another byte follows, without trailing zeros
// but at least one byte, inverted for a negative number. Int64(n) and
// Double(n) have one key; 1 takes 4 bytes, any int64 at most 12, a double at
// most 11.
func AppendNumberKey(buf []byte, f float64) []byte {
	b := math.Float64bits(f)
	exp, m := int(b>>52&0x7FF), b&(1<<52-1)
	switch {
	case f != f:
		return appendNumberKey(buf, false, 1, 0xFFF-1075)
	case exp == 0x7FF:
		return appendNumberKey(buf, f < 0, 1, 0xFFE-1075)
	case exp == 0: // zero or subnormal
		return appendNumberKey(buf, f < 0, m, -1074)
	}
	return appendNumberKey(buf, f < 0, m|1<<52, exp-1075)
}

func AppendStringKey[S ~string | ~[]byte](buf []byte, s S) []byte { return appendEscaped(buf, 0x04, s) }

func AppendBinaryKey(buf, b []byte) []byte { return appendEscaped(buf, 0x0C, b) }

// appendNumberKey appends the key of the number ±m·2^exp.
func appendNumberKey(buf []byte, neg bool, m uint64, exp int) []byte {
	if m == 0 {
		buf = append(buf, 0x03, 0x80, 0x00)
		return buf
	}
	lz := bits.LeadingZeros64(m)
	e, inv := exp+63-lz+1075, byte(0)
	if neg {
		e, inv = -e, 0xFF
	}
	buf = append(buf, 0x03, byte((0x8000+e)>>8), byte(0x8000+e))
	for frac := m << (lz + 1); ; { // the bits after the leading 1
		b := byte(frac>>56) &^ 1
		if frac <<= 7; frac != 0 {
			b |= 1
		}
		if buf = append(buf, b^inv); frac == 0 {
			return buf
		}
	}
}

// keyWidth is the length of a key component by its tag: 0 where it runs to
// a 0x00 0x00 terminator (strings, binaries) or to a number's last byte,
// -1 where no kind has the tag.
var keyWidth = [...]int{0x00: 1, 0x01: 1, 0x02: 2, 0x03: 0, 0x04: 0, 0x05: 9, 0x06: 9, 0x07: 9, 0x08: 25, 0x09: 17, 0x0A: -1, 0x0B: 17, 0x0C: 0}

// KeyLen returns the length of the first component of a key EncodeKey
// produced, or of several appended, so that a composite can be split without
// decoding it. Damaged input is ErrCorrupt.
func KeyLen(key []byte) (int, error) {
	if len(key) == 0 || int(key[0]) >= len(keyWidth) {
		return 0, ErrCorrupt
	}
	if n := keyWidth[key[0]]; n != 0 {
		if n < 0 || n > len(key) {
			return 0, ErrCorrupt
		}
		return n, nil
	}
	if key[0] == 0x03 { // zero, or a number up to its byte with the continuation bit clear (set, if negative)
		if len(key) >= 3 && key[1] == 0x80 && key[2] == 0x00 {
			return 3, nil
		}
		for n := 3; n < len(key); n++ {
			if key[n]&1 != key[1]>>7 {
				return n + 1, nil
			}
		}
		return 0, ErrCorrupt
	}
	for n := 1; n+1 < len(key); n++ {
		if key[n] != 0x00 {
			continue
		}
		if key[n+1] == 0x00 {
			return n + 2, nil
		}
		if key[n+1] != 0xFF {
			break
		}
		n++ // an escaped 0x00
	}
	return 0, ErrCorrupt
}

// appendOrderedInt encodes an int64 so unsigned byte order matches signed
// numeric order (flip the sign bit, big endian).
func appendOrderedInt(buf []byte, i int64) []byte {
	u := uint64(i) ^ (1 << 63)
	return binary.BigEndian.AppendUint64(buf, u)
}

// appendOrderedFloat encodes a float64 order-preservingly: positive values
// get their sign bit set; negative values are bitwise inverted.
func appendOrderedFloat(buf []byte, f float64) []byte {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		u = ^u
	} else {
		u |= 1 << 63
	}
	return binary.BigEndian.AppendUint64(buf, u)
}

// appendEscaped encodes a string or binary key component: its tag, the bytes
// with 0x00 escaped as 0x00 0xFF, and a 0x00 0x00 terminator, so that
// concatenated composite keys preserve lexicographic order.
func appendEscaped[S ~string | ~[]byte](buf []byte, tag byte, data S) []byte {
	buf = append(buf, tag)
	for i := 0; i < len(data); i++ {
		if data[i] == 0x00 {
			buf = append(buf, 0x00, 0xFF)
		} else {
			buf = append(buf, data[i])
		}
	}
	buf = append(buf, 0x00, 0x00)
	return buf
}
