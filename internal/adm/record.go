package adm

import (
	"encoding/binary"
	"fmt"
)

// The positional record encoding: how a dataset stores a record written
// under an object type. The type keeps the declared fields' names; the
// record keeps, behind a tag byte that is no Kind, one offset per declared
// field in declared order (from the tag byte; 0 = the record has no such
// field) and one more to its open part (0 = no undeclared field), then the
// declared values it has, each encoded under its declared type, then — the
// open part — the undeclared fields as an object's payload, count first.
// Offsets are 1, 2 or 4 bytes wide, big endian, the narrowest the record's
// length fits; the tag says which.
//
// The form recurses on the declared type: a declared field, array element or
// multiset element whose declared type is an object type and whose value is
// an object is itself a positional record, its offsets counted from its own
// tag byte. Everything else — undeclared fields, values of type any, and all
// that lies below them — is encoded as Encode does.
//
// A positional record means nothing without the type it was written under,
// so Decode and skipValue reject the tags: DecodeRecord, DecodeAs and a
// Locator, which are given the type, read both forms.
const (
	tagPositional1 = byte(KindObject) + 1 + iota
	tagPositional2
	tagPositional4
)

// offsetWidth is the width of a positional record's offsets by its tag, 0
// for any other tag.
func offsetWidth(tag byte) int {
	switch tag {
	case tagPositional1:
		return 1
	case tagPositional2:
		return 2
	case tagPositional4:
		return 4
	}
	return 0
}

// offsetAt reads offset i of a positional record whose offsets are w wide;
// the caller has checked that the record holds its offset table.
func offsetAt(data []byte, w, i int) int {
	p := data[1+i*w:]
	switch w {
	case 1:
		return int(p[0])
	case 2:
		return int(binary.BigEndian.Uint16(p))
	}
	return int(binary.BigEndian.Uint32(p))
}

// sized returns n zeroed entries: of buf, which is zeroed, if it has them.
func sized(buf []int32, n int) []int32 {
	if n > len(buf) {
		return make([]int32, n)
	}
	return buf[:n]
}

// EncodeRecord appends the encoding of a record of a dataset of type t:
// positional under an object type, Encode's otherwise.
func EncodeRecord(buf []byte, o *Object, t *Type) []byte { return encodeAs(buf, o, t) }

// encodeAs appends v as a value of declared type t (nil: none): an object
// under an object type positionally, a collection under a collection type
// element by element under its element type, anything else as Encode does.
func encodeAs(buf []byte, v Value, t *Type) []byte {
	var elems []Value
	switch x := v.(type) {
	case *Object:
		if t != nil && t.Tag == TagObject {
			return encodePositional(buf, x, t)
		}
	case Array:
		if t != nil && t.Tag == TagArray {
			elems = x
		}
	case Multiset:
		if t != nil && t.Tag == TagMultiset {
			elems = x
		}
	}
	if elems == nil {
		return Encode(buf, v)
	}
	buf = binary.AppendUvarint(append(buf, byte(v.Kind())), uint64(len(elems)))
	for _, e := range elems {
		buf = encodeAs(buf, e, t.Elem)
	}
	return buf
}

// encodePositional appends o in the positional form of object type t. The
// first field of each declared name takes the declared position; a repeated
// name is kept with the undeclared fields.
func encodePositional(buf []byte, o *Object, t *Type) []byte {
	// slot[i] is the object's field stored at declared position i, 1-based;
	// declared[k] says that the object's field k is stored at one.
	var slotBuf, declaredBuf [24]int32
	slot, declared := sized(slotBuf[:], len(t.Fields)), sized(declaredBuf[:], len(o.fields))
	open := 0
	for k := range o.fields {
		if i := t.fieldIndex(o.fields[k].Name); i >= 0 && slot[i] == 0 {
			slot[i], declared[k] = int32(k+1), 1
		} else {
			open++
		}
	}
	// Written with one-byte offsets first; a record too long for them is
	// moved back to make room for wider ones once its length is known.
	start, entries := len(buf), len(slot)+1
	head := 1 + entries
	buf = append(buf, make([]byte, head)...)
	for i, k := range slot {
		if k != 0 {
			slot[i] = int32(len(buf) - start)
			buf = encodeAs(buf, o.fields[k-1].Value, t.Fields[i].Type)
		}
	}
	openAt := 0
	if open > 0 {
		openAt = len(buf) - start
		buf = binary.AppendUvarint(buf, uint64(open))
		for k, f := range o.fields {
			if declared[k] == 0 {
				buf = binary.AppendUvarint(buf, uint64(len(f.Name)))
				buf = append(buf, f.Name...)
				buf = Encode(buf, f.Value)
			}
		}
	}
	w, tag := 1, tagPositional1
	if n := len(buf) - start; n+entries > 1<<16 {
		w, tag = 4, tagPositional4
	} else if n > 1<<8 {
		w, tag = 2, tagPositional2
	}
	shift := (w - 1) * entries
	if shift > 0 {
		buf = append(buf, make([]byte, shift)...)
		copy(buf[start+head+shift:], buf[start+head:])
	}
	buf[start] = tag
	put := func(i, off int) {
		if off != 0 {
			off += shift
		}
		switch p := buf[start+1+i*w:]; w {
		case 1:
			p[0] = byte(off)
		case 2:
			binary.BigEndian.PutUint16(p, uint16(off))
		default:
			binary.BigEndian.PutUint32(p, uint32(off))
		}
	}
	for i, off := range slot {
		put(i, int(off))
	}
	put(len(slot), openAt)
	return buf
}

// DecodeRecord decodes a stored record of a dataset of type t, which
// occupies the whole input, in either form. A positional record's declared
// fields come first, in declared order and named by the type, then its
// undeclared fields in the order they were written. Damaged input is
// ErrCorrupt.
func DecodeRecord(data []byte, t *Type) (Value, error) {
	v, n, err := DecodeAs(data, t)
	if err == nil && n != len(data) {
		err = fmt.Errorf("adm: decode record: %d bytes behind its end: %w", len(data)-n, ErrCorrupt)
	}
	return v, err
}

// DecodeAs decodes the value at the start of data, written under declared
// type t (nil: none) in either form, and returns it with the number of bytes
// it used — so that what follows it, the next element of a collection, say,
// is found without a second pass. Damaged input is ErrCorrupt.
func DecodeAs(data []byte, t *Type) (Value, int, error) {
	if len(data) == 0 {
		return nil, 0, ErrCorrupt
	}
	if w := offsetWidth(data[0]); w != 0 {
		return decodePositional(data, w, t)
	}
	if k := Kind(data[0]); t != nil && (k == KindArray && t.Tag == TagArray || k == KindMultiset && t.Tag == TagMultiset) {
		return decodeElems(data, t.Elem)
	}
	return Decode(data)
}

// decodePositional decodes the positional record of type t, its offsets w
// wide, at the start of data.
func decodePositional(data []byte, w int, t *Type) (Value, int, error) {
	if t == nil || t.Tag != TagObject || len(data) < 1+(len(t.Fields)+1)*w {
		return nil, 0, ErrCorrupt
	}
	n := len(t.Fields)
	room := n
	if open := offsetAt(data, w, n); open > 0 && open < len(data) {
		cnt, _ := binary.Uvarint(data[open:])
		room += int(min(cnt, uint64(len(data)-open)))
	}
	fields := make([]Field, 0, room)
	// The values tile the record behind its offsets: each starts where the
	// one before it ends, the open part last; the record ends with it.
	pos := 1 + (n+1)*w
	for i := 0; i <= n; i++ {
		off := offsetAt(data, w, i)
		if off == 0 {
			continue
		}
		if off != pos || pos >= len(data) {
			return nil, 0, ErrCorrupt
		}
		if i == n {
			var err error
			if fields, pos, err = decodeFields(data, pos, fields); err != nil {
				return nil, 0, err
			}
			break
		}
		v, used, err := DecodeAs(data[pos:], t.Fields[i].Type)
		if err != nil {
			return nil, 0, err
		}
		fields = append(fields, Field{Name: t.Fields[i].Name, Value: v})
		pos += used
	}
	return &Object{fields: fields}, pos, nil
}

// Locator finds fields of stored records in place. It is built once, from
// the type the records were written under (nil: none, every record is in
// the generic form) and the names wanted, and resolves each name to its
// declared position then — so that per record a declared field is an offset
// read, and names are only compared over the fields a record spells out:
// all of a generic-form record's, the open part of a positional one.
type Locator struct {
	names    []string
	declared []int // position in the type of names[i], -1: undeclared
	nFields  int   // declared fields of the type; -1 without an object type
}

// NewLocator returns the locator of names in records of type t.
func NewLocator(t *Type, names []string) *Locator {
	l := &Locator{names: names, declared: make([]int, len(names)), nFields: -1}
	if t != nil && t.Tag == TagObject {
		l.nFields = len(t.Fields)
	}
	for i, name := range names {
		l.declared[i] = t.fieldIndex(name)
	}
	return l
}

// Locate sets out[i] (out is as long as the names) to where the first stored
// field called names[i] is encoded, or to nil when the record has none —
// where Get on the whole decode answers that field's value, or Missing. The
// slices point into data and run to its end: Decode reads of one what the
// value takes. Nothing is materialized or allocated, and no more of the
// record is read than it takes to find the names. A value that is not an
// object has no fields. Damaged input is ErrCorrupt, never a panic.
func (l *Locator) Locate(data []byte, out [][]byte) error {
	clear(out)
	if len(data) == 0 {
		return ErrCorrupt
	}
	w := offsetWidth(data[0])
	if w == 0 {
		if Kind(data[0]) != KindObject {
			return nil
		}
		return l.walk(data, 1, out, len(l.names))
	}
	head := 1 + (l.nFields+1)*w
	if l.nFields < 0 || len(data) < head {
		return ErrCorrupt
	}
	pending := len(l.names)
	for i, d := range l.declared {
		if d < 0 {
			continue
		}
		if off := offsetAt(data, w, d); off >= head && off < len(data) {
			out[i] = data[off:]
			pending--
		} else if off != 0 {
			return ErrCorrupt
		}
	}
	// What is still wanted can only be in the open part, if there is one.
	off := offsetAt(data, w, l.nFields)
	if pending == 0 || off == 0 {
		return nil
	}
	if off < head || off >= len(data) {
		return ErrCorrupt
	}
	return l.walk(data, off, out, pending)
}

// walk reads the count-prefixed name/value pairs at data[pos:] until it has
// met the pending names: those out has nothing for yet.
func (l *Locator) walk(data []byte, pos int, out [][]byte, pending int) error {
	cnt, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return ErrCorrupt
	}
	pos += n
	for i := uint64(0); i < cnt && pending > 0; i++ {
		name, n := chunk(data[pos:])
		if n < 0 {
			return ErrCorrupt
		}
		pos += n
		for j, f := range l.names {
			if out[j] == nil && string(name) == f {
				out[j] = data[pos:]
				pending--
			}
		}
		if pending == 0 {
			return nil // the value met last is not measured
		}
		n, err := skipValue(data[pos:])
		if err != nil {
			return err
		}
		pos += n
	}
	return nil
}
