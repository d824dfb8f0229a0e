package adm

import (
	"fmt"
	"strings"
)

// TypeTag identifies the structural category of a Type.
type TypeTag uint8

// Type tags.
const (
	TagAny TypeTag = iota
	TagPrimitive
	TagObject
	TagArray
	TagMultiset
)

// Type describes an ADM type. Types may be anonymous (nested inside other
// types) or named (registered in the metadata catalog). The zero value is
// not valid; use the constructors.
//
// ADM's optional schema philosophy: an object type lists declared fields;
// instances of an *open* type may carry extra, undeclared fields, while a
// *closed* type forbids them. Declared fields may be optional ("?"),
// admitting null/missing.
type Type struct {
	Tag  TypeTag
	Name string // non-empty for named types

	// Primitive
	Prim Kind

	// Object
	Fields []FieldType
	Closed bool

	// Array / Multiset
	Elem *Type
}

// FieldType is one declared field of an object type.
type FieldType struct {
	Name     string
	Type     *Type
	Optional bool
}

// AnyType admits every value.
var AnyType = &Type{Tag: TagAny, Name: "any"}

// Primitive returns the (shared) primitive type for a kind.
func Primitive(k Kind) *Type {
	return &Type{Tag: TagPrimitive, Name: k.String(), Prim: k}
}

// NewObjectType builds an object type. closed forbids undeclared fields.
func NewObjectType(name string, closed bool, fields ...FieldType) *Type {
	return &Type{Tag: TagObject, Name: name, Closed: closed, Fields: fields}
}

// NewArrayType builds an ordered-list type.
func NewArrayType(elem *Type) *Type { return &Type{Tag: TagArray, Elem: elem} }

// NewMultisetType builds an unordered-list type.
func NewMultisetType(elem *Type) *Type { return &Type{Tag: TagMultiset, Elem: elem} }

// Field returns the declared field type, if any.
func (t *Type) Field(name string) (FieldType, bool) {
	if i := t.fieldIndex(name); i >= 0 {
		return t.Fields[i], true
	}
	return FieldType{}, false
}

// fieldIndex returns the position of the first declared field called name,
// -1 when the type — nil: no type — declares none.
func (t *Type) fieldIndex(name string) int {
	for i := 0; t != nil && i < len(t.Fields); i++ {
		if t.Fields[i].Name == name {
			return i
		}
	}
	return -1
}

// String renders the type in DDL-like syntax.
func (t *Type) String() string {
	if t == nil {
		return "any"
	}
	switch t.Tag {
	case TagAny:
		return "any"
	case TagPrimitive:
		return t.Prim.String()
	case TagArray:
		return "[" + t.Elem.String() + "]"
	case TagMultiset:
		return "{{" + t.Elem.String() + "}}"
	case TagObject:
		if t.Name != "" {
			return t.Name
		}
		var sb strings.Builder
		sb.WriteByte('{')
		for i, f := range t.Fields {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(f.Name)
			sb.WriteString(": ")
			sb.WriteString(f.Type.String())
			if f.Optional {
				sb.WriteByte('?')
			}
		}
		sb.WriteByte('}')
		return sb.String()
	}
	return "?"
}

// TypeError describes a value failing type validation.
type TypeError struct {
	Path string
	Msg  string
}

func (e *TypeError) Error() string {
	if e.Path == "" {
		return "adm: type error: " + e.Msg
	}
	return "adm: type error at " + e.Path + ": " + e.Msg
}

// Validate checks that v conforms to t, implementing ADM's open/closed and
// optional-field semantics.
func (t *Type) Validate(v Value) error { return t.validate(v, "$") }

func (t *Type) validate(v Value, path string) error {
	if t == nil || t.Tag == TagAny {
		return nil
	}
	switch t.Tag {
	case TagPrimitive:
		k := v.Kind()
		if k == t.Prim {
			return nil
		}
		// int64 is acceptable where double is declared (numeric promotion).
		if t.Prim == KindDouble && k == KindInt64 {
			return nil
		}
		return &TypeError{Path: path, Msg: fmt.Sprintf("expected %s, got %s", t.Prim, k)}
	case TagArray:
		a, ok := v.(Array)
		if !ok {
			return &TypeError{Path: path, Msg: fmt.Sprintf("expected array, got %s", v.Kind())}
		}
		for i, e := range a {
			if err := t.Elem.validate(e, fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		return nil
	case TagMultiset:
		m, ok := v.(Multiset)
		if !ok {
			return &TypeError{Path: path, Msg: fmt.Sprintf("expected multiset, got %s", v.Kind())}
		}
		for i, e := range m {
			if err := t.Elem.validate(e, fmt.Sprintf("%s{{%d}}", path, i)); err != nil {
				return err
			}
		}
		return nil
	case TagObject:
		o, ok := v.(*Object)
		if !ok {
			return &TypeError{Path: path, Msg: fmt.Sprintf("expected object, got %s", v.Kind())}
		}
		for _, f := range t.Fields {
			fv := o.Get(f.Name)
			fk := fv.Kind()
			if fk == KindMissing || fk == KindNull {
				if f.Optional {
					continue
				}
				return &TypeError{Path: path, Msg: fmt.Sprintf("required field %q is %s", f.Name, fk)}
			}
			if err := f.Type.validate(fv, path+"."+f.Name); err != nil {
				return err
			}
		}
		if t.Closed {
			for _, f := range o.Fields() {
				if _, declared := t.Field(f.Name); !declared {
					return &TypeError{Path: path, Msg: fmt.Sprintf("closed type %s forbids undeclared field %q", t.Name, f.Name)}
				}
			}
		}
		return nil
	}
	return nil
}
