package algebricks

import (
	"slices"

	"asterix/internal/adm"
	"asterix/internal/hyracks"
)

// schema is the physical layout of the tuples one operator of a job emits:
// the position of everything the plan above may name. It is the logical
// Op.Schema() except under a leaf that lists its fields, which emits one
// column per field instead of the record, and where an assign only gives a
// column that is already there another name.
type schema struct {
	cols  []column
	width int // tuple length
}

// column binds a variable — or, with field set, its first-step field
// name.f — to a tuple position. Later columns shadow earlier ones.
type column struct {
	name, f string
	field   bool
	idx     int
}

// schemaOf lays the named variables out in order, one position each.
func schemaOf(names ...string) schema {
	s := schema{cols: make([]column, len(names)), width: len(names)}
	for i, n := range names {
		s.cols[i] = column{name: n, idx: i}
	}
	return s
}

// leafSchema is what a leaf binding v emits: the record, or one column per
// listed field.
func leafSchema(v string, fields []string) schema {
	if fields == nil {
		return schemaOf(v)
	}
	s := schema{cols: make([]column, len(fields)), width: len(fields)}
	for i, f := range fields {
		s.cols[i] = column{name: v, f: f, field: true, idx: i}
	}
	return s
}

// find resolves the variable name or, when field is set, name.f: to a
// column of its own, or to the variable's, of which the caller takes the
// field. The last binding wins.
func (s schema) find(name, f string, field bool) (column, bool) {
	for i := len(s.cols) - 1; i >= 0; i-- {
		if c := s.cols[i]; c.name == name && (!c.field || field && c.f == f) {
			return c, true
		}
	}
	return column{}, false
}

// indexOf returns the position of the variable name, -1 if it has none.
func (s schema) indexOf(name string) int {
	if c, ok := s.find(name, "", false); ok {
		return c.idx
	}
	return -1
}

// bind returns s plus the variable name at position idx: a new one at the
// end of the tuple (idx == s.width) or a second name for an existing one.
func (s schema) bind(name string, idx int) schema {
	cols := append(s.cols[:len(s.cols):len(s.cols)], column{name: name, idx: idx})
	return schema{cols: cols, width: max(s.width, idx+1)}
}

// concat is the layout of a tuple of s followed by a tuple of r.
func (s schema) concat(r schema) schema {
	cols := append(s.cols[:len(s.cols):len(s.cols)], r.cols...)
	for i := len(s.cols); i < len(cols); i++ {
		cols[i].idx += s.width
	}
	return schema{cols: cols, width: s.width + r.width}
}

// project keeps the columns of the named variables (all the field columns
// of one a leaf emits as fields): from[i] is the position in s of position
// i of the result. It is nil only when the result is s's own layout, every
// position where it was; a result that keeps no position of a wider s is
// empty, not nil.
func (s schema) project(names []string) (out schema, from []int) {
	from = make([]int, 0, s.width)
	to := make([]int, s.width) // position in out, plus one
	for _, n := range names {
		for _, c := range s.cols {
			if c.name != n {
				continue
			}
			if to[c.idx] == 0 {
				from = append(from, c.idx)
				to[c.idx] = len(from)
			}
			c.idx = to[c.idx] - 1
			out.cols = append(out.cols, c)
		}
	}
	out.width = len(from)
	if out.width == s.width && slices.IsSorted(from) { // distinct positions: all of them, in place
		from = nil
	}
	return out, from
}

// envOver returns what the interpreter needs to see a tuple of s: an Env of
// the variables that have a column of their own (a field column has no name
// an Env could give it; what reads the variable whole keeps its leaf from
// emitting any).
func (s schema) envOver() func(parent *Env, t hyracks.Tuple) *Env {
	var names []string
	var idxs []int
	positional := true
	for _, c := range s.cols {
		if !c.field {
			positional = positional && c.idx == len(names)
			names, idxs = append(names, c.name), append(idxs, c.idx)
		}
	}
	if positional && len(names) == s.width {
		return func(parent *Env, t hyracks.Tuple) *Env { return NewEnv(parent, names, t) }
	}
	return func(parent *Env, t hyracks.Tuple) *Env {
		vals := make([]adm.Value, len(idxs))
		for i, ix := range idxs {
			vals[i] = t[ix]
		}
		return NewEnv(parent, names, vals)
	}
}
