package adm

import (
	"bytes"
	"math"
	"sort"
)

// Compare defines a total order over all ADM values. Values of different
// kinds order by kind rank, except that int64 and double compare
// numerically with each other, exactly: −0 equals 0, and NaN equals NaN and
// sorts above +Inf. Within a kind the natural order applies;
// objects compare by their name-sorted field lists, collections
// element-wise. Missing sorts before null, which sorts before everything
// else (the order AsterixDB uses for ORDER BY).
func Compare(a, b Value) int {
	ka, kb := a.Kind(), b.Kind()
	if ka.IsNumeric() && kb.IsNumeric() {
		x, xi := a.(Int64)
		y, yi := b.(Int64)
		switch {
		case xi && yi:
			return cmpInt(int64(x), int64(y))
		case xi:
			return cmpIntDouble(int64(x), float64(b.(Double)))
		case yi:
			return -cmpIntDouble(int64(y), float64(a.(Double)))
		}
		return cmpDouble(float64(a.(Double)), float64(b.(Double)))
	}
	if ka != kb {
		if ka < kb {
			return -1
		}
		return 1
	}
	switch ka {
	case KindMissing, KindNull:
		return 0
	case KindBoolean:
		x, y := a.(Boolean), b.(Boolean)
		switch {
		case !bool(x) && bool(y):
			return -1
		case bool(x) && !bool(y):
			return 1
		}
		return 0
	case KindString:
		x, y := a.(String), b.(String)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case KindDate:
		return cmpInt(int64(a.(Date)), int64(b.(Date)))
	case KindTime:
		return cmpInt(int64(a.(Time)), int64(b.(Time)))
	case KindDatetime:
		return cmpInt(int64(a.(Datetime)), int64(b.(Datetime)))
	case KindDuration:
		// Order by an approximate total duration (month = 30 days), then
		// by components for determinism.
		x, y := a.(Duration), b.(Duration)
		ax := int64(x.Months)*30*millisPerDay + x.Millis
		ay := int64(y.Months)*30*millisPerDay + y.Millis
		if c := cmpInt(ax, ay); c != 0 {
			return c
		}
		if c := cmpInt(int64(x.Months), int64(y.Months)); c != 0 {
			return c
		}
		return cmpInt(x.Millis, y.Millis)
	case KindPoint:
		x, y := a.(Point), b.(Point)
		if c := cmpFloat(x.X, y.X); c != 0 {
			return c
		}
		return cmpFloat(x.Y, y.Y)
	case KindRectangle:
		x, y := a.(Rectangle), b.(Rectangle)
		if c := cmpFloat(x.MinX, y.MinX); c != 0 {
			return c
		}
		if c := cmpFloat(x.MinY, y.MinY); c != 0 {
			return c
		}
		if c := cmpFloat(x.MaxX, y.MaxX); c != 0 {
			return c
		}
		return cmpFloat(x.MaxY, y.MaxY)
	case KindUUID:
		x, y := a.(UUID), b.(UUID)
		return bytes.Compare(x[:], y[:])
	case KindBinary:
		return bytes.Compare(a.(Binary), b.(Binary))
	case KindArray:
		return compareSeq(a.(Array), b.(Array))
	case KindMultiset:
		// Multisets are unordered bags: compare their sorted element lists.
		return compareMultisets(a.(Multiset), b.(Multiset))
	case KindObject:
		return compareObjects(a.(*Object), b.(*Object))
	}
	return 0
}

// compareMultisets compares two bags by their sorted element orders.
// Bags up to smallObjectFields elements sort through stack-resident
// index arrays; only wider ones fall back to the allocating sorted-copy
// path.
func compareMultisets(x, y Multiset) int {
	nx, ny := len(x), len(y)
	if nx > smallObjectFields || ny > smallObjectFields {
		return compareSeq(sortedElems(x), sortedElems(y))
	}
	var bx, by [smallObjectFields]int32
	ix, iy := bx[:nx], by[:ny]
	sortedValueIdx(x, ix)
	sortedValueIdx(y, iy)
	n := nx
	if ny < n {
		n = ny
	}
	for i := 0; i < n; i++ {
		if c := Compare(x[ix[i]], y[iy[i]]); c != 0 {
			return c
		}
	}
	return cmpInt(int64(nx), int64(ny))
}

// compareObjects compares by name-sorted field lists. Objects up to
// smallObjectFields fields sort through stack-resident index arrays.
func compareObjects(x, y *Object) int {
	nx, ny := len(x.fields), len(y.fields)
	if nx > smallObjectFields || ny > smallObjectFields {
		return compareFieldSeq(x.sortedFields(), y.sortedFields())
	}
	var bx, by [smallObjectFields]int32
	ix, iy := bx[:nx], by[:ny]
	x.sortedIdx(ix)
	y.sortedIdx(iy)
	n := nx
	if ny < n {
		n = ny
	}
	for i := 0; i < n; i++ {
		fx, fy := &x.fields[ix[i]], &y.fields[iy[i]]
		if fx.Name != fy.Name {
			if fx.Name < fy.Name {
				return -1
			}
			return 1
		}
		if c := Compare(fx.Value, fy.Value); c != 0 {
			return c
		}
	}
	return cmpInt(int64(nx), int64(ny))
}

func compareFieldSeq(x, y []Field) int {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	for i := 0; i < n; i++ {
		if x[i].Name != y[i].Name {
			if x[i].Name < y[i].Name {
				return -1
			}
			return 1
		}
		if c := Compare(x[i].Value, y[i].Value); c != 0 {
			return c
		}
	}
	return cmpInt(int64(len(x)), int64(len(y)))
}

// sortedValueIdx writes the Compare-sorted order of vals into idx
// (insertion sort: quadratic, but only ever run on small inputs, and it
// keeps the whole sort allocation-free).
func sortedValueIdx(vals []Value, idx []int32) {
	for i := range vals {
		j := i
		for j > 0 && Compare(vals[idx[j-1]], vals[i]) > 0 {
			idx[j] = idx[j-1]
			j--
		}
		idx[j] = int32(i)
	}
}

func sortedElems(m Multiset) []Value {
	s := make([]Value, len(m))
	copy(s, m)
	sort.Slice(s, func(i, j int) bool { return Compare(s[i], s[j]) < 0 })
	return s
}

func compareSeq(a, b []Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmpInt(int64(len(a)), int64(len(b)))
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpDouble is cmpFloat with NaN equal to itself and above every number.
func cmpDouble(x, y float64) int {
	switch {
	case x == y || x < y || x > y:
		return cmpFloat(x, y)
	case x == x:
		return -1
	case y == y:
		return 1
	}
	return 0
}

// cmpIntDouble compares an integer with a double exactly: rounding keeps
// order, so only a double equal to the integer's image, an integer, is left.
func cmpIntDouble(i int64, d float64) int {
	switch c := cmpDouble(float64(i), d); {
	case c != 0:
		return c
	case d == 1<<63: // above every int64
		return -1
	}
	return cmpInt(i, int64(d))
}

// Equal reports deep equality under Compare's semantics. Note that like
// Compare it treats int64(2) and double(2.0) as equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// FNV-1a parameters (matching hash/fnv's 64-bit variant).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Hash64 computes a 64-bit hash of a value, consistent with Equal: equal
// values hash identically (numerics hash via their float64 image, −0 as 0
// and every NaN as one). The FNV-1a fold is inlined over a plain uint64
// state — the earlier hash/fnv version allocated the hash object and boxed
// every Write — and produces bit-identical results to it.
func Hash64(v Value) uint64 {
	return hashValue(fnvOffset64, v)
}

// hashValue folds v into the running FNV-1a state h.
func hashValue(h uint64, v Value) uint64 {
	k := v.Kind()
	if k == KindDouble || k == KindInt64 {
		h = fnvByte(h, byte(KindDouble)) // numeric types hash uniformly
	} else {
		h = fnvByte(h, byte(k))
	}
	switch x := v.(type) {
	case missingValue, nullValue:
	case Boolean:
		if x {
			h = fnvByte(h, 1)
		} else {
			h = fnvByte(h, 0)
		}
	case Int64:
		h = fnvU64(h, math.Float64bits(float64(x)))
	case Double:
		f := float64(x) + 0 // −0 + 0 is 0
		if f != f {
			f = math.Float64frombits(0x7FF8000000000001) // one NaN
		}
		h = fnvU64(h, math.Float64bits(f))
	case String:
		h = fnvString(h, string(x))
	case Date:
		h = fnvU64(h, uint64(int64(x)))
	case Time:
		h = fnvU64(h, uint64(int64(x)))
	case Datetime:
		h = fnvU64(h, uint64(int64(x)))
	case Duration:
		h = fnvU64(h, uint64(int64(x.Months)))
		h = fnvU64(h, uint64(x.Millis))
	case Point:
		h = fnvU64(h, math.Float64bits(x.X))
		h = fnvU64(h, math.Float64bits(x.Y))
	case Rectangle:
		h = fnvU64(h, math.Float64bits(x.MinX))
		h = fnvU64(h, math.Float64bits(x.MinY))
		h = fnvU64(h, math.Float64bits(x.MaxX))
		h = fnvU64(h, math.Float64bits(x.MaxY))
	case UUID:
		h = fnvBytes(h, x[:])
	case Binary:
		h = fnvBytes(h, x)
	case Array:
		for _, e := range x {
			h = hashValue(h, e)
		}
	case Multiset:
		// Order-insensitive: XOR of element hashes folded in.
		var acc uint64
		for _, e := range x {
			acc ^= Hash64(e)
		}
		h = fnvU64(h, acc)
	case *Object:
		if n := len(x.fields); n <= smallObjectFields {
			var buf [smallObjectFields]int32
			idx := buf[:n]
			x.sortedIdx(idx)
			for _, i := range idx {
				f := &x.fields[i]
				h = fnvString(h, f.Name)
				h = hashValue(h, f.Value)
			}
		} else {
			for _, f := range x.sortedFields() {
				h = fnvString(h, f.Name)
				h = hashValue(h, f.Value)
			}
		}
	}
	return h
}

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvU64(h, u uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ uint64(byte(u>>i))) * fnvPrime64
	}
	return h
}

func fnvBytes(h uint64, p []byte) uint64 {
	for _, b := range p {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

// fnvString folds a string without converting it to []byte.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}
