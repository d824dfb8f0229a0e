package adm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// keyValues is at least one value of every kind EncodeKey accepts, the
// strings and binaries whose escaping KeyLen has to see through, and the
// numbers whose keys are shortest, longest or at an edge of the order.
func keyValues() []Value {
	return []Value{
		Missing, Null, Boolean(false), Boolean(true),
		Int64(0), Int64(-7), Int64(1 << 60), Double(2.5), Double(math.Inf(-1)),
		Int64(1), Double(1), Int64(1<<53 + 1), Double(1 << 53), Int64(-1<<53 - 1), Int64(math.MaxInt64), Int64(math.MinInt64),
		Double(math.Copysign(0, -1)), Double(math.NaN()), Double(math.Inf(1)), Double(5e-324), Double(-5e-324),
		Double(math.MaxFloat64), Double(-1.5), Double(0.1), Double(-0.1),
		String(""), String("a"), String("ab"), String("a\x00"), String("\x00\x00"), String("\x00\xff"), String("\xff\x00\xffz"),
		Date(18000), Time(1), Datetime(-1554076800000),
		Duration{Months: 14, Millis: 86400000},
		Point{X: 1.5, Y: -2.5},
		UUID{0, 0xff, 0, 0, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0},
		Binary{}, Binary{0}, Binary{0, 0}, Binary{0xff}, Binary{0, 0xff, 0, 0xff}, Binary{1, 2, 3, 0},
	}
}

func mustKey(t testing.TB, vs ...Value) []byte {
	t.Helper()
	var k []byte
	for _, v := range vs {
		var err error
		if k, err = EncodeKey(k, v); err != nil {
			t.Fatal(err)
		}
	}
	return k
}

// randomNumber draws the numbers a key has to order exactly: small integers,
// integers near ±2^53 and ±2^63, doubles of every bit pattern (subnormals,
// ±Inf and NaN among them), ±0, and doubles that are such integers.
func randomNumber(r *rand.Rand) Value {
	near := func() int64 {
		switch r.Intn(3) {
		case 0:
			return (1<<53 + r.Int63n(64) - 32) * int64(1-2*r.Intn(2))
		case 1:
			return math.MaxInt64 - r.Int63n(2048)
		}
		return math.MinInt64 + r.Int63n(2048)
	}
	switch r.Intn(7) {
	case 0:
		return Int64(r.Int63n(2001) - 1000)
	case 1:
		return Int64(near())
	case 2:
		return Double(float64(near()))
	case 3:
		return Double(math.Float64frombits(r.Uint64()))
	case 4:
		specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324, 1 << 63, -1 << 63}
		return Double(specials[r.Intn(len(specials))])
	case 5:
		return Double(float64(r.Int63n(2001)-1000) / 8)
	}
	return Int64(r.Int63() - r.Int63())
}

// exactCompare orders two numbers by their exact values, NaN above all.
func exactCompare(a, b Value) int {
	exact := func(v Value) (*big.Float, bool) {
		if i, ok := v.(Int64); ok {
			return new(big.Float).SetInt64(int64(i)), false
		}
		d := float64(v.(Double))
		if d != d {
			return nil, true
		}
		return new(big.Float).SetFloat64(d), false
	}
	x, xNaN := exact(a)
	y, yNaN := exact(b)
	switch {
	case xNaN && yNaN:
		return 0
	case xNaN:
		return 1
	case yNaN:
		return -1
	}
	return x.Cmp(y)
}

// checkNumbers checks one pair of numbers: Compare is the exact order, the
// keys order as Compare does, values Compare calls equal hash equal, and
// each key is one component KeyLen finds the end of, of which no proper
// prefix is one.
func checkNumbers(t testing.TB, a, b Value) {
	t.Helper()
	ka, kb := mustKey(t, a), mustKey(t, b)
	c := Compare(a, b)
	if want := exactCompare(a, b); c != want {
		t.Fatalf("Compare(%v %s, %v %s) = %d, exactly %d", a, a.Kind(), b, b.Kind(), c, want)
	}
	if kc := bytes.Compare(ka, kb); kc != c {
		t.Fatalf("keys of %v %s (% x) and %v %s (% x) compare %d, the values %d", a, a.Kind(), ka, b, b.Kind(), kb, kc, c)
	}
	if c == 0 && Hash64(a) != Hash64(b) {
		t.Fatalf("%v %s and %v %s are equal and hash apart", a, a.Kind(), b, b.Kind())
	}
	for _, k := range [][]byte{ka, kb} {
		if n, err := KeyLen(append(bytes.Clone(k), kb...)); err != nil || n != len(k) {
			t.Fatalf("KeyLen(% x ‖ % x) = %d, %v; want %d", k, kb, n, err, len(k))
		}
		for cut := 0; cut < len(k); cut++ {
			if n, err := KeyLen(k[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("KeyLen(% x), a prefix of the key % x, = %d, %v", k[:cut], k, n, err)
			}
		}
	}
}

// Every pair of generated numbers, and of numbers at the edges, orders,
// hashes and splits as checkNumbers demands; and keys are as short as their
// layout says.
func TestNumberKeys(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	var nums []Value
	for _, v := range keyValues() {
		if v.Kind().IsNumeric() {
			nums = append(nums, v)
		}
	}
	for len(nums) < 600 {
		nums = append(nums, randomNumber(r))
	}
	for _, a := range nums {
		for _, b := range nums {
			checkNumbers(t, a, b)
		}
	}
	for v, want := range map[Value]int{
		Int64(0): 3, Int64(1): 4, Double(1): 4, Int64(-1): 4, Int64(12345): 5, Int64(100000): 5, Double(0.5): 4,
		Int64(1<<53 + 1): 11, Int64(math.MaxInt64): 12, Int64(math.MinInt64): 4, Double(0.1): 11, Double(math.NaN()): 4,
	} {
		if k := mustKey(t, v); len(k) != want {
			t.Errorf("key of %v %s is % x, %d bytes; want %d", v, v.Kind(), k, len(k), want)
		}
	}
}

// KeyLen of a composite of one to three components is the length of its
// first, whatever follows; splitting on walks the composite to its end.
func TestKeyLenSplitsComposites(t *testing.T) {
	vals := keyValues()
	check := func(vs ...Value) {
		rest := mustKey(t, vs...)
		for i, v := range vs {
			n, err := KeyLen(rest)
			if want := len(mustKey(t, v)); err != nil || n != want {
				t.Fatalf("KeyLen(% x) at component %d of %v = %d, %v; want %d", rest, i, vs, n, err, want)
			}
			rest = rest[n:]
		}
		if len(rest) != 0 {
			t.Fatalf("%d bytes left after the components of %v", len(rest), vs)
		}
	}
	for _, a := range vals {
		check(a)
		for _, b := range vals {
			check(a, b)
			for _, c := range vals {
				check(a, b, c)
			}
		}
	}
}

// The encoding is prefix-free: no proper prefix of a key is a whole
// component, so a truncated entry is always found out.
func TestKeyLenTruncated(t *testing.T) {
	for _, v := range keyValues() {
		k := mustKey(t, v)
		for cut := 0; cut < len(k); cut++ {
			if n, err := KeyLen(k[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Errorf("KeyLen(% x), a prefix of the key of %v, = %d, %v", k[:cut], v, n, err)
			}
		}
	}
	for _, bad := range [][]byte{{0x0A}, {0x0D, 1}, {0xFF}, {0x04, 'a', 0x00, 0x01}, {0x0C, 0x00, 0xFF, 0x00}, {0x03, 0x84, 0x33}, {0x03, 0x7B, 0xCD, 0x00, 0x02}} {
		if n, err := KeyLen(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("KeyLen(% x) = %d, %v", bad, n, err)
		}
	}
}

// FuzzKeySplit drives KeyLen with arbitrary bytes: it answers ErrCorrupt or
// a length within its input, never panics, and a length it answers holds for
// that component alone and with anything after it. The seeds are each key,
// the key before a composite primary key, before itself and before 0xFF, and
// the key with its first or its last byte cut off.
func FuzzKeySplit(f *testing.F) {
	for _, v := range keyValues() {
		k := mustKey(f, v)
		f.Add(k)
		f.Add(append(bytes.Clone(k), mustKey(f, Int64(1), String("pk\x00"))...))
		f.Add(append(bytes.Clone(k), k...))
		f.Add(append(bytes.Clone(k), 0xFF))
		f.Add(k[1:])
		f.Add(k[:len(k)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{0x04, 0x00})
	f.Add([]byte{0x0C, 0x00, 0xFF, 0x00, 0x07})
	f.Add([]byte{0x03, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := KeyLen(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || n != 0 {
				t.Fatalf("KeyLen(% x) = %d, %v", data, n, err)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("KeyLen(% x) = %d of %d bytes", data, n, len(data))
		}
		for _, tail := range [][]byte{nil, {0x00}, {0xFF, 0x00, 0x00}} {
			if m, err := KeyLen(append(bytes.Clone(data[:n]), tail...)); err != nil || m != n {
				t.Fatalf("KeyLen(% x ‖ % x) = %d, %v; want %d", data[:n], tail, m, err, n)
			}
		}
	})
}

// fuzzNumber reads a number off data: a byte whose low bit chooses int64
// (clear) or double (set), then 8 bytes of its bits, zero-filled if data
// runs out.
func fuzzNumber(data []byte) (Value, []byte) {
	var b [9]byte
	n := copy(b[:], data)
	u := binary.BigEndian.Uint64(b[1:])
	if b[0]&1 == 0 {
		return Int64(u), data[n:]
	}
	return Double(math.Float64frombits(u)), data[n:]
}

// FuzzNumberKey reads two numbers off the fuzz bytes and checks that they
// compare exactly, that their keys order as they do, that equal ones hash
// equal, and that each key is one prefix-free component (checkNumbers).
func FuzzNumberKey(f *testing.F) {
	add := func(a, b Value) {
		var data []byte
		for _, v := range []Value{a, b} {
			if d, ok := v.(Double); ok {
				data = binary.BigEndian.AppendUint64(append(data, 1), math.Float64bits(float64(d)))
			} else {
				data = binary.BigEndian.AppendUint64(append(data, 0), uint64(v.(Int64)))
			}
		}
		f.Add(data)
	}
	var nums []Value
	for _, v := range keyValues() {
		if v.Kind().IsNumeric() {
			nums = append(nums, v)
		}
	}
	for i, a := range nums {
		add(a, nums[(i+1)%len(nums)])
		add(a, a)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, rest := fuzzNumber(data)
		b, _ := fuzzNumber(rest)
		checkNumbers(t, a, b)
	})
}
