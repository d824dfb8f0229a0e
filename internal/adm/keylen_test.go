package adm

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// keyValues is at least one value of every kind EncodeKey accepts, and the
// strings and binaries whose escaping KeyLen has to see through.
func keyValues() []Value {
	return []Value{
		Missing, Null, Boolean(false), Boolean(true),
		Int64(0), Int64(-7), Int64(1 << 60), Double(2.5), Double(math.Inf(-1)),
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
	k, err := EncodeCompositeKey(nil, vs...)
	if err != nil {
		t.Fatal(err)
	}
	return k
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
	for _, bad := range [][]byte{{0x0A}, {0x0D, 1}, {0xFF}, {0x04, 'a', 0x00, 0x01}, {0x0C, 0x00, 0xFF, 0x00}} {
		if n, err := KeyLen(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("KeyLen(% x) = %d, %v", bad, n, err)
		}
	}
}

// FuzzKeySplit drives KeyLen with arbitrary bytes: it answers ErrCorrupt or
// a length within its input, never panics, and a length it answers holds
// for that component alone and with anything after it.
func FuzzKeySplit(f *testing.F) {
	for _, v := range keyValues() {
		k := mustKey(f, v)
		f.Add(k)
		f.Add(append(k, mustKey(f, Int64(1), String("pk\x00"))...))
		f.Add(k[:len(k)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{0x04, 0x00})
	f.Add([]byte{0x0C, 0x00, 0xFF, 0x00, 0x07})
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
