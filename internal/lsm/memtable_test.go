package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"asterix/internal/rtree"
)

// tokens share long prefixes, as a keyword index's do.
var tokens = []string{"data", "database", "databases", "datab", "datum", "d", "query", "queries"}

// kwKey is a keyword-shaped key: token ‖ 0 ‖ 8-byte primary key.
func kwKey(token string, pk uint64) []byte {
	return binary.BigEndian.AppendUint64(append([]byte(token), 0), pk)
}

// checkMemTable checks the B+tree's shape: leaves hold sorted keys at one
// depth, each key of an inner node's subtree i lies in [seps[i-1],
// seps[i]), each separator equals the first key of its right subtree, and
// the leaf chain visits every leaf, and so every entry, once and in order.
func checkMemTable(t *testing.T, m *memTable) {
	t.Helper()
	var leaves []*memNode
	depth := -1
	var walk func(n *memNode, lo, hi []byte, d int) []byte
	walk = func(n *memNode, lo, hi []byte, d int) []byte {
		if n.kids == nil {
			if depth >= 0 && d != depth {
				t.Fatalf("leaves at depths %d and %d", depth, d)
			}
			depth = d
			if len(n.slots) > leafSlots || (n != m.root && len(n.slots) == 0) {
				t.Fatalf("leaf of %d slots", len(n.slots))
			}
			leaves = append(leaves, n)
			for i, s := range n.slots {
				k := m.key(s)
				if i > 0 && bytes.Compare(m.key(n.slots[i-1]), k) >= 0 {
					t.Fatalf("leaf keys %x, %x out of order", m.key(n.slots[i-1]), k)
				}
				if (lo != nil && bytes.Compare(k, lo) < 0) || (hi != nil && bytes.Compare(k, hi) >= 0) {
					t.Fatalf("key %x outside its subtree's range [%x, %x)", k, lo, hi)
				}
			}
			if len(n.slots) == 0 {
				return nil
			}
			return m.key(n.slots[0])
		}
		if len(n.kids) != len(n.seps)+1 || len(n.kids) < 2 || len(n.kids) > innerKids {
			t.Fatalf("inner node of %d children and %d separators", len(n.kids), len(n.seps))
		}
		var first []byte
		for i, kid := range n.kids {
			klo, khi := lo, hi
			if i > 0 {
				klo = n.seps[i-1]
			}
			if i < len(n.seps) {
				khi = n.seps[i]
			}
			f := walk(kid, klo, khi, d+1)
			if i == 0 {
				first = f
			} else if !bytes.Equal(f, n.seps[i-1]) {
				t.Fatalf("separator %x, but its right subtree starts at %x", n.seps[i-1], f)
			}
		}
		return first
	}
	walk(m.root, nil, nil, 0)
	entries := 0
	for i, l := range leaves {
		entries += len(l.slots)
		if next := l.next; (i+1 < len(leaves) && next != leaves[i+1]) || (i+1 == len(leaves) && next != nil) {
			t.Fatalf("leaf %d of %d is not chained to its right neighbour", i, len(leaves))
		}
	}
	if entries != m.count {
		t.Fatalf("the leaves hold %d entries, len() is %d", entries, m.count)
	}
}

type modelEntry struct {
	value     string
	tombstone bool
}

// handedOut is a key or value a get or run returned, with the bytes it had.
type handedOut struct {
	got  []byte
	want string
}

// TestMemTableModel runs random histories against a map oracle, growing the
// component to 0, 1, 63, 64, 65, 4 097 and 100 000 entries so that leaves
// and inner nodes split. Steps put new keys, overwrite with a longer,
// shorter or empty value, write tombstones, get present and absent keys,
// and run with nil, equal, absent and inverted bounds. Keys are
// keyword-shaped with long shared prefixes, plus the empty key; one value
// is larger than a slab chunk. The tree's structure, and every key and
// value a get or run has handed out, are checked after each step up to
// 4 097 entries and every 2 048 steps beyond, and always at the end.
func TestMemTableModel(t *testing.T) {
	for _, size := range []int{0, 1, 63, 64, 65, 4097, 100000} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			if size == 100000 && testing.Short() {
				t.Skip("short")
			}
			memTableHistory(t, size, rand.New(rand.NewSource(int64(size)+1)))
		})
	}
}

func memTableHistory(t *testing.T, size int, r *rand.Rand) {
	m := newMemTable()
	oracle := map[string]modelEntry{}
	var keys []string // the oracle's keys, in insertion order
	charge := 0
	var handed []handedOut
	hand := func(got []byte, want string) {
		if string(got) != want {
			t.Fatalf("handed out %q, want %q", got, want)
		}
		handed = append(handed, handedOut{got, want})
	}
	newKey := func() []byte {
		if _, ok := oracle[""]; !ok && r.Intn(200) == 0 {
			return []byte{}
		}
		for {
			k := kwKey(tokens[r.Intn(len(tokens))], uint64(r.Intn(1<<20)))
			if _, ok := oracle[string(k)]; !ok {
				return k
			}
		}
	}
	anyKey := func() []byte { // present four times in five
		if len(keys) > 0 && r.Intn(5) > 0 {
			return []byte(keys[r.Intn(len(keys))])
		}
		return newKey()
	}
	value := func(n int) []byte {
		v := make([]byte, n)
		r.Read(v)
		return v
	}
	put := func(k, v []byte, tomb bool) {
		old, present := oracle[string(k)]
		want := len(k) + len(v) + 32
		if present {
			want = len(v) - len(old.value)
		} else {
			keys = append(keys, string(k))
		}
		if got := m.put(k, v, tomb); got != want {
			t.Fatalf("put(%x) charged %d, want %d", k, got, want)
		}
		charge += want
		oracle[string(k)] = modelEntry{string(v), tomb}
		// The caller's buffers are its own again: the table copied them.
		for i := range k {
			k[i] ^= 0xff
		}
		for i := range v {
			v[i] ^= 0xff
		}
	}
	// checkRun checks that run returns, in strictly increasing order, as
	// many entries as the oracle holds in [lo, hi], each as the oracle has it.
	checkRun := func(lo, hi []byte) {
		in := func(k string) bool {
			return (lo == nil || k >= string(lo)) && (hi == nil || k <= string(hi))
		}
		want := 0
		for k := range oracle {
			if in(k) {
				want++
			}
		}
		got := m.run(lo, hi, nil, math.MaxInt)
		for j, e := range got {
			o, ok := oracle[string(e.key)]
			switch {
			case !ok || !in(string(e.key)) || (j > 0 && bytes.Compare(got[j-1].key, e.key) >= 0):
				t.Fatalf("run(%x, %x)[%d] = %x: absent, out of range or out of order", lo, hi, j, e.key)
			case string(e.value) != o.value || e.tombstone != o.tombstone:
				t.Fatalf("run(%x, %x)[%d] = %x %q %v, want %q %v", lo, hi, j, e.key, e.value, e.tombstone, o.value, o.tombstone)
			}
			if j == 0 || j == len(got)-1 {
				hand(e.key, string(e.key))
				hand(e.value, o.value)
			}
		}
		if len(got) != want {
			t.Fatalf("run(%x, %x) returned %d entries, want %d", lo, hi, len(got), want)
		}
		// A cursor reads the same entries, a batch at a time.
		j := 0
		for c := m.cursor(lo, hi); c.valid(); c.next() {
			if v, tomb, _ := c.entry(); j == len(got) || !bytes.Equal(c.key(), got[j].key) || !bytes.Equal(v, got[j].value) || tomb != got[j].tombstone {
				t.Fatalf("cursor(%x, %x)[%d] = %x, want run's entry", lo, hi, j, c.key())
			}
			j++
		}
		if j != len(got) {
			t.Fatalf("cursor(%x, %x) read %d entries, run %d", lo, hi, j, len(got))
		}
	}
	big := r.Intn(max(size, 1)) // the new key that gets a value larger than a chunk
	small := func() bool { return len(oracle) <= 4097 }
	steps := size + min(size, 2000) + 100
	for step := 0; step < steps || len(oracle) < size; step++ {
		switch op := r.Intn(10); {
		case len(oracle) < size && (op < 4 || step >= steps):
			if len(oracle) == big {
				put(newKey(), value(chunkSize+100), false)
			} else {
				put(newKey(), value(r.Intn(24)), false)
			}
		case op < 6:
			if len(keys) == 0 {
				continue // an empty table's history is reads only
			}
			k := []byte(keys[r.Intn(len(keys))])
			switch n := len(oracle[string(k)].value); r.Intn(4) {
			case 0:
				put(k, value(n+1+r.Intn(16)), false) // longer
			case 1:
				put(k, value(r.Intn(n+1)), false) // shorter or as long
			case 2:
				put(k, nil, false) // empty
			default:
				put(k, nil, true) // tombstone
			}
		case op < 8:
			k := anyKey()
			v, tomb, ok := m.get(k)
			want, present := oracle[string(k)]
			if ok != present || string(v) != want.value || tomb != want.tombstone {
				t.Fatalf("get(%x) = %q %v %v, want %q %v %v", k, v, tomb, ok, want.value, want.tombstone, present)
			}
			if ok {
				hand(v, want.value)
			}
		case small() || r.Intn(512) == 0:
			// Runs: nil bounds, bounds that are the empty key, equal
			// bounds, a narrow range between keys that may be absent, and
			// inverted bounds.
			a, b := anyKey(), anyKey()
			switch r.Intn(4) {
			case 0:
				checkRun(nil, nil)
				checkRun(nil, []byte{})
				checkRun([]byte{}, a)
			case 1:
				checkRun(a, a)
			case 2:
				hi := bytes.Clone(a)
				if len(hi) > 0 {
					hi[len(hi)-1] += 8
				}
				checkRun(a, hi)
			default:
				if bytes.Compare(a, b) < 0 {
					a, b = b, a
				}
				checkRun(a, b) // inverted, unless a and b are one key
				checkRun(b, a)
			}
		}
		if small() || step%2048 == 0 {
			checkMemTableState(t, m, oracle, charge, handed)
		}
	}
	if len(oracle) != size {
		t.Fatalf("history built %d entries, want %d", len(oracle), size)
	}
	checkMemTableState(t, m, oracle, charge, handed)
	checkRun(nil, nil)
}

func checkMemTableState(t *testing.T, m *memTable, oracle map[string]modelEntry, charge int, handed []handedOut) {
	t.Helper()
	checkMemTable(t, m)
	if m.len() != len(oracle) || m.size() != charge {
		t.Fatalf("len %d size %d, want %d and %d", m.len(), m.size(), len(oracle), charge)
	}
	for _, h := range handed {
		if string(h.got) != h.want {
			t.Fatalf("bytes handed out as %q now read %q", h.want, h.got)
		}
	}
}

// TestMemTableHeapAgainstCharge puts 40 000 entries in random order into
// a memory component and measures its heap per entry after a GC, which
// must stay within twice the entry's charge: a key-only secondary entry
// of 25 bytes, charged 57, and an R-tree point with a 9-byte primary key,
// charged len(pk)+64 = 73.
func TestMemTableHeapAgainstCharge(t *testing.T) {
	const n = 40000
	for _, row := range []struct {
		name string
		fill func(r *rand.Rand) memComponent
	}{
		{"keyword", func(r *rand.Rand) memComponent {
			const klen = 25
			keys := make([]byte, 0, n*klen)
			for i := 0; i < n; i++ {
				keys = fmt.Appendf(keys, "%-10s\x00%014d", tokens[r.Intn(len(tokens))], r.Int63n(1e14))
			}
			m := newMemTable()
			for i := 0; i < n; i++ {
				m.put(keys[i*klen:(i+1)*klen], nil, false)
			}
			return m
		}},
		{"rtree", func(r *rand.Rand) memComponent {
			m := rtreeKind{}.newMem()
			pk := make([]byte, 9)
			for i := 0; i < n; i++ {
				binary.BigEndian.PutUint64(pk[1:], r.Uint64())
				m.put(rtree.PointRect(r.Float64()*1000, r.Float64()*1000), pk, false)
			}
			return m
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			m := row.fill(rand.New(rand.NewSource(5)))
			runtime.GC()
			runtime.ReadMemStats(&after)
			heap := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(m.len())
			charge := float64(m.size()) / float64(m.len())
			runtime.KeepAlive(m)
			t.Logf("%d entries: %.1f B of heap per entry against a charge of %.0f B", m.len(), heap, charge)
			if m.len() != n {
				t.Fatalf("%d entries, want %d", m.len(), n)
			}
			if heap > 2*charge {
				t.Fatalf("%.1f B of heap per entry, more than twice its %.0f B charge", heap, charge)
			}
		})
	}
}

// TestMemTableOverwritesStayBounded: overwrites that leave the charge
// where it is do not grow the slab without bound. Once overwritten bytes
// outweigh the charge, the entries are copied to a new slab; the values
// readers were handed before keep their bytes.
func TestMemTableOverwritesStayBounded(t *testing.T) {
	m := newMemTable()
	r := rand.New(rand.NewSource(9))
	var handed []handedOut
	latest := map[string]string{}
	for round := 0; round < 500; round++ {
		for i := 0; i < 200; i++ {
			k := kwKey(tokens[i%len(tokens)], uint64(i))
			v := make([]byte, 200)
			r.Read(v)
			m.put(k, v, false)
			latest[string(k)] = string(v)
			if round%50 == 0 {
				got, _, _ := m.get(k)
				handed = append(handed, handedOut{got, string(v)})
			}
		}
		slab := 0
		for _, c := range m.chunks {
			slab += cap(c)
		}
		if limit := 2*m.size() + 2*chunkSize; slab > limit {
			t.Fatalf("round %d: a slab of %d bytes for a charge of %d", round, slab, m.size())
		}
	}
	checkMemTable(t, m)
	for k, v := range latest {
		if got, _, ok := m.get([]byte(k)); !ok || string(got) != v {
			t.Fatalf("get(%x) lost its newest value", k)
		}
	}
	for _, h := range handed {
		if string(h.got) != h.want {
			t.Fatalf("bytes handed out as %q now read %q", h.want, h.got)
		}
	}
}

// TestMemTableConcurrentReaders: readers get and run while a writer
// overwrites the same keys often enough to copy the slab again and again.
// Every value a reader is handed is whole (one put's bytes) and still reads
// the same after the writer has gone on.
func TestMemTableConcurrentReaders(t *testing.T) {
	const keys, rounds = 100, 300
	m := newMemTable()
	key := func(i int) []byte { return kwKey(tokens[i%len(tokens)], uint64(i)) }
	done := make(chan struct{})
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			var held [][]byte
			var copies []string
			for n := 0; ; n++ {
				select {
				case <-done:
					for i, h := range held {
						if string(h) != copies[i] {
							errs <- fmt.Errorf("reader %d: a value changed after it was handed out", g)
							return
						}
					}
					errs <- nil
					return
				default:
				}
				var vs [][]byte
				if g == 0 {
					v, _, _ := m.get(key(n % keys))
					vs = append(vs, v)
				} else {
					for _, e := range m.run(key(n%keys), key(n%keys+10), nil, math.MaxInt) {
						vs = append(vs, e.value)
					}
				}
				for _, v := range vs {
					if len(v) > 0 && !bytes.Equal(v, bytes.Repeat(v[:1], len(v))) {
						errs <- fmt.Errorf("reader %d: a torn value", g)
						return
					}
					if n%64 == 0 {
						held, copies = append(held, v), append(copies, string(v))
					}
				}
			}
		}(g)
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < keys; i++ {
			m.put(key(i), bytes.Repeat([]byte{byte(r)}, 200+r%7), false)
		}
	}
	close(done)
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	checkMemTable(t, m)
}
