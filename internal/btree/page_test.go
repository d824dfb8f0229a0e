package btree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"asterix/internal/storage"
)

type kv struct{ k, v []byte }

// randomEntries returns n distinct entries in key order with variable-
// length keys and values, seeded with the edge shapes: a 1-byte key, an
// empty value, and entries of exactly max bytes (MaxEntrySize).
func randomEntries(r *rand.Rand, n, max int) []kv {
	seen := map[string]bool{}
	var out []kv
	add := func(k, v []byte) {
		if !seen[string(k)] {
			seen[string(k)] = true
			out = append(out, kv{k, v})
		}
	}
	blob := func(n int) []byte {
		b := make([]byte, n)
		r.Read(b)
		return b
	}
	add([]byte{0x42}, blob(max-1))    // 1-byte key, entry at the size limit
	add(blob(max), nil)               // key at the size limit, empty value
	add(blob(max/2), blob(max-max/2)) // both halves, at the limit
	add([]byte{0x00}, nil)            // smallest possible entry
	add(bytes.Repeat([]byte{0xFF}, 9), blob(3))
	for len(out) < n {
		k := blob(1 + r.Intn(24))
		add(k, blob(r.Intn(max-len(k)+1)))
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].k, out[j].k) < 0 })
	return out
}

// buildTree loads entries by bulk load (the shape of an LSM component) or
// by inserts in random order (splits, uneven leaves).
func buildTree(t testing.TB, r *rand.Rand, pageSize int, entries []kv, bulk bool) *BTree {
	t.Helper()
	bt := newTree(t, pageSize, 256)
	if bulk {
		i := 0
		err := bt.BulkLoad(func() ([]byte, []byte, bool) {
			if i == len(entries) {
				return nil, nil, false
			}
			i++
			return entries[i-1].k, entries[i-1].v, true
		})
		if err != nil {
			t.Fatal(err)
		}
		return bt
	}
	for _, i := range r.Perm(len(entries)) {
		if err := bt.Insert(entries[i].k, entries[i].v); err != nil {
			t.Fatal(err)
		}
	}
	return bt
}

// Property: on multi-level trees, the in-place Search, Scan and Iterator
// agree with a sorted reference for every key, for absent keys, and for
// bounds that fall on keys, between keys, before the first, after the
// last, on one point (lo == hi), and across leaf boundaries.
func TestPropInPlaceReadsMatchReference(t *testing.T) {
	for _, bulk := range []bool{true, false} {
		r := rand.New(rand.NewSource(11))
		const pageSize = 512
		entries := randomEntries(r, 600, (pageSize-16)/4)
		bt := buildTree(t, r, pageSize, entries, bulk)
		if bt.Height() < 3 {
			t.Fatalf("tree of height %d does not exercise interior descent", bt.Height())
		}
		if bt.MaxEntrySize() != (pageSize-16)/4 {
			t.Fatal("test sizes its limit entries wrongly")
		}

		// between returns a key strictly between two adjacent reference
		// keys when one exists (else the lower key itself).
		between := func(i int) []byte {
			k := append(append([]byte(nil), entries[i].k...), 0x00)
			if i+1 < len(entries) && bytes.Compare(k, entries[i+1].k) >= 0 {
				return entries[i].k
			}
			return k
		}

		for i, e := range entries {
			v, ok, err := bt.Search(e.k)
			if err != nil || !ok || !bytes.Equal(v, e.v) {
				t.Fatalf("bulk=%v search entry %d: ok=%v err=%v", bulk, i, ok, err)
			}
			if len(v) > 0 { // the result is the caller's copy, not the page
				v[0] ^= 0xFF
				if again, _, _ := bt.Search(e.k); !bytes.Equal(again, e.v) {
					t.Fatal("Search returned a slice of the cached page")
				}
			}
			if absent := between(i); !bytes.Equal(absent, e.k) {
				if _, ok, err := bt.Search(absent); ok || err != nil {
					t.Fatalf("search found an absent key (err %v)", err)
				}
			}
		}
		for _, k := range [][]byte{{}, bytes.Repeat([]byte{0xFF}, 40)} {
			if _, ok, err := bt.Search(k); ok || err != nil {
				t.Fatalf("search outside the key range: ok=%v err=%v", ok, err)
			}
		}

		bound := func() []byte {
			switch i := r.Intn(len(entries)); r.Intn(6) {
			case 0:
				return nil
			case 1:
				return []byte{} // before the first key
			case 2:
				return bytes.Repeat([]byte{0xFF}, 40) // after the last
			case 3:
				return between(i)
			default:
				return entries[i].k
			}
		}
		for trial := 0; trial < 400; trial++ {
			lo, hi := bound(), bound()
			if trial%5 == 0 {
				hi = lo // one point, present or absent
			}
			var want []kv
			for _, e := range entries {
				if (lo == nil || bytes.Compare(e.k, lo) >= 0) && (hi == nil || bytes.Compare(e.k, hi) <= 0) {
					want = append(want, e)
				}
			}
			var scanned []kv
			err := bt.Scan(lo, hi, func(k, v []byte) bool {
				scanned = append(scanned, kv{append([]byte(nil), k...), append([]byte(nil), v...)})
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			var iterated []kv
			it := bt.NewIterator(lo, hi)
			for ; it.Valid(); it.Next() {
				// Key/Value stay valid until Next: read them twice.
				k, v := it.Key(), it.Value()
				if !bytes.Equal(k, it.Key()) || !bytes.Equal(v, it.Value()) {
					t.Fatal("Key/Value changed without Next")
				}
				iterated = append(iterated, kv{append([]byte(nil), k...), append([]byte(nil), v...)})
			}
			if it.Err() != nil {
				t.Fatal(it.Err())
			}
			for name, got := range map[string][]kv{"scan": scanned, "iterator": iterated} {
				if len(got) != len(want) {
					t.Fatalf("bulk=%v %s [%x, %x]: %d entries, want %d", bulk, name, lo, hi, len(got), len(want))
				}
				for i := range got {
					if !bytes.Equal(got[i].k, want[i].k) || !bytes.Equal(got[i].v, want[i].v) {
						t.Fatalf("bulk=%v %s [%x, %x]: entry %d differs", bulk, name, lo, hi, i)
					}
				}
			}
		}

		// Early stop.
		n := 0
		if err := bt.Scan(nil, nil, func(k, v []byte) bool { n++; return n < 7 }); err != nil || n != 7 {
			t.Fatalf("early stop visited %d (err %v)", n, err)
		}
	}
}

// The read path allocates per call, never per entry or per page: Search
// makes the one copy it returns; an iterator makes itself and its page
// buffer, however many entries a leaf holds and however many leaves it
// crosses. This is the allocation gate of Search, Iterator.Next and
// Iterator.Valid.
func TestReadPathAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	load := func(n, valLen int) *BTree {
		var entries []kv
		for i := 0; i < n; i++ {
			entries = append(entries, kv{ikey(i), make([]byte, valLen)})
		}
		return buildTree(t, r, 4096, entries, true)
	}
	dense := load(20000, 2)   // ~300 entries per leaf
	sparse := load(2000, 900) // 4 entries per leaf
	if dense.Height() < 2 || sparse.Height() < 2 {
		t.Fatal("trees too small")
	}

	i := 0
	if a := testing.AllocsPerRun(200, func() {
		i += 37
		if _, ok, err := dense.Search(ikey(i % 20000)); !ok || err != nil {
			t.Fatal("search failed")
		}
	}); a > 1 {
		t.Errorf("Search: %v allocations per call, want at most 1", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		if _, ok, _ := dense.Search([]byte("absent")); ok {
			t.Fatal("found an absent key")
		}
	}); a != 0 {
		t.Errorf("Search miss: %v allocations per call, want 0", a)
	}

	fullIteration := func(bt *BTree) float64 {
		return testing.AllocsPerRun(5, func() {
			n := int64(0)
			it := bt.NewIterator(nil, nil)
			for ; it.Valid(); it.Next() {
				n++
			}
			if n != bt.Count() || it.Err() != nil {
				t.Fatalf("iterated %d of %d (err %v)", n, bt.Count(), it.Err())
			}
		})
	}
	d, s := fullIteration(dense), fullIteration(sparse)
	if d != s || d > 2 {
		t.Errorf("full iteration: %v allocations at ~300 entries/leaf, %v at 4 entries/leaf; want equal and at most 2", d, s)
	}
	lo, hi := ikey(100), ikey(9000)
	if a := testing.AllocsPerRun(5, func() {
		if err := dense.Scan(lo, hi, func(k, v []byte) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}); a > 1 {
		t.Errorf("Scan: %v allocations per call, want at most 1 (the page buffer)", a)
	}
}

// corruptions are page images the read path must refuse with an error
// when it walks into the damage: never a panic, never a slice past the
// page. Their keys sort below ikey(150), so a search for it reads on.
func corruptions(pageSize int) map[string][]byte {
	page := func(typ byte, cnt uint16, body ...byte) []byte {
		p := make([]byte, pageSize)
		p[0] = typ
		binary.BigEndian.PutUint16(p[1:], cnt)
		binary.BigEndian.PutUint32(p[3:], uint32(0xFFFFFFFF)) // next = noPage
		copy(p[pageHeaderSize:], body)
		return p
	}
	overlong := bytes.Repeat([]byte{0x80}, 11) // varint that never ends
	// A key that ends exactly at the page end, so its value is missing.
	toTheEnd := binary.AppendUvarint(nil, uint64(pageSize-pageHeaderSize-2))
	return map[string][]byte{
		"unknown type":                page(7, 1, 1, 'k', 1, 'v'),
		"leaf count past page end":    page(nodeLeaf, 0xFFFF, 1, 0, 1, 'v'),
		"leaf key length past end":    page(nodeLeaf, 1, 0xFF, 0x7F, 'k'),
		"leaf value length past end":  page(nodeLeaf, 1, 1, 'k', 0xFF, 0xFF, 0x03),
		"leaf bad varint":             page(nodeLeaf, 1, overlong...),
		"leaf value missing at end":   page(nodeLeaf, 1, toTheEnd...),
		"interior children past end":  page(nodeInterior, 0xFFFF),
		"interior bad varint":         page(nodeInterior, 1, append([]byte{0, 0, 0, 2, 0, 0, 0, 3}, overlong...)...),
		"interior key past end":       page(nodeInterior, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0xFF, 0x7F),
		"interior child is meta page": page(nodeInterior, 0, 0, 0, 0, 0),
		"interior child negative":     page(nodeInterior, 0, 0xFF, 0xFF, 0xFF, 0xFE),
	}
}

func TestCorruptPagesAreErrors(t *testing.T) {
	for name, img := range corruptions(512) {
		for _, asRoot := range []bool{true, false} {
			bt := rawTree(t)
			for i := 0; i < 300; i++ {
				if err := bt.Insert(ikey(i), ikey(i)); err != nil {
					t.Fatal(err)
				}
			}
			victim := bt.root
			if !asRoot { // the leaf holding key 150
				var err error
				if victim, err = bt.findLeaf(ikey(150)); err != nil {
					t.Fatal(err)
				}
			}
			p, err := bt.bc.Pin(storage.PageID{File: bt.file, Num: victim})
			if err != nil {
				t.Fatal(err)
			}
			copy(p.Data, img)
			bt.bc.Unpin(p, true)

			if _, _, err := bt.Search(ikey(150)); err == nil {
				t.Errorf("%s (root=%v): Search returned no error", name, asRoot)
			}
			if err := bt.Scan(ikey(150), nil, func(k, v []byte) bool { return true }); err == nil {
				t.Errorf("%s (root=%v): Scan returned no error", name, asRoot)
			}
			it := bt.NewIterator(ikey(150), nil)
			for ; it.Valid(); it.Next() {
			}
			if it.Err() == nil {
				t.Errorf("%s (root=%v): Iterator reported no error", name, asRoot)
			}
			if _, err := bt.Delete(ikey(150)); err == nil {
				t.Errorf("%s (root=%v): Delete returned no error", name, asRoot)
			}
			if n := bt.bc.Pinned(); n != 0 {
				t.Errorf("%s (root=%v): %d pages left pinned", name, asRoot, n)
			}
		}
	}
}

// FuzzBTreePage feeds arbitrary page images to the in-place readers and
// to the write side's decoder. Neither may panic, and they must agree:
// a page one of them walks to the end, the other decodes to the same
// entries and the same child choice.
func FuzzBTreePage(f *testing.F) {
	leaf := newNode(nodeLeaf)
	leaf.keys = [][]byte{[]byte("a"), []byte("bb"), bytes.Repeat([]byte("c"), 200)}
	leaf.vals = [][]byte{nil, []byte("v"), bytes.Repeat([]byte("w"), 130)}
	interior := newNode(nodeInterior)
	interior.keys = [][]byte{[]byte("f"), []byte("m")}
	interior.children = []int32{1, 2, 3}
	for _, n := range []*node{leaf, interior} {
		buf := make([]byte, n.encodedSize())
		n.encode(buf)
		f.Add(buf, []byte("g"))
	}
	for _, img := range corruptions(64) {
		f.Add(img, []byte("k"))
	}
	f.Fuzz(func(t *testing.T, page, key []byte) {
		child, childErr := childFor(page, key)
		var keys, vals [][]byte
		cnt, _, pos, walkErr := pageHeader(page, nodeLeaf)
		if walkErr == nil {
			c := leafCursor{buf: page, pos: pos, left: cnt}
			for {
				k, v, ok, err := c.next()
				if walkErr = err; err != nil || !ok {
					break
				}
				keys, vals = append(keys, k), append(vals, v)
			}
		}
		n, decErr := decodeNode(page)
		if decErr != nil {
			if walkErr == nil {
				t.Fatalf("decodeNode refused (%v) a leaf the in-place walk read to its end", decErr)
			}
			return
		}
		switch n.typ {
		case nodeLeaf:
			if walkErr != nil || len(keys) != len(n.keys) {
				t.Fatalf("in-place walk: %d entries, err %v; decodeNode: %d entries", len(keys), walkErr, len(n.keys))
			}
			for i := range keys {
				if !bytes.Equal(keys[i], n.keys[i]) || !bytes.Equal(vals[i], n.vals[i]) {
					t.Fatalf("entry %d differs between the in-place walk and decodeNode", i)
				}
			}
		case nodeInterior:
			// childFor stops at the first separator above key, so it can
			// succeed on a page whose later separators are garbage; when
			// the whole page decodes, the choice must be the same.
			want := n.children[0]
			if key != nil {
				i := 0
				for i < len(n.keys) && bytes.Compare(key, n.keys[i]) >= 0 {
					i++
				}
				want = n.children[i]
			}
			if want <= metaPage {
				if childErr == nil {
					t.Fatalf("childFor followed child %d", child)
				}
			} else if childErr != nil || child != want {
				t.Fatalf("childFor = %d, %v; decodeNode picks %d", child, childErr, want)
			}
		}
	})
}
