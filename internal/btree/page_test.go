package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"asterix/internal/storage"
)

type kv struct{ k, v []byte }

// randomEntries returns n distinct entries in key order with variable-
// length keys and values of at most max bytes together, seeded with the
// edge shapes: a 1-byte key, an empty value, and entries of exactly max
// bytes. max is at least 12.
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
		k := blob(1 + r.Intn(min(24, max)))
		add(k, blob(r.Intn(max-len(k)+1)))
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].k, out[j].k) < 0 })
	return out
}

// buildTree bulk-loads entries: the shape of an LSM component.
func buildTree(t testing.TB, pageSize int, entries []kv) *BTree {
	t.Helper()
	bt := newTree(t, pageSize, 256)
	load(t, bt, len(entries), func(i int) []byte { return entries[i].k }, func(i int) []byte { return entries[i].v })
	return bt
}

// Property: on multi-level trees, the in-place Search, Scan and Iterator
// agree with a sorted reference for every key, for absent keys, and for
// bounds that fall on keys, between keys, before the first, after the
// last, on one point (lo == hi), and across leaf boundaries.
//
// The trees are bulk-loaded (packed pages), and built with 1, 15, 16, 17,
// 31, 32 and 33 entries on every leaf and, where they fit, on every
// interior page: one restart point, a group one short of full, a full
// group, one past it, and so on to three restart points. Every entry is
// probed, and so is a key just past it, which lies before the next entry:
// the probes fall on, between and just past every restart point.
func TestPropInPlaceReadsMatchReference(t *testing.T) {
	for _, pageSize := range []int{512, 4096, 8192} {
		for _, perPage := range []int{0, 1, 15, 16, 17, 31, 32, 33} {
			name := fmt.Sprintf("page%d/bulk", pageSize)
			if perPage > 0 {
				name = fmt.Sprintf("page%d/%d-per-page", pageSize, perPage)
			}
			t.Run(name, func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(11 + pageSize + perPage)))
				max, n := (pageSize-16)/4, 600
				if perPage > 0 {
					// Small enough entries that perPage of them and the
					// trailer fit a page.
					max = min(max, (pageSize-pageHeaderSize-2-2*numRestarts(perPage))/perPage-2)
					n = 40 * perPage
				}
				entries := randomEntries(r, n, max)
				var bt *BTree
				if perPage == 0 {
					bt = buildTree(t, pageSize, entries)
				} else {
					bt = newTree(t, pageSize, 256)
					loadPages(t, bt, entries, func(n *node) bool { return len(n.keys) >= perPage })
					levels := treeLevels(t, bt)
					leaves := levels[len(levels)-1]
					for i, l := range leaves[:len(leaves)-1] {
						if len(l.keys) != perPage {
							t.Fatalf("leaf %d holds %d entries, want %d", i, len(l.keys), perPage)
						}
					}
				}
				if bt.Height() < 2 {
					t.Fatalf("tree of height %d does not exercise interior descent", bt.Height())
				}
				checkReadsMatch(t, r, bt, entries)
			})
		}
		for _, shape := range []string{"keyword", "composite", "disjoint"} {
			t.Run(fmt.Sprintf("page%d/%s", pageSize, shape), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(pageSize + len(shape))))
				entries := shapedEntries(r, shape, (pageSize-16)/4)
				bt := buildTree(t, pageSize, entries)
				if bt.Height() < 2 {
					t.Fatalf("tree of height %d does not exercise interior descent", bt.Height())
				}
				checkReadsMatch(t, r, bt, entries)
			})
		}
	}
}

// shapedEntries returns sorted entries in the key shapes of the indexes
// that prefix compression serves, and one it cannot:
//   - keyword: one token and thousands of primary keys, with empty values
//     (key-only secondary entries);
//   - composite: a secondary key of a few hundred values, then a primary
//     key, with empty values;
//   - disjoint: keys whose first bytes all differ, so that no key shares a
//     byte with its neighbour, with values of up to max bytes.
func shapedEntries(r *rand.Rand, shape string, max int) []kv {
	var out []kv
	switch shape {
	case "keyword":
		for i := 0; i < 4000; i++ {
			out = append(out, kv{append([]byte("database\x00"), ikey(3*i)...), nil})
		}
	case "composite":
		for sk := 0; sk < 300; sk++ {
			for pk := sk; pk < 6000; pk += 1 + r.Intn(400) {
				out = append(out, kv{append([]byte(fmt.Sprintf("user%d\x00", sk)), ikey(pk)...), nil})
			}
		}
		sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].k, out[j].k) < 0 })
	case "disjoint":
		for b := 1; b < 256; b++ {
			k := make([]byte, 1+r.Intn(min(24, max)))
			r.Read(k)
			k[0] = byte(b)
			v := make([]byte, r.Intn(max-len(k)+1))
			r.Read(v)
			out = append(out, kv{k, v})
		}
	}
	return out
}

// checkReadsMatch probes bt against the sorted reference entries.
func checkReadsMatch(t *testing.T, r *rand.Rand, bt *BTree, entries []kv) {
	t.Helper()
	// between returns a key strictly between two adjacent reference keys
	// when one exists (else the lower key itself).
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
			t.Fatalf("search entry %d: ok=%v err=%v", i, ok, err)
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
				t.Fatalf("%s [%x, %x]: %d entries, want %d", name, lo, hi, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i].k, want[i].k) || !bytes.Equal(got[i].v, want[i].v) {
					t.Fatalf("%s [%x, %x]: entry %d differs", name, lo, hi, i)
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

// The read path allocates per call, never per entry or per page: Search
// makes the one copy it returns; an iterator makes itself and its page
// buffer, however many entries a leaf holds and however many leaves it
// crosses. This is the allocation gate of Search, Iterator.Next and
// Iterator.Valid.
func TestReadPathAllocations(t *testing.T) {
	load := func(n, valLen int) *BTree {
		var entries []kv
		for i := 0; i < n; i++ {
			entries = append(entries, kv{ikey(i), make([]byte, valLen)})
		}
		return buildTree(t, 4096, entries)
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
	// page writes the header, the body, and a trailer with the count of
	// restart offsets the entry count asks for; the one offset of a page of
	// up to restartEvery entries points at its first entry.
	page := func(typ byte, cnt uint16, body ...byte) []byte {
		p := make([]byte, pageSize)
		p[0] = typ
		binary.BigEndian.PutUint16(p[1:], cnt)
		binary.BigEndian.PutUint32(p[3:], uint32(0xFFFFFFFF)) // next = noPage
		copy(p[pageHeaderSize:], body)
		first := pageHeaderSize
		if typ == nodeInterior {
			first += 4 * (int(cnt) + 1)
		}
		r := numRestarts(int(cnt))
		binary.BigEndian.PutUint16(p[pageSize-2:], uint16(r))
		if r == 1 {
			binary.BigEndian.PutUint16(p[pageSize-4:], uint16(first))
		}
		return p
	}
	// grouped is a leaf of 17 14-byte entries, two restart groups, whose
	// second restart offset is restart1. Each key is stored whole, and each
	// value's bytes read as a length running past the page.
	grouped := func(restart1 int) []byte {
		var body []byte
		for i := 0; i < 17; i++ {
			body = append(append(append(body, 0, 8), ikey(i)...), 3, 0xFF, 0xFF, 0x03)
		}
		p := page(nodeLeaf, 17, body...)
		binary.BigEndian.PutUint16(p[pageSize-6:], pageHeaderSize)
		binary.BigEndian.PutUint16(p[pageSize-4:], uint16(restart1))
		return p
	}
	entry16 := pageHeaderSize + 16*14
	// sharedAtRestart is grouped with entry 16, the second restart point,
	// sharing 7 bytes of entry 15's key: the binary search reads it.
	sharedAtRestart := grouped(entry16)
	copy(sharedAtRestart[entry16:], []byte{7, 1, 0x10})
	overlong := bytes.Repeat([]byte{0x80}, 11) // varint that never ends
	// A key that ends exactly where the trailer begins, so its value is
	// missing, and one that ends two bytes into the trailer.
	toTheEnd := append([]byte{0}, binary.AppendUvarint(nil, uint64(pageSize-pageHeaderSize-3-4))...)
	intoTrailer := append([]byte{0}, binary.AppendUvarint(nil, uint64(pageSize-pageHeaderSize-3-2))...)
	trailerPastPage := page(nodeLeaf, 1, 0, 1, 0, 1, 'v')
	binary.BigEndian.PutUint16(trailerPastPage[pageSize-2:], 0xFFFF)
	return map[string][]byte{
		"unknown type":                page(7, 1, 0, 1, 'k', 1, 'v'),
		"leaf count past page end":    page(nodeLeaf, 0xFFFF, 0, 1, 0, 1, 'v'),
		"leaf key length past end":    page(nodeLeaf, 1, 0, 0xFF, 0x7F, 'k'),
		"leaf value length past end":  page(nodeLeaf, 1, 0, 1, 0, 0xFF, 0xFF, 0x03),
		"leaf bad varint":             page(nodeLeaf, 1, overlong...),
		"leaf bad key varint":         page(nodeLeaf, 1, append([]byte{0}, overlong...)...),
		"leaf value missing at end":   page(nodeLeaf, 1, toTheEnd...),
		"leaf suffix into trailer":    page(nodeLeaf, 1, intoTrailer...),
		"leaf shares past its prefix": page(nodeLeaf, 2, append(append([]byte{0, 8}, ikey(1)...), 0, 9, 1, 'x', 0)...),
		"leaf shares at a restart":    sharedAtRestart,
		"interior children past end":  page(nodeInterior, 0xFFFF),
		"interior bad varint":         page(nodeInterior, 1, append([]byte{0, 0, 0, 2, 0, 0, 0, 3}, overlong...)...),
		"interior key past end":       page(nodeInterior, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0xFF, 0x7F),
		"interior child is meta page": page(nodeInterior, 0, 0, 0, 0, 0),
		"interior child negative":     page(nodeInterior, 0, 0xFF, 0xFF, 0xFF, 0xFE),
		"trailer count past page":     trailerPastPage,
		"restart into the header":     grouped(3),
		"restart past the body":       grouped(pageSize - 3),
		"restart in mid-entry":        grouped(entry16 + 11), // on the value's 0xFF 0xFF 0x03
	}
}

func TestCorruptPagesAreErrors(t *testing.T) {
	for name, img := range corruptions(512) {
		for _, asRoot := range []bool{true, false} {
			bt := rawTree(t)
			loadKeys(t, bt, 300)
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
			if n := bt.bc.Pinned(); n != 0 {
				t.Errorf("%s (root=%v): %d pages left pinned", name, asRoot, n)
			}
		}
	}
}

// ascending reports whether keys strictly increase.
func ascending(keys [][]byte) bool {
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			return false
		}
	}
	return true
}

// FuzzBTreePage feeds arbitrary page images to the in-place readers and to
// the validator's decoder. No reader may panic or slice past the page, and
// on a page the decoder accepts — trailer included — whose keys ascend,
// the readers agree with decodeNode and with a linear walk over its keys:
// the key-rebuilding cursor yields the same entries, from the start and
// from the restart group it seeks to; the in-place search finds the same
// first entry at or past the key, and its value; the interior descent
// picks the same child.
func FuzzBTreePage(f *testing.F) {
	leaf := newNode(nodeLeaf)
	leaf.keys = [][]byte{[]byte("a"), []byte("ab"), []byte("abc"), []byte("bb"), bytes.Repeat([]byte("c"), 200)}
	leaf.vals = [][]byte{nil, {0}, {1, 2}, []byte("v"), bytes.Repeat([]byte("w"), 130)}
	interior := newNode(nodeInterior)
	interior.keys = [][]byte{[]byte("f"), []byte("fg"), []byte("m")}
	interior.children = []int32{1, 2, 3, 4}
	wideLeaf, wideInterior := newNode(nodeLeaf), newNode(nodeInterior)
	wideInterior.children = []int32{1}
	for i := 0; i < 40; i++ {
		wideLeaf.keys, wideLeaf.vals = append(wideLeaf.keys, ikey(2*i)), append(wideLeaf.vals, []byte{byte(i)})
		wideInterior.keys, wideInterior.children = append(wideInterior.keys, ikey(2*i)), append(wideInterior.children, int32(i+2))
	}
	for _, n := range []*node{leaf, interior, wideLeaf, wideInterior} {
		buf := make([]byte, n.encodedSize())
		n.encode(buf)
		f.Add(buf, []byte("g"))
		f.Add(buf, []byte("ab"))
		f.Add(buf, ikey(33))
		f.Add(buf, ikey(34))
	}
	for _, img := range corruptions(512) {
		f.Add(img, ikey(150))
	}
	f.Fuzz(func(t *testing.T, page, key []byte) {
		page = page[:len(page):len(page)] // a read past the page panics
		child, childErr := childFor(page, key)
		// walk copies out what a cursor yields: it rebuilds keys in place.
		walk := func(from []byte) (keys, vals [][]byte, err error) {
			c, _, err := seekLeaf(page, from, nil)
			for err == nil {
				k, v, ok, e := c.next()
				if err = e; e != nil || !ok {
					break
				}
				keys, vals = append(keys, bytes.Clone(k)), append(vals, v)
			}
			return keys, vals, err
		}
		keys, vals, walkErr := walk(nil)
		sought, soughtVals, seekErr := walk(key)
		// The in-place search: the first entry at or past key, whether it
		// is key, and its value.
		var (
			at      int
			eq      bool
			val     []byte
			findErr error
		)
		if v, err := parsePage(page, nodeLeaf); err != nil {
			findErr = err
		} else {
			at, eq, val, findErr = v.find(key, true)
		}
		n, decErr := decodeNode(page)
		if decErr != nil || !ascending(n.keys) {
			return
		}
		switch n.typ {
		case nodeLeaf:
			if walkErr != nil || seekErr != nil || findErr != nil || len(keys) != len(n.keys) {
				t.Fatalf("in-place walk: %d entries, errors %v, %v, %v; decodeNode: %d entries", len(keys), walkErr, seekErr, findErr, len(n.keys))
			}
			for i := range keys {
				if !bytes.Equal(keys[i], n.keys[i]) || !bytes.Equal(vals[i], n.vals[i]) {
					t.Fatalf("entry %d differs between the in-place walk and decodeNode", i)
				}
			}
			i := 0
			for i < len(n.keys) && bytes.Compare(n.keys[i], key) < 0 {
				i++
			}
			// The sought walk starts on a restart point at or before entry i.
			from := len(keys) - len(sought)
			if from%restartEvery != 0 || from > i {
				t.Fatalf("seek to %x started at entry %d; the linear walk finds entry %d", key, from, i)
			}
			for j := range sought {
				if !bytes.Equal(sought[j], n.keys[from+j]) || !bytes.Equal(soughtVals[j], n.vals[from+j]) {
					t.Fatalf("entry %d differs between the sought walk and decodeNode", from+j)
				}
			}
			if at != i || eq != (i < len(n.keys) && bytes.Equal(n.keys[i], key)) || i < len(n.keys) && !bytes.Equal(val, n.vals[i]) {
				t.Fatalf("find(%x) = entry %d (equal %v); the linear walk finds entry %d of %d", key, at, eq, i, len(n.keys))
			}
		case nodeInterior:
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
