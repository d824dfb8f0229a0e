package btree

import (
	"bytes"
	"math/rand"
	"testing"
)

// treeLevels returns the tree's nodes level by level, root level first,
// each level left to right.
func treeLevels(t *testing.T, bt *BTree) [][]*node {
	t.Helper()
	root, err := bt.readNode(bt.root)
	if err != nil {
		t.Fatal(err)
	}
	levels := [][]*node{{root}}
	for levels[len(levels)-1][0].typ == nodeInterior {
		var below []*node
		for _, n := range levels[len(levels)-1] {
			for _, c := range n.children {
				cn, err := bt.readNode(c)
				if err != nil {
					t.Fatal(err)
				}
				below = append(below, cn)
			}
		}
		levels = append(levels, below)
	}
	return levels
}

// rewrite encodes n over page num. No production code rewrites a page:
// tests use it to damage a tree or to empty its leaves.
func rewrite(t testing.TB, bt *BTree, num int32, n *node) {
	t.Helper()
	p, err := bt.bc.Pin(bt.pageID(num))
	if err != nil {
		t.Fatal(err)
	}
	n.encode(p.Data)
	bt.bc.Unpin(p, true)
}

// entrySize returns the page bytes key k adds as n's next key.
func entrySize(n *node, k []byte) int {
	var prev []byte
	if len(n.keys) > 0 {
		prev = n.keys[len(n.keys)-1]
	}
	size, _ := keySize(len(n.keys), prev, k)
	return size
}

// loadPages builds a tree bottom-up like BulkLoad, with the same page
// encoding, but closes a page — leaf or interior — as soon as full says so
// or its next entry does not fit. Tests use it for page shapes BulkLoad's
// packing never makes: a set number of entries per page, or the
// nine-tenths fill components were once built at.
func loadPages(t testing.TB, bt *BTree, entries []kv, full func(*node) bool) {
	t.Helper()
	pageSize := bt.bc.FileManager().PageSize()
	var leaves []*node
	leaf := newNode(nodeLeaf)
	for _, e := range entries {
		if len(leaf.keys) > 0 && (full(leaf) || leaf.encodedSize()+entrySize(leaf, e.k)+chunkSize(e.v) > pageSize) {
			leaves, leaf = append(leaves, leaf), newNode(nodeLeaf)
		}
		leaf.keys, leaf.vals = append(leaf.keys, e.k), append(leaf.vals, e.v)
	}
	if len(leaf.keys) > 0 {
		leaves = append(leaves, leaf)
	}
	var pages []int32
	var seps [][]byte
	for i := len(leaves) - 1; i >= 0; i-- { // right to left: a leaf links to one already written
		if i+1 < len(leaves) {
			leaves[i].next = pages[0]
		}
		num, err := bt.allocNode(leaves[i])
		if err != nil {
			t.Fatal(err)
		}
		pages, seps = append([]int32{num}, pages...), append([][]byte{leaves[i].keys[0]}, seps...)
	}
	height := int32(1)
	for ; len(pages) > 1; height++ {
		var nextPages []int32
		var nextSeps [][]byte
		for i := 0; i < len(pages); {
			in := newNode(nodeInterior)
			in.children = []int32{pages[i]}
			first := seps[i]
			for i++; i < len(pages) && !full(in) && in.encodedSize()+4+entrySize(in, seps[i]) <= pageSize; i++ {
				in.keys, in.children = append(in.keys, seps[i]), append(in.children, pages[i])
			}
			num, err := bt.allocNode(in)
			if err != nil {
				t.Fatal(err)
			}
			nextPages, nextSeps = append(nextPages, num), append(nextSeps, first)
		}
		pages, seps = nextPages, nextSeps
	}
	bt.root, bt.height, bt.count = pages[0], height, int64(len(entries))
	mp, err := bt.bc.Pin(bt.pageID(metaPage))
	if err != nil {
		t.Fatal(err)
	}
	bt.writeMeta(mp.Data)
	bt.bc.Unpin(mp, true)
}

// leafFill returns the share of the tree's leaf pages that entries and
// their trailers occupy.
func leafFill(t *testing.T, bt *BTree) float64 {
	levels := treeLevels(t, bt)
	used := 0
	leaves := levels[len(levels)-1]
	for _, n := range leaves {
		used += n.encodedSize()
	}
	return float64(used) / float64(len(leaves)*bt.bc.FileManager().PageSize())
}

// A bulk-loaded tree is never inserted into, so no page but the last of its
// level has room for the entry that follows it; reads agree with the input;
// and a tree built at the old nine-tenths target, which has the same node
// encoding, merges with a packed one.
func TestBulkLoadPacksPages(t *testing.T) {
	const pageSize = 512
	r := rand.New(rand.NewSource(29))
	entries := randomEntries(r, 3000, (pageSize-16)/4) // up to a quarter page each
	bt := buildTree(t, pageSize, entries)

	levels := treeLevels(t, bt)
	if len(levels) < 3 {
		t.Fatalf("tree has %d levels, want interior pages above interior pages", len(levels))
	}
	// minKey[l][i] is the lowest key under node i of level l: what its
	// parent level holds as the separator before it.
	minKey := make([][][]byte, len(levels))
	for l := len(levels) - 1; l >= 0; l-- {
		child := 0
		for _, n := range levels[l] {
			if n.typ == nodeLeaf {
				minKey[l] = append(minKey[l], n.keys[0])
				continue
			}
			minKey[l] = append(minKey[l], minKey[l+1][child])
			child += len(n.children)
		}
	}
	for l, nodes := range levels {
		for i, n := range nodes[:len(nodes)-1] {
			// The following entry, compressed against the page's last key or
			// with the restart offset it would add: for an interior page a
			// child and a separator.
			following := 4 + entrySize(n, minKey[l][i+1])
			if n.typ == nodeLeaf {
				nx := nodes[i+1]
				following = entrySize(n, nx.keys[0]) + chunkSize(nx.vals[0])
			}
			if n.encodedSize()+following <= pageSize {
				t.Fatalf("level %d page %d of %d: %d bytes used, the following entry of %d bytes would fit",
					l, i, len(nodes), n.encodedSize(), following)
			}
		}
	}

	if err := bt.Validate(); err != nil {
		t.Fatal(err)
	}
	oracle := map[string][]byte{}
	for _, e := range entries {
		oracle[string(e.k)] = e.v
	}
	for k, want := range oracle {
		if v, ok, err := bt.Search([]byte(k)); err != nil || !ok || !bytes.Equal(v, want) {
			t.Fatalf("Search(%x): ok=%v err=%v", k, ok, err)
		}
	}
	n := 0
	it := bt.NewIterator(nil, nil)
	for ; it.Valid(); it.Next() {
		if want, ok := oracle[string(it.Key())]; !ok || !bytes.Equal(it.Value(), want) || !bytes.Equal(it.Key(), entries[n].k) {
			t.Fatalf("iterator entry %d: key %x", n, it.Key())
		}
		n++
	}
	if it.Err() != nil || n != len(entries) {
		t.Fatalf("iterator saw %d of %d entries, err %v", n, len(entries), it.Err())
	}

	// Every other entry goes to a tree with the old layout, under another
	// value; merged newest first, the old tree's entries win their keys.
	var older []kv
	for i := 0; i < len(entries); i += 2 {
		v := bytes.Clone(entries[i].v) // as long as the entry allows
		for j := range v {
			v[j] ^= 0xFF
		}
		older = append(older, kv{entries[i].k, v})
		oracle[string(entries[i].k)] = v
	}
	old := newTree(t, pageSize, 256)
	loadPages(t, old, older, func(n *node) bool { return n.encodedSize() >= pageSize*9/10 })
	if err := old.Validate(); err != nil {
		t.Fatal(err)
	}
	if f := leafFill(t, old); f > 0.97 {
		t.Fatalf("old-layout helper packed its leaves %.3f full", f)
	}
	merged := newTree(t, pageSize, 256)
	a, b := old.NewIterator(nil, nil), bt.NewIterator(nil, nil)
	err := merged.BulkLoad(func() ([]byte, []byte, bool) {
		switch {
		case !a.Valid() && !b.Valid():
			return nil, nil, false
		case !b.Valid() || (a.Valid() && bytes.Compare(a.Key(), b.Key()) <= 0):
			k, v := append([]byte(nil), a.Key()...), append([]byte(nil), a.Value()...)
			if b.Valid() && bytes.Equal(b.Key(), k) {
				b.Next()
			}
			a.Next()
			return k, v, true
		default:
			k, v := append([]byte(nil), b.Key()...), append([]byte(nil), b.Value()...)
			b.Next()
			return k, v, true
		}
	})
	if err != nil || a.Err() != nil || b.Err() != nil {
		t.Fatal(err, a.Err(), b.Err())
	}
	if merged.Count() != int64(len(entries)) {
		t.Fatalf("merged tree has %d entries, want %d", merged.Count(), len(entries))
	}
	for k, want := range oracle {
		if v, ok, err := merged.Search([]byte(k)); err != nil || !ok || !bytes.Equal(v, want) {
			t.Fatalf("merged Search(%x) = %q, %v, %v; want %q", k, v, ok, err, want)
		}
	}
	if f := leafFill(t, merged); f < 0.9 {
		t.Errorf("merged leaves are %.3f full", f)
	}
}
