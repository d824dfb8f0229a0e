package btree

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestIteratorFullScan(t *testing.T) {
	bt := newTree(t, 256, 256)
	n := 1000
	load(t, bt, n, ikey, func(i int) []byte { return ikey(i * 2) })
	it := bt.NewIterator(nil, nil)
	count := 0
	prev := -1
	for ; it.Valid(); it.Next() {
		k := int(binary.BigEndian.Uint64(it.Key()))
		if k <= prev {
			t.Fatalf("out of order: %d after %d", k, prev)
		}
		if !bytes.Equal(it.Value(), ikey(k*2)) {
			t.Fatalf("value mismatch at %d", k)
		}
		prev = k
		count++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("visited %d of %d", count, n)
	}
}

func TestIteratorBounds(t *testing.T) {
	bt := newTree(t, 256, 256)
	loadKeys(t, bt, 500)
	it := bt.NewIterator(ikey(100), ikey(199))
	first, last, count := -1, -1, 0
	for ; it.Valid(); it.Next() {
		k := int(binary.BigEndian.Uint64(it.Key()))
		if first == -1 {
			first = k
		}
		last = k
		count++
	}
	if first != 100 || last != 199 || count != 100 {
		t.Fatalf("bounds: first=%d last=%d count=%d", first, last, count)
	}
}

func TestIteratorLoBetweenKeys(t *testing.T) {
	bt := newTree(t, 256, 64)
	tens := func(i int) []byte { return ikey(i * 10) }
	load(t, bt, 10, tens, tens)
	// lo = 15 (absent) must position at 20.
	it := bt.NewIterator(ikey(15), nil)
	if !it.Valid() {
		t.Fatal("iterator should be valid")
	}
	if k := int(binary.BigEndian.Uint64(it.Key())); k != 20 {
		t.Fatalf("positioned at %d, want 20", k)
	}
}

func TestIteratorEmptyTree(t *testing.T) {
	bt := newTree(t, 256, 16)
	it := bt.NewIterator(nil, nil)
	if it.Valid() {
		t.Fatal("empty tree iterator should be invalid")
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
}

func TestIteratorEmptyRange(t *testing.T) {
	bt := newTree(t, 256, 64)
	loadKeys(t, bt, 100)
	it := bt.NewIterator(ikey(500), ikey(600))
	if it.Valid() {
		t.Fatalf("range beyond data should be empty, got %x", it.Key())
	}
}

func TestIteratorAcrossEmptiedLeaves(t *testing.T) {
	bt := newTree(t, 256, 256)
	loadKeys(t, bt, 400)
	// Take a middle band of keys out of their leaves, leaving empty leaves
	// in the chain: the iterator must skip them.
	num, err := bt.findLeaf(nil)
	if err != nil {
		t.Fatal(err)
	}
	for num != noPage {
		n, err := bt.readNode(num)
		if err != nil {
			t.Fatal(err)
		}
		var keys, vals [][]byte
		for i, k := range n.keys {
			if x := binary.BigEndian.Uint64(k); x < 100 || x >= 300 {
				keys, vals = append(keys, k), append(vals, n.vals[i])
			}
		}
		bt.count -= int64(len(n.keys) - len(keys))
		n.keys, n.vals = keys, vals
		rewrite(t, bt, num, n)
		num = n.next
	}
	it := bt.NewIterator(ikey(50), ikey(350))
	var seen []int
	for ; it.Valid(); it.Next() {
		seen = append(seen, int(binary.BigEndian.Uint64(it.Key())))
	}
	want := 0
	for i := 50; i <= 350; i++ {
		if i < 100 || i >= 300 {
			want++
		}
	}
	if len(seen) != want {
		t.Fatalf("saw %d keys, want %d", len(seen), want)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatal("order violated across emptied leaves")
		}
	}
}

// TestIteratorSeek reads a sorted set of ranges with one iterator, seeking
// from each to the next whether or not the last has ended: each range
// yields exactly its keys, across leaves, and one past every key none.
func TestIteratorSeek(t *testing.T) {
	bt := newTree(t, 256, 256)
	tens := func(i int) []byte { return ikey(i * 10) }
	load(t, bt, 1000, tens, tens)
	it := bt.NewIterator(nil, ikey(-1))
	for _, rg := range []struct{ lo, hi, first, n int }{
		{15, 35, 20, 2},
		{36, 39, 0, 0},
		{40, 40, 40, 1},
		{41, 5000, 50, 496},
		{5001, 9995, 5010, 499},
		{10000, 20000, 0, 0},
	} {
		it.Seek(ikey(rg.lo), ikey(rg.hi))
		n := 0
		for ; it.Valid(); it.Next() {
			if k := int(binary.BigEndian.Uint64(it.Key())); k != rg.first+10*n {
				t.Fatalf("range [%d, %d]: key %d at %d", rg.lo, rg.hi, k, n)
			}
			n++
		}
		if n != rg.n || it.Err() != nil {
			t.Fatalf("range [%d, %d]: %d keys (err %v), want %d", rg.lo, rg.hi, n, it.Err(), rg.n)
		}
	}
}
