package btree

import (
	"bytes"
	"fmt"
)

// Validate walks the entire tree and verifies its deep structural
// invariants:
//
//   - every page decodes: its entries lie before its trailer, the trailer
//     holds one restart offset per restartEvery entries, offset r points
//     at entry r*restartEvery, the entry there shares no prefix, and no
//     other entry shares more than the previous key's length;
//   - every node's keys are strictly increasing;
//   - every key lies within the separator bounds inherited from its
//     ancestors (child i of an interior node holds keys k with
//     keys[i-1] <= k < keys[i]);
//   - interior nodes have exactly len(keys)+1 children; leaves have
//     exactly one value per key;
//   - every leaf sits at depth == Height() (uniform depth);
//   - the leaf sibling chain visits exactly the in-order leaves and
//     terminates;
//   - every node re-encodes within the page size;
//   - the meta entry count matches the number of leaf entries.
//
// No minimum occupancy is enforced: the last page of a level may hold a
// single entry. Validate is O(n) and intended for tests and the check
// framework's opt-in production hooks, not the hot path.
func (t *BTree) Validate() error {
	pageSize := t.bc.FileManager().PageSize()
	if t.height < 1 {
		return fmt.Errorf("btree: height %d < 1", t.height)
	}

	type leafLink struct {
		num  int32
		next int32
	}
	var leaves []leafLink
	var entries int64

	var walk func(num, depth int32, lo, hi []byte) error
	walk = func(num, depth int32, lo, hi []byte) error {
		n, err := t.readNode(num)
		if err != nil {
			return fmt.Errorf("btree: node %d: %w", num, err)
		}
		if sz := n.encodedSize(); sz > pageSize {
			return fmt.Errorf("btree: node %d encodes to %d bytes, page size is %d", num, sz, pageSize)
		}
		for i := 1; i < len(n.keys); i++ {
			if bytes.Compare(n.keys[i-1], n.keys[i]) >= 0 {
				return fmt.Errorf("btree: node %d keys not strictly increasing at index %d", num, i)
			}
		}
		for i, k := range n.keys {
			if lo != nil && bytes.Compare(k, lo) < 0 {
				return fmt.Errorf("btree: node %d key %d below its subtree's lower bound", num, i)
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return fmt.Errorf("btree: node %d key %d not below its subtree's upper bound", num, i)
			}
		}
		if n.typ == nodeLeaf {
			if depth != t.height {
				return fmt.Errorf("btree: leaf %d at depth %d, want uniform depth %d", num, depth, t.height)
			}
			if len(n.vals) != len(n.keys) {
				return fmt.Errorf("btree: leaf %d has %d keys but %d values", num, len(n.keys), len(n.vals))
			}
			entries += int64(len(n.keys))
			leaves = append(leaves, leafLink{num: num, next: n.next})
			return nil
		}
		if depth >= t.height {
			return fmt.Errorf("btree: interior node %d at depth %d >= height %d", num, depth, t.height)
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("btree: interior node %d has %d keys but %d children", num, len(n.keys), len(n.children))
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = n.keys[i]
			}
			if err := walk(c, depth+1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1, nil, nil); err != nil {
		return err
	}

	for i, l := range leaves {
		want := noPage
		if i+1 < len(leaves) {
			want = leaves[i+1].num
		}
		if l.next != want {
			return fmt.Errorf("btree: leaf %d links to %d, want %d (in-order chain)", l.num, l.next, want)
		}
	}
	if entries != t.count {
		return fmt.Errorf("btree: meta count %d but leaves hold %d entries", t.count, entries)
	}
	return nil
}
