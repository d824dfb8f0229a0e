// Package btree implements a paged B+tree over the storage buffer cache.
// Keys and values are opaque byte strings; keys compare with bytes.Compare
// (ADM values use adm.EncodeKey to obtain order-preserving key bytes).
//
// The tree supports point search, upserting insert, delete (lazy: leaves
// may underflow without rebalancing, as many production systems allow),
// ordered range scans via the leaf chain, and bottom-up bulk loading from
// sorted input — the operation whose absence for linear hashing is the
// punchline of the paper's Section V-C.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"asterix/internal/check"
	"asterix/internal/storage"
)

const (
	nodeInterior = 0
	nodeLeaf     = 1

	metaPage = int32(0)
	noPage   = int32(-1)
)

// BTree is a B+tree stored in one page file.
type BTree struct {
	bc   *storage.BufferCache
	file storage.FileID

	root   int32
	height int32
	count  int64
}

// Open opens (or initializes) a B+tree in the file. A fresh file gets a
// meta page and an empty root leaf.
func Open(bc *storage.BufferCache, file storage.FileID) (*BTree, error) {
	t := &BTree{bc: bc, file: file}
	n, err := bc.FileManager().NumPages(file)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		mp, err := bc.NewPage(file)
		if err != nil {
			return nil, err
		}
		rp, err := bc.NewPage(file)
		if err != nil {
			bc.Unpin(mp, false)
			return nil, err
		}
		root := newNode(nodeLeaf)
		root.next = noPage
		root.encode(rp.Data)
		t.root = rp.ID.Num
		t.height = 1
		t.writeMeta(mp.Data)
		bc.Unpin(rp, true)
		bc.Unpin(mp, true)
		return t, nil
	}
	mp, err := bc.Pin(storage.PageID{File: file, Num: metaPage})
	if err != nil {
		return nil, err
	}
	t.root = int32(binary.BigEndian.Uint32(mp.Data[0:]))
	t.height = int32(binary.BigEndian.Uint32(mp.Data[4:]))
	t.count = int64(binary.BigEndian.Uint64(mp.Data[8:]))
	bc.Unpin(mp, false)
	return t, nil
}

func (t *BTree) writeMeta(buf []byte) {
	binary.BigEndian.PutUint32(buf[0:], uint32(t.root))
	binary.BigEndian.PutUint32(buf[4:], uint32(t.height))
	binary.BigEndian.PutUint64(buf[8:], uint64(t.count))
}

func (t *BTree) syncMeta() error {
	mp, err := t.bc.Pin(storage.PageID{File: t.file, Num: metaPage})
	if err != nil {
		return err
	}
	t.writeMeta(mp.Data)
	t.bc.Unpin(mp, true)
	return nil
}

// Count returns the number of live entries.
func (t *BTree) Count() int64 { return t.count }

// Height returns the tree height in levels (1 = single leaf).
func (t *BTree) Height() int32 { return t.height }

// MaxEntrySize returns the largest key+value size the tree accepts.
func (t *BTree) MaxEntrySize() int {
	return (t.bc.FileManager().PageSize() - 16) / 4
}

// node is the decoded form of a page.
type node struct {
	typ      byte
	next     int32    // leaf: next-leaf page (noPage if none)
	keys     [][]byte // leaf: entry keys; interior: separators
	vals     [][]byte // leaf only
	children []int32  // interior only, len = len(keys)+1
}

func newNode(typ byte) *node { return &node{typ: typ, next: noPage} }

// encodedSize returns the page bytes the node needs.
func (n *node) encodedSize() int {
	sz := pageHeaderSize
	for i, k := range n.keys {
		sz += chunkSize(k)
		if n.typ == nodeLeaf {
			sz += chunkSize(n.vals[i])
		}
	}
	if n.typ == nodeInterior {
		sz += 4 * len(n.children)
	}
	return sz
}

// chunkSize returns the encoded size of one length-prefixed byte string.
func chunkSize(b []byte) int { return uvarintLen(uint64(len(b))) + len(b) }

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func (n *node) encode(buf []byte) {
	buf[0] = n.typ
	binary.BigEndian.PutUint16(buf[1:], uint16(len(n.keys)))
	binary.BigEndian.PutUint32(buf[3:], uint32(n.next))
	pos := 7
	if n.typ == nodeInterior {
		for _, c := range n.children {
			binary.BigEndian.PutUint32(buf[pos:], uint32(c))
			pos += 4
		}
	}
	for i, k := range n.keys {
		pos += binary.PutUvarint(buf[pos:], uint64(len(k)))
		pos += copy(buf[pos:], k)
		if n.typ == nodeLeaf {
			pos += binary.PutUvarint(buf[pos:], uint64(len(n.vals[i])))
			pos += copy(buf[pos:], n.vals[i])
		}
	}
}

// decodeNode materialises a page for the write side (insert, delete) and
// the validator; reads go through page.go.
func decodeNode(buf []byte) (*node, error) {
	if len(buf) < pageHeaderSize {
		return nil, errCorrupt
	}
	cnt, next, pos, err := pageHeader(buf, buf[0])
	if err != nil {
		return nil, err
	}
	n := &node{typ: buf[0], next: next}
	if n.typ == nodeInterior {
		n.children = make([]int32, cnt+1)
		for i := range n.children {
			n.children[i] = int32(binary.BigEndian.Uint32(buf[pageHeaderSize+4*i:]))
		}
	}
	n.keys = make([][]byte, cnt)
	if n.typ == nodeLeaf {
		n.vals = make([][]byte, cnt)
	}
	for i := 0; i < cnt; i++ {
		k, end, ok := readChunk(buf, pos)
		if !ok {
			return nil, errCorrupt
		}
		n.keys[i] = append([]byte(nil), k...)
		pos = end
		if n.typ == nodeLeaf {
			v, end, ok := readChunk(buf, pos)
			if !ok {
				return nil, errCorrupt
			}
			n.vals[i] = append([]byte(nil), v...)
			pos = end
		}
	}
	return n, nil
}

func (t *BTree) pageID(num int32) storage.PageID {
	return storage.PageID{File: t.file, Num: num}
}

func (t *BTree) readNode(num int32) (*node, error) {
	p, err := t.bc.Pin(t.pageID(num))
	if err != nil {
		return nil, err
	}
	n, err := decodeNode(p.Data)
	t.bc.Unpin(p, false)
	return n, err
}

func (t *BTree) writeNode(num int32, n *node) error {
	p, err := t.bc.Pin(storage.PageID{File: t.file, Num: num})
	if err != nil {
		return err
	}
	n.encode(p.Data)
	t.bc.Unpin(p, true)
	return nil
}

func (t *BTree) allocNode(n *node) (int32, error) {
	p, err := t.bc.NewPage(t.file)
	if err != nil {
		return 0, err
	}
	n.encode(p.Data)
	num := p.ID.Num
	t.bc.Unpin(p, true)
	return num, nil
}

// childIndex returns the index of the child to follow for key.
func (n *node) childIndex(key []byte) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(key, n.keys[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// leafIndex returns the insertion position of key and whether it is present.
func (n *node) leafIndex(key []byte) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(n.keys[mid], key) {
		case -1:
			lo = mid + 1
		case 1:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// Search returns a copy of the value stored under key. The leaf is
// searched in place while pinned; the copy is the only allocation.
func (t *BTree) Search(key []byte) ([]byte, bool, error) {
	num, err := t.findLeaf(key)
	if err != nil {
		return nil, false, err
	}
	p, err := t.bc.Pin(t.pageID(num))
	if err != nil {
		return nil, false, err
	}
	defer t.bc.Unpin(p, false)
	cnt, _, pos, err := pageHeader(p.Data, nodeLeaf)
	if err != nil {
		return nil, false, err
	}
	c := leafCursor{buf: p.Data, pos: pos, left: cnt}
	for {
		k, v, ok, err := c.next()
		if err != nil || !ok {
			return nil, false, err
		}
		switch bytes.Compare(k, key) {
		case 0:
			return append([]byte(nil), v...), true, nil
		case 1:
			return nil, false, nil
		}
	}
}

// Insert upserts key → value.
func (t *BTree) Insert(key, value []byte) error {
	if len(key)+len(value) > t.MaxEntrySize() {
		return fmt.Errorf("btree: entry of %d bytes exceeds max %d", len(key)+len(value), t.MaxEntrySize())
	}
	sepKey, newChild, replaced, err := t.insertAt(t.root, t.height, key, value)
	if err != nil {
		return err
	}
	if newChild != noPage {
		// Root split: new root with two children.
		nr := newNode(nodeInterior)
		nr.keys = [][]byte{sepKey}
		nr.children = []int32{t.root, newChild}
		num, err := t.allocNode(nr)
		if err != nil {
			return err
		}
		t.root = num
		t.height++
	}
	if !replaced {
		t.count++
	}
	return t.syncMeta()
}

// insertAt inserts into the subtree rooted at page num at the given level.
// On split it returns the separator key and new right-sibling page.
func (t *BTree) insertAt(num int32, level int32, key, value []byte) (sep []byte, newPage int32, replaced bool, err error) {
	n, err := t.readNode(num)
	if err != nil {
		return nil, noPage, false, err
	}
	if (level == 1) != (n.typ == nodeLeaf) {
		return nil, noPage, false, errCorrupt
	}
	if level == 1 {
		i, found := n.leafIndex(key)
		if found {
			n.vals[i] = value
			replaced = true
		} else {
			n.keys = append(n.keys, nil)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = append([]byte(nil), key...)
			n.vals = append(n.vals, nil)
			copy(n.vals[i+1:], n.vals[i:])
			n.vals[i] = append([]byte(nil), value...)
		}
		return t.finishInsert(num, n, replaced)
	}
	ci := n.childIndex(key)
	childSep, childNew, replaced, err := t.insertAt(n.children[ci], level-1, key, value)
	if err != nil {
		return nil, noPage, false, err
	}
	if childNew == noPage {
		return nil, noPage, replaced, nil
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = childSep
	n.children = append(n.children, 0)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = childNew
	return t.finishInsert(num, n, replaced)
}

// finishInsert writes the node back, splitting if it no longer fits.
func (t *BTree) finishInsert(num int32, n *node, replaced bool) ([]byte, int32, bool, error) {
	pageSize := t.bc.FileManager().PageSize()
	if n.encodedSize() <= pageSize {
		return nil, noPage, replaced, t.writeNode(num, n)
	}
	mid := len(n.keys) / 2
	right := newNode(n.typ)
	var sep []byte
	if n.typ == nodeLeaf {
		right.keys = append(right.keys, n.keys[mid:]...)
		right.vals = append(right.vals, n.vals[mid:]...)
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		sep = append([]byte(nil), right.keys[0]...)
		right.next = n.next
	} else {
		// Interior: separator moves up, not into the right node.
		sep = append([]byte(nil), n.keys[mid]...)
		right.keys = append(right.keys, n.keys[mid+1:]...)
		right.children = append(right.children, n.children[mid+1:]...)
		n.keys = n.keys[:mid]
		n.children = n.children[:mid+1]
	}
	rNum, err := t.allocNode(right)
	if err != nil {
		return nil, noPage, false, err
	}
	if n.typ == nodeLeaf {
		n.next = rNum
	}
	if err := t.writeNode(num, n); err != nil {
		return nil, noPage, false, err
	}
	return sep, rNum, replaced, nil
}

// Delete removes key, reporting whether it was present. Leaves may
// underflow; they are not merged (lazy deletion).
func (t *BTree) Delete(key []byte) (bool, error) {
	num, err := t.findLeaf(key)
	if err != nil {
		return false, err
	}
	leaf, err := t.readNode(num)
	if err != nil {
		return false, err
	}
	if leaf.typ != nodeLeaf {
		return false, errCorrupt
	}
	i, found := leaf.leafIndex(key)
	if !found {
		return false, nil
	}
	leaf.keys = append(leaf.keys[:i], leaf.keys[i+1:]...)
	leaf.vals = append(leaf.vals[:i], leaf.vals[i+1:]...)
	if err := t.writeNode(num, leaf); err != nil {
		return false, err
	}
	t.count--
	return true, t.syncMeta()
}

// Scan visits entries with lo <= key <= hi in order (nil bounds are
// unbounded). fn returning false stops the scan early. key and value are
// valid only until fn returns.
func (t *BTree) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	var it Iterator
	for it.seek(t, lo, hi); it.Valid(); it.Next() {
		if !fn(it.key, it.val) {
			return nil
		}
	}
	return it.err
}

// BulkLoad builds the tree bottom-up from strictly-ascending (key, value)
// pairs supplied by next (which returns ok=false at end; a pair need only
// stay valid until the following call to next). The tree must be empty.
// This is the efficient sorted-load path that Section V-C contrasts with
// linear hashing. What it builds is never inserted into (an LSM disk
// component): every page is filled until the next entry does not fit, and
// encoded once.
func (t *BTree) BulkLoad(next func() (key, value []byte, ok bool)) error {
	if t.count != 0 {
		return fmt.Errorf("btree: bulk load into non-empty tree")
	}
	// The meta page stays pinned to the end, so it too is written once.
	mp, err := t.bc.Pin(t.pageID(metaPage))
	if err != nil {
		return err
	}
	defer func() {
		t.writeMeta(mp.Data)
		t.bc.Unpin(mp, true)
	}()
	pageSize := t.bc.FileManager().PageSize()

	var (
		leaf     = newNode(nodeLeaf)
		leafSize = pageHeaderSize // leaf.encodedSize(), kept as entries are added
		// The leaf's keys and values, copied once each: next's pair is good
		// only until its following call. Emptied when the leaf is written.
		leafBuf  = make([]byte, 0, pageSize)
		prevLeaf = noPage
		pages    []int32  // finished pages at the current level
		seps     [][]byte // first key of each finished page
		total    int64
		lastKey  []byte
	)

	// writeLeaf writes the leaf out, encoded once: the loader is its file's
	// only writer and allocates nothing between two leaves, so a leaf that
	// has a successor links to the page after its own.
	writeLeaf := func(last bool) error {
		p, err := t.bc.NewPage(t.file)
		if err != nil {
			return err
		}
		num := p.ID.Num
		if leaf.next = noPage; !last {
			leaf.next = num + 1
		}
		leaf.encode(p.Data)
		t.bc.Unpin(p, true)
		if prevLeaf != noPage && num != prevLeaf+1 {
			return fmt.Errorf("btree: bulk load is not the only writer of its file")
		}
		prevLeaf = num
		pages = append(pages, num)
		seps = append(seps, append([]byte(nil), leaf.keys[0]...))
		leaf.keys, leaf.vals, leafBuf, leafSize = leaf.keys[:0], leaf.vals[:0], leafBuf[:0], pageHeaderSize
		return nil
	}

	for {
		k, v, ok := next()
		if !ok {
			break
		}
		if lastKey != nil && bytes.Compare(k, lastKey) <= 0 {
			return fmt.Errorf("btree: bulk load input not strictly ascending")
		}
		lastKey = append(lastKey[:0], k...)
		if len(k)+len(v) > t.MaxEntrySize() {
			return fmt.Errorf("btree: entry exceeds max size")
		}
		entrySize := chunkSize(k) + chunkSize(v)
		if leafSize+entrySize > pageSize {
			if err := writeLeaf(false); err != nil {
				return err
			}
		}
		leafBuf = append(append(leafBuf, k...), v...)
		kv := leafBuf[len(leafBuf)-len(k)-len(v):]
		leaf.keys = append(leaf.keys, kv[:len(k):len(k)])
		leaf.vals = append(leaf.vals, kv[len(k):])
		leafSize += entrySize
		total++
	}
	if total == 0 {
		return nil
	}
	if err := writeLeaf(true); err != nil {
		return err
	}

	// Build interior levels until a single page remains.
	height := int32(1)
	for len(pages) > 1 {
		var nextPages []int32
		var nextSeps [][]byte
		i := 0
		for i < len(pages) {
			in := newNode(nodeInterior)
			in.children = []int32{pages[i]}
			size := pageHeaderSize + 4 // in.encodedSize(), kept as children are added
			firstSep := seps[i]
			i++
			for i < len(pages) && size+4+chunkSize(seps[i]) <= pageSize {
				in.keys = append(in.keys, seps[i])
				in.children = append(in.children, pages[i])
				size += 4 + chunkSize(seps[i])
				i++
			}
			num, err := t.allocNode(in)
			if err != nil {
				return err
			}
			nextPages = append(nextPages, num)
			nextSeps = append(nextSeps, firstSep)
		}
		pages, seps = nextPages, nextSeps
		height++
	}
	t.root = pages[0]
	t.height = height
	t.count = total
	// Deep structural walk of the freshly built tree in invariant builds.
	return check.Run(t)
}
