// Package btree implements a paged B+tree over the storage buffer cache.
// Keys and values are opaque byte strings; keys compare with bytes.Compare
// (ADM values use adm.EncodeKey to obtain order-preserving key bytes).
//
// A tree is built once, bottom-up from sorted input by BulkLoad — the
// operation whose absence for linear hashing is the punchline of the
// paper's Section V-C — and only read after that: point search, ordered
// range scans via the leaf chain, and pull-style iterators. Every LSM disk
// component is such a tree; nothing updates one in place.
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
// meta page and an empty root leaf. Pages above maxPageSize are refused:
// a restart offset has 2 bytes.
func Open(bc *storage.BufferCache, file storage.FileID) (*BTree, error) {
	if ps := bc.FileManager().PageSize(); ps > maxPageSize {
		return nil, fmt.Errorf("btree: page size %d exceeds the %d bytes a restart offset addresses", ps, maxPageSize)
	}
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

// encodedSize returns the page bytes the node needs, trailer included.
func (n *node) encodedSize() int {
	sz := pageHeaderSize + 2 + 2*numRestarts(len(n.keys))
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

// encode writes the node into the page buf: entries from the front, the
// restart trailer at the end.
func (n *node) encode(buf []byte) {
	buf[0] = n.typ
	binary.BigEndian.PutUint16(buf[1:], uint16(len(n.keys)))
	binary.BigEndian.PutUint32(buf[3:], uint32(n.next))
	pos := pageHeaderSize
	if n.typ == nodeInterior {
		for _, c := range n.children {
			binary.BigEndian.PutUint32(buf[pos:], uint32(c))
			pos += 4
		}
	}
	r := numRestarts(len(n.keys))
	restarts := buf[len(buf)-2-2*r:]
	for i, k := range n.keys {
		if i%restartEvery == 0 {
			binary.BigEndian.PutUint16(restarts[2*(i/restartEvery):], uint16(pos))
		}
		pos += binary.PutUvarint(buf[pos:], uint64(len(k)))
		pos += copy(buf[pos:], k)
		if n.typ == nodeLeaf {
			pos += binary.PutUvarint(buf[pos:], uint64(len(n.vals[i])))
			pos += copy(buf[pos:], n.vals[i])
		}
	}
	binary.BigEndian.PutUint16(buf[len(buf)-2:], uint16(r))
}

// decodeNode materialises a page for the validator. It checks what the
// in-place readers take on trust: every entry lies before the trailer, and
// restart offset r points at entry r*restartEvery.
func decodeNode(buf []byte) (*node, error) {
	if len(buf) == 0 || (buf[0] != nodeLeaf && buf[0] != nodeInterior) {
		return nil, errCorrupt
	}
	v, err := parsePage(buf, buf[0])
	if err != nil {
		return nil, err
	}
	n := &node{typ: buf[0], next: v.next}
	if n.typ == nodeInterior {
		n.children = make([]int32, v.cnt+1)
		for i := range n.children {
			n.children[i] = int32(binary.BigEndian.Uint32(buf[pageHeaderSize+4*i:]))
		}
	}
	n.keys = make([][]byte, v.cnt)
	if n.typ == nodeLeaf {
		n.vals = make([][]byte, v.cnt)
	}
	pos := v.first
	for i := 0; i < v.cnt; i++ {
		if i%restartEvery == 0 {
			if off, err := v.restart(i / restartEvery); err != nil || off != pos {
				return nil, fmt.Errorf("%w: restart %d does not point at entry %d", errCorrupt, i/restartEvery, i)
			}
		}
		k, end, ok := readChunk(v.buf, pos)
		if !ok {
			return nil, errCorrupt
		}
		n.keys[i] = append([]byte(nil), k...)
		pos = end
		if n.typ == nodeLeaf {
			val, end, ok := readChunk(v.buf, pos)
			if !ok {
				return nil, errCorrupt
			}
			n.vals[i] = append([]byte(nil), val...)
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
	c, _, err := seekLeaf(p.Data, key)
	if err != nil {
		return nil, false, err
	}
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
// linear hashing, and the only way a tree is written: every page is filled
// until the next entry — with its restart offset, when it starts a restart
// group — does not fit, and encoded once.
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
	const emptySize = pageHeaderSize + 2 // a page without entries: header and restart count

	var (
		leaf     = newNode(nodeLeaf)
		leafSize = emptySize // leaf.encodedSize(), kept as entries are added
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
		leaf.keys, leaf.vals, leafBuf, leafSize = leaf.keys[:0], leaf.vals[:0], leafBuf[:0], emptySize
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
		if leafSize+entrySize+restartCost(len(leaf.keys)) > pageSize {
			if err := writeLeaf(false); err != nil {
				return err
			}
		}
		leafSize += entrySize + restartCost(len(leaf.keys))
		leafBuf = append(append(leafBuf, k...), v...)
		kv := leafBuf[len(leafBuf)-len(k)-len(v):]
		leaf.keys = append(leaf.keys, kv[:len(k):len(k)])
		leaf.vals = append(leaf.vals, kv[len(k):])
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
			size := emptySize + 4 // in.encodedSize(), kept as children are added
			firstSep := seps[i]
			i++
			for i < len(pages) && size+4+chunkSize(seps[i])+restartCost(len(in.keys)) <= pageSize {
				size += 4 + chunkSize(seps[i]) + restartCost(len(in.keys))
				in.keys = append(in.keys, seps[i])
				in.children = append(in.children, pages[i])
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
