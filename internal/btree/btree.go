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
	sz := pageHeaderSize + 2
	var prev []byte
	for i, k := range n.keys {
		size, _ := keySize(i, prev, k)
		sz += size
		if n.typ == nodeLeaf {
			sz += chunkSize(n.vals[i])
		}
		prev = k
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
	w := pageWriter{buf: buf, pos: pageHeaderSize}
	if n.typ == nodeInterior {
		for _, c := range n.children {
			binary.BigEndian.PutUint32(buf[w.pos:], uint32(c))
			w.pos += 4
		}
	}
	var prev, val []byte
	for i, k := range n.keys {
		if n.typ == nodeLeaf {
			val = n.vals[i]
		}
		if !w.add(prev, k, val, n.typ == nodeLeaf) {
			panic("btree: node does not fit its page")
		}
		prev = k
	}
	w.finish(n.typ, n.next)
}

// decodeNode materialises a page for the validator, rebuilding every key.
// It checks what the in-place readers take on trust: every entry lies
// before the trailer, restart offset r points at entry r*restartEvery, and
// no entry shares more than its predecessor's key.
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
		shared, suffix, val, end, ok := v.entry(pos, i, n.typ == nodeLeaf)
		if !ok {
			return nil, fmt.Errorf("%w: entry %d does not decode, or shares a prefix at a restart point", errCorrupt, i)
		}
		prev := n.keys[max(i, 1)-1] // nil at entry 0, which shares nothing
		if shared > len(prev) {
			return nil, fmt.Errorf("%w: entry %d shares %d bytes of a %d-byte key", errCorrupt, i, shared, len(prev))
		}
		n.keys[i] = append(append(make([]byte, 0, shared+len(suffix)), prev[:shared]...), suffix...)
		pos = end
		if n.typ == nodeLeaf {
			n.vals[i] = append([]byte(nil), val...)
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
	v, err := parsePage(p.Data, nodeLeaf)
	if err != nil {
		return nil, false, err
	}
	_, eq, val, err := v.find(key, true)
	if err != nil || !eq {
		return nil, false, err
	}
	return append([]byte(nil), val...), true, nil
}

// Scan visits entries with lo <= key <= hi in order (nil bounds are
// unbounded). fn returning false stops the scan early. key and value are
// valid only until fn returns.
func (t *BTree) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	it := Iterator{t: t}
	for it.Seek(lo, hi); it.Valid(); it.Next() {
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
// until the next entry — its key compressed against the previous one, or
// whole with its restart offset when it starts a restart group — does not
// fit, and encoded once.
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
		// The leaf being filled, encoded as its entries arrive: next's pair
		// is good only until its following call.
		leaf     = pageWriter{buf: make([]byte, pageSize), pos: pageHeaderSize}
		prevLeaf = noPage
		pages    []int32  // finished pages at the current level
		seps     [][]byte // first key of each page, finished or being filled
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
		next := noPage
		if !last {
			next = num + 1
		}
		leaf.finish(nodeLeaf, next)
		copy(p.Data, leaf.buf)
		t.bc.Unpin(p, true)
		if prevLeaf != noPage && num != prevLeaf+1 {
			return fmt.Errorf("btree: bulk load is not the only writer of its file")
		}
		prevLeaf = num
		pages = append(pages, num)
		leaf.pos, leaf.cnt, leaf.restarts = pageHeaderSize, 0, leaf.restarts[:0]
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
		if len(k)+len(v) > t.MaxEntrySize() {
			return fmt.Errorf("btree: entry exceeds max size")
		}
		if !leaf.add(lastKey, k, v, true) {
			if err := writeLeaf(false); err != nil {
				return err
			}
			leaf.add(nil, k, v, true) // fits: an empty page holds MaxEntrySize
		}
		if leaf.cnt == 1 {
			seps = append(seps, append([]byte(nil), k...))
		}
		lastKey = append(lastKey[:0], k...)
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
			for i < len(pages) {
				// seps[i-1] is the node's last key, or firstSep when it has
				// none and seps[i] starts a restart group.
				sepSize, _ := keySize(len(in.keys), seps[i-1], seps[i])
				if size+4+sepSize > pageSize {
					break
				}
				size += 4 + sepSize
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
