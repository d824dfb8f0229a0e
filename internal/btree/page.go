package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
)

// The read path works on a page's encoded bytes where they lie. Entries
// are variable-length, so a page ends in a sparse slot directory: its
// trailer holds the 2-byte offset of every restartEvery-th entry (the
// restart points), then the number of those offsets. A lookup binary-
// searches the restart points, and walks from the one it picks; key order
// stops the walk at the first entry past its target, at most restartEvery
// entries on. Nothing is allocated per entry or per page.
//
// A page is laid out as
//
//	type (1) | count (2) | next leaf (4) | interior: count+1 children (4 each)
//	entries: a key chunk (leaf: then a value chunk), each a uvarint length and bytes
//	free space
//	restart offsets (2 each) | number of restart offsets (2)

const (
	pageHeaderSize = 1 + 2 + 4 // type, count, next
	restartEvery   = 16
	// maxPageSize is the largest page a 2-byte restart offset addresses.
	maxPageSize = 1 << 16
)

var errCorrupt = errors.New("btree: corrupt node")

// numRestarts returns how many restart points a page of cnt entries has.
func numRestarts(cnt int) int { return (cnt + restartEvery - 1) / restartEvery }

// restartCost returns the trailer bytes entry i of a page adds: one
// offset when it starts a restart group.
func restartCost(i int) int {
	if i%restartEvery == 0 {
		return 2
	}
	return 0
}

// view is a parsed page: its entries start at first, buf ends where the
// trailer begins, and restarts holds the trailer's offsets.
type view struct {
	buf      []byte
	cnt      int
	next     int32
	first    int
	restarts []byte
}

// parsePage bounds-checks a page's header and trailer.
func parsePage(buf []byte, wantType byte) (view, error) {
	if len(buf) < pageHeaderSize+2 || buf[0] != wantType {
		return view{}, errCorrupt
	}
	v := view{
		cnt:   int(binary.BigEndian.Uint16(buf[1:])),
		next:  int32(binary.BigEndian.Uint32(buf[3:])),
		first: pageHeaderSize,
	}
	if wantType == nodeInterior {
		v.first += 4 * (v.cnt + 1)
	}
	r := int(binary.BigEndian.Uint16(buf[len(buf)-2:]))
	end := len(buf) - 2 - 2*r
	if r != numRestarts(v.cnt) || end < v.first {
		return view{}, errCorrupt
	}
	v.buf, v.restarts = buf[:end], buf[end:len(buf)-2]
	return v, nil
}

// restart returns the offset of entry j*restartEvery.
func (v *view) restart(j int) (int, error) {
	off := int(binary.BigEndian.Uint16(v.restarts[2*j:]))
	if off < v.first || off >= len(v.buf) {
		return 0, errCorrupt
	}
	return off, nil
}

// seek returns the offset and index of the first entry of the restart
// group that would hold key: the last group whose first key is <= key, or
// the first group (for a nil key too).
func (v *view) seek(key []byte) (pos, idx int, err error) {
	lo, hi := 1, len(v.restarts)/2
	for key != nil && lo < hi {
		mid := (lo + hi) / 2
		off, err := v.restart(mid)
		if err != nil {
			return 0, 0, err
		}
		k, _, ok := readChunk(v.buf, off)
		if !ok {
			return 0, 0, errCorrupt
		}
		if bytes.Compare(k, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 1 {
		return v.first, 0, nil
	}
	pos, err = v.restart(lo - 1)
	return pos, (lo - 1) * restartEvery, err
}

// readChunk returns the length-prefixed byte string at buf[pos:] and the
// offset just past it.
func readChunk(buf []byte, pos int) (chunk []byte, end int, ok bool) {
	if pos >= len(buf) {
		return nil, 0, false
	}
	l, n := uint64(buf[pos]), 1
	if l >= 0x80 {
		if l, n = binary.Uvarint(buf[pos:]); n <= 0 {
			return nil, 0, false
		}
	}
	pos += n
	// Compared in uint64: a garbage length must not wrap negative.
	if l > uint64(len(buf)-pos) {
		return nil, 0, false
	}
	end = pos + int(l)
	return buf[pos:end], end, true
}

// childFor returns the child page of the interior page buf to follow for
// key: the child after the last separator <= key (nil key = leftmost).
func childFor(buf, key []byte) (int32, error) {
	v, err := parsePage(buf, nodeInterior)
	if err != nil {
		return 0, err
	}
	pos, i, err := v.seek(key)
	if err != nil {
		return 0, err
	}
	for key != nil && i < v.cnt {
		sep, end, ok := readChunk(v.buf, pos)
		if !ok {
			return 0, errCorrupt
		}
		if bytes.Compare(key, sep) < 0 {
			break
		}
		pos, i = end, i+1
	}
	child := int32(binary.BigEndian.Uint32(buf[pageHeaderSize+4*i:]))
	if child <= metaPage {
		return 0, errCorrupt
	}
	return child, nil
}

// leafCursor walks the entries of one encoded leaf in key order.
type leafCursor struct {
	buf  []byte
	pos  int // offset of the next unread entry
	left int // entries not yet read
}

// seekLeaf parses the leaf buf and returns a cursor on the first entry of
// the restart group that would hold key (nil = the leaf's first entry),
// and the leaf's next-leaf link. Walking on from there, the first entry
// >= key comes within restartEvery entries.
func seekLeaf(buf, key []byte) (leafCursor, int32, error) {
	v, err := parsePage(buf, nodeLeaf)
	if err != nil {
		return leafCursor{}, 0, err
	}
	pos, idx, err := v.seek(key)
	if err != nil {
		return leafCursor{}, 0, err
	}
	return leafCursor{buf: v.buf, pos: pos, left: v.cnt - idx}, v.next, nil
}

// next reads the next entry; ok=false with a nil error is end of leaf.
func (c *leafCursor) next() (key, val []byte, ok bool, err error) {
	if c.left == 0 {
		return nil, nil, false, nil
	}
	key, pos, ok := readChunk(c.buf, c.pos)
	if !ok {
		return nil, nil, false, errCorrupt
	}
	if val, pos, ok = readChunk(c.buf, pos); !ok {
		return nil, nil, false, errCorrupt
	}
	c.pos = pos
	c.left--
	return key, val, true, nil
}

// findLeaf descends to the leaf that would hold key (nil = the leftmost
// leaf), pinning each interior page for the duration of its search.
func (t *BTree) findLeaf(key []byte) (int32, error) {
	num := t.root
	for lvl := t.height; lvl > 1; lvl-- {
		p, err := t.bc.Pin(t.pageID(num))
		if err != nil {
			return 0, err
		}
		num, err = childFor(p.Data, key)
		t.bc.Unpin(p, false)
		if err != nil {
			return 0, err
		}
	}
	return num, nil
}
