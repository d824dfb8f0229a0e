package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
)

// The read path works on a page's encoded bytes where they lie: entries
// are variable-length and the format has no slot directory, so a page is
// walked front to back, and key order lets every walk stop at the first
// entry past its target. Nothing is allocated per entry or per page; the
// write side (node, decodeNode) still materialises pages it rewrites.

const pageHeaderSize = 1 + 2 + 4 // type, count, next

var errCorrupt = errors.New("btree: corrupt node")

// pageHeader parses and bounds-checks a page header, returning the entry
// count, the next-leaf link and the offset of the first entry.
func pageHeader(buf []byte, wantType byte) (cnt int, next int32, pos int, err error) {
	if len(buf) < pageHeaderSize || buf[0] != wantType {
		return 0, 0, 0, errCorrupt
	}
	cnt = int(binary.BigEndian.Uint16(buf[1:]))
	next = int32(binary.BigEndian.Uint32(buf[3:]))
	pos = pageHeaderSize
	if wantType == nodeInterior {
		pos += 4 * (cnt + 1)
	}
	if pos > len(buf) {
		return 0, 0, 0, errCorrupt
	}
	return cnt, next, pos, nil
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
	cnt, _, pos, err := pageHeader(buf, nodeInterior)
	if err != nil {
		return 0, err
	}
	i := 0
	if key != nil {
		for ; i < cnt; i++ {
			sep, end, ok := readChunk(buf, pos)
			if !ok {
				return 0, errCorrupt
			}
			if bytes.Compare(key, sep) < 0 {
				break
			}
			pos = end
		}
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
// leaf), pinning each interior page for the duration of its walk.
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
