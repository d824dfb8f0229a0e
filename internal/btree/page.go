package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
)

// The read path works on a page's encoded bytes where they lie. Entries
// are variable-length, so a page ends in a sparse slot directory: its
// trailer holds the 2-byte offset of every restartEvery-th entry (the
// restart points), then the number of those offsets. A lookup binary-
// searches the restart points, and walks from the one it picks; key order
// stops the walk at the first entry past its target, at most restartEvery
// entries on. Nothing is allocated per entry or per page.
//
// Keys are prefix-compressed between restart points, as in LevelDB: an
// entry stores the length its key shares with the previous key (0 at a
// restart point, so the binary search reads whole keys), then the rest.
// Only a cursor that hands keys out rebuilds them (leafCursor).
//
// A page is laid out as
//
//	type (1) | count (2) | next leaf (4) | interior: count+1 children (4 each)
//	entries: shared length (uvarint), then a suffix chunk (leaf: then a
//	  value chunk), each chunk a uvarint length and bytes
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

// keySize returns the page bytes key k adds as entry i of a page, after
// prev (the key of entry i-1): its shared length and suffix, and a restart
// offset when it starts a restart group; and that shared length, 0 at a
// restart point.
func keySize(i int, prev, k []byte) (size, shared int) {
	if i%restartEvery == 0 {
		return 2 + 1 + chunkSize(k), 0
	}
	s := commonPrefix(prev, k)
	return uvarintLen(uint64(s)) + chunkSize(k[s:]), s
}

// pageWriter lays out a page's entries as they come, each key compressed
// against the one before it, and then the page's header and trailer.
type pageWriter struct {
	buf      []byte   // the page
	pos      int      // offset of the next entry
	cnt      int      // entries written
	restarts []uint16 // offsets of the restart points written
}

// add writes key k, after prev (the page's last key), and on a leaf the
// value v, compressing k against prev unless it starts a restart group. It
// writes nothing and returns false when the entry and the trailer would
// not fit in the page.
func (w *pageWriter) add(prev, k, v []byte, leaf bool) bool {
	size, shared := keySize(w.cnt, prev, k)
	if leaf {
		size += chunkSize(v)
	}
	if w.pos+size+2*len(w.restarts)+2 > len(w.buf) { // the new restart offset is in size
		return false
	}
	if w.cnt%restartEvery == 0 {
		w.restarts = append(w.restarts, uint16(w.pos))
	}
	w.pos += binary.PutUvarint(w.buf[w.pos:], uint64(shared))
	w.pos += binary.PutUvarint(w.buf[w.pos:], uint64(len(k)-shared))
	w.pos += copy(w.buf[w.pos:], k[shared:])
	if leaf {
		w.pos += binary.PutUvarint(w.buf[w.pos:], uint64(len(v)))
		w.pos += copy(w.buf[w.pos:], v)
	}
	w.cnt++
	return true
}

// finish writes the header, zeroes the free space and writes the trailer.
func (w *pageWriter) finish(typ byte, next int32) {
	w.buf[0] = typ
	binary.BigEndian.PutUint16(w.buf[1:], uint16(w.cnt))
	binary.BigEndian.PutUint32(w.buf[3:], uint32(next))
	trailer := len(w.buf) - 2 - 2*len(w.restarts)
	clear(w.buf[w.pos:trailer])
	for j, off := range w.restarts {
		binary.BigEndian.PutUint16(w.buf[trailer+2*j:], off)
	}
	binary.BigEndian.PutUint16(w.buf[len(w.buf)-2:], uint16(len(w.restarts)))
}

// commonPrefix returns the length of the longest common prefix of a and b.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i+8 <= n {
		if x := binary.BigEndian.Uint64(a[i:]) ^ binary.BigEndian.Uint64(b[i:]); x != 0 {
			return i + bits.LeadingZeros64(x)/8
		}
		i += 8
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
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
		_, k, _, _, ok := v.entry(off, mid*restartEvery, false)
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

// entry reads entry i at pos: the length its key shares with the previous
// key (0 at a restart point), the key's suffix, a leaf entry's value, and
// the offset past them; ok=false on a corrupt entry. A length is a uvarint,
// read inline when it has one byte, and compared in uint64 so that garbage
// cannot wrap negative.
func (v *view) entry(pos, i int, leaf bool) (shared int, suffix, val []byte, end int, ok bool) {
	b := v.buf
	if pos+1 >= len(b) {
		return 0, nil, nil, 0, false
	}
	s, n := uint64(b[pos]), 1
	if s >= 0x80 {
		s, n = longUvarint(b[pos:])
	}
	if pos += n; n <= 0 || s > maxPageSize || (s != 0 && i%restartEvery == 0) || pos >= len(b) {
		return 0, nil, nil, 0, false
	}
	l, n := uint64(b[pos]), 1
	if l >= 0x80 {
		l, n = longUvarint(b[pos:])
	}
	if n <= 0 || l > uint64(len(b)-pos-n) {
		return 0, nil, nil, 0, false
	}
	pos += n
	suffix, end = b[pos:pos+int(l)], pos+int(l)
	if !leaf {
		return int(s), suffix, nil, end, true
	}
	if end >= len(b) {
		return 0, nil, nil, 0, false
	}
	l, n = uint64(b[end]), 1
	if l >= 0x80 {
		l, n = longUvarint(b[end:])
	}
	if n <= 0 || l > uint64(len(b)-end-n) {
		return 0, nil, nil, 0, false
	}
	pos = end + n
	return int(s), suffix, b[pos : pos+int(l)], pos + int(l), true
}

// longUvarint reads a uvarint of more than one byte, out of entry's line.
//
//go:noinline
func longUvarint(b []byte) (uint64, int) { return binary.Uvarint(b) }

// find returns the index of the first entry whose key is >= key (cnt when
// there is none), whether it equals key, and that entry's value on a leaf.
// It walks the restart group seek picks and compares key with each entry
// in place: matched is how many bytes of key the previous key has, and an
// entry sharing more than that with it differs from key where it did, so
// is below key unread.
func (v *view) find(key []byte, leaf bool) (i int, eq bool, val []byte, err error) {
	pos, i, err := v.seek(key)
	if err != nil {
		return 0, false, nil, err
	}
	matched, prevLen := 0, 0
	for ; i < v.cnt; i++ {
		shared, suffix, val, end, ok := v.entry(pos, i, leaf)
		if !ok || shared > prevLen {
			return 0, false, nil, errCorrupt
		}
		prevLen = shared + len(suffix)
		if shared <= matched {
			c := commonPrefix(suffix, key[shared:])
			matched = shared + c
			switch {
			case c == len(suffix):
				if matched == len(key) {
					return i, true, val, nil
				}
			case matched == len(key) || suffix[c] > key[matched]:
				return i, false, val, nil
			}
		}
		pos = end
	}
	return v.cnt, false, nil, nil
}

// childFor returns the child page of the interior page buf to follow for
// key: the child after the last separator <= key (nil key = leftmost).
func childFor(buf, key []byte) (int32, error) {
	v, err := parsePage(buf, nodeInterior)
	if err != nil {
		return 0, err
	}
	i := 0
	if key != nil {
		var eq bool
		if i, eq, _, err = v.find(key, false); err != nil {
			return 0, err
		}
		if eq {
			i++
		}
	}
	child := int32(binary.BigEndian.Uint32(buf[pageHeaderSize+4*i:]))
	if child <= metaPage {
		return 0, errCorrupt
	}
	return child, nil
}

// leafCursor walks the entries of one encoded leaf in key order, rebuilding
// each key from the previous one in key.
type leafCursor struct {
	v   view
	pos int    // offset of the next unread entry
	idx int    // index of the next unread entry
	key []byte // the last key read
}

// seekLeaf parses the leaf buf and returns a cursor on the first entry of
// the restart group that would hold key (nil = the leaf's first entry),
// and the leaf's next-leaf link. Walking on from there, the first entry
// >= key comes within restartEvery entries. The cursor rebuilds keys in
// keyBuf, growing it when a key does not fit.
func seekLeaf(buf, key, keyBuf []byte) (leafCursor, int32, error) {
	v, err := parsePage(buf, nodeLeaf)
	if err != nil {
		return leafCursor{}, 0, err
	}
	pos, idx, err := v.seek(key)
	if err != nil {
		return leafCursor{}, 0, err
	}
	return leafCursor{v: v, pos: pos, idx: idx, key: keyBuf[:0]}, v.next, nil
}

// next reads the next entry; ok=false with a nil error is end of leaf. The
// key is valid until the following call.
func (c *leafCursor) next() (key, val []byte, ok bool, err error) {
	if c.idx == c.v.cnt {
		return nil, nil, false, nil
	}
	shared, suffix, val, end, ok := c.v.entry(c.pos, c.idx, true)
	if !ok {
		return nil, nil, false, errCorrupt
	}
	if shared > len(c.key) {
		return nil, nil, false, errCorrupt
	}
	c.key = append(c.key[:shared], suffix...)
	c.pos = end
	c.idx++
	return c.key, val, true, nil
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
