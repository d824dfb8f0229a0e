package btree

import "bytes"

// Iterator is a pull-style cursor over a key range, used by LSM k-way
// merges where callback-style Scan cannot interleave multiple sources.
//
// It holds no pin between calls: each leaf is pinned once, copied into
// the iterator's own page buffer and unpinned, and entries are then read
// out of that copy in place, each key rebuilt from its predecessor in a
// key buffer of the iterator's own. Key and Value alias the two buffers,
// so they are valid until the next call to Next.
type Iterator struct {
	t    *BTree
	hi   []byte
	page []byte // the iterator's copy of the current leaf
	cur  leafCursor
	next int32 // leaf after the current one
	key  []byte
	val  []byte
	err  error
	done bool
}

// NewIterator positions a cursor at the first key >= lo (nil = min); it
// yields keys up to hi inclusive (nil = max).
func (t *BTree) NewIterator(lo, hi []byte) *Iterator {
	it := &Iterator{t: t}
	it.Seek(lo, hi)
	return it
}

// Seek positions the iterator on the first entry with key >= lo and makes
// hi its upper bound, whether or not it has ended: a sorted set of ranges
// is read by one iterator, seeking from each range to the next. It keeps
// the iterator's page and key buffers.
func (it *Iterator) Seek(lo, hi []byte) {
	it.hi, it.err, it.done = hi, nil, false
	num, err := it.t.findLeaf(lo)
	if err != nil {
		it.fail(err)
		return
	}
	if it.page == nil {
		// One page buffer per iterator, reused for every leaf it crosses,
		// and 64 bytes behind it for keys: the cursor grows that on a
		// longer key.
		ps := it.t.bc.FileManager().PageSize()
		buf := make([]byte, ps+64)
		it.page, it.cur.key = buf[:ps:ps], buf[ps:ps]
	}
	if !it.load(num, lo) {
		return
	}
	it.Next()
	for lo != nil && !it.done && bytes.Compare(it.key, lo) < 0 {
		it.Next()
	}
}

// load copies leaf num into the iterator's buffer, one pin per leaf visit,
// and places the cursor on the restart group that would hold key (nil =
// the leaf's first entry).
func (it *Iterator) load(num int32, key []byte) bool {
	p, err := it.t.bc.Pin(it.t.pageID(num))
	if err != nil {
		it.fail(err)
		return false
	}
	copy(it.page, p.Data)
	it.t.bc.Unpin(p, false)
	if it.cur, it.next, err = seekLeaf(it.page, key, it.cur.key); err != nil {
		it.fail(err)
		return false
	}
	return true
}

func (it *Iterator) fail(err error) {
	it.err, it.done = err, true
}

// Valid reports whether the cursor is on an entry.
func (it *Iterator) Valid() bool { return !it.done }

// Key returns the current key (valid until Next).
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value (valid until Next).
func (it *Iterator) Value() []byte { return it.val }

// Next advances the cursor, crossing to the next non-empty leaf when the
// current one is exhausted, and ends the iteration past hi.
func (it *Iterator) Next() {
	for !it.done {
		k, v, ok, err := it.cur.next()
		if err != nil {
			it.fail(err)
			return
		}
		if ok {
			if it.hi != nil && bytes.Compare(k, it.hi) > 0 {
				it.done = true
				return
			}
			it.key, it.val = k, v
			return
		}
		if it.next == noPage {
			it.done = true
			return
		}
		it.load(it.next, nil)
	}
}

// Err returns any I/O error the iterator hit.
func (it *Iterator) Err() error { return it.err }
