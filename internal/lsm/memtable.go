// Package lsm implements the log-structured merge storage layer: every
// dataset partition and secondary index in the system is an LSM index with
// an in-memory component (bounded by the ingestion budget of Figure 2), a
// stack of immutable disk components, antimatter (tombstone) deletes, per-
// component bloom filters, and pluggable merge policies.
package lsm

import (
	"bytes"
	"slices"
	"sort"
	"sync"

	"asterix/internal/btree"
)

// memEntry is one key's newest state in the memory component.
type memEntry struct {
	key       []byte
	value     []byte
	tombstone bool
}

const (
	leafSlots = 64       // entries per leaf
	innerKids = 64       // children per inner node
	chunkSize = 64 << 10 // bytes per slab chunk; a larger entry gets a chunk of its own
)

// slot locates one entry's bytes in the slab: the key at off in chunk, its
// value right behind it. It holds no pointer, so a leaf's slots are one
// object the GC need not scan, and moving them needs no write barrier.
type slot struct {
	chunk, off, klen, vlen uint32
	tombstone              bool
}

// memNode is a leaf (kids == nil: slots in key order, next the right
// neighbour) or an inner node, where seps[i], a copy of its own, is the
// first key under kids[i+1].
type memNode struct {
	slots []slot
	next  *memNode
	seps  [][]byte
	kids  []*memNode
}

// memTable is the LSM memory component: a B+tree over a byte slab. Every
// put appends its key and value to the slab, and a slab byte is never
// rewritten, so a key or value handed out by get or run stays valid and
// unchanged. Safe for concurrent use.
type memTable struct {
	mu     sync.RWMutex
	root   *memNode
	chunks [][]byte
	count  int
	bytes  int
	dead   int // slab bytes of overwritten entries
}

func newMemTable() *memTable {
	return &memTable{root: &memNode{slots: make([]slot, 0, leafSlots)}}
}

// at returns n slab bytes at off in chunk, capped so that an append by
// the holder copies them rather than overwriting the slab.
func (m *memTable) at(chunk, off, n uint32) []byte {
	return m.chunks[chunk][off : off+n : off+n]
}

func (m *memTable) key(s slot) []byte   { return m.at(s.chunk, s.off, s.klen) }
func (m *memTable) value(s slot) []byte { return m.at(s.chunk, s.off+s.klen, s.vlen) }

// find returns the index of the first slot in leaf n whose key is >= key,
// and whether that key equals it.
func (m *memTable) find(n *memNode, key []byte) (int, bool) {
	lo, hi := 0, len(n.slots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch c := bytes.Compare(m.key(n.slots[mid]), key); {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// child returns the index of the child of inner node n whose subtree holds key.
func child(n *memNode, key []byte) int {
	return sort.Search(len(n.seps), func(i int) bool { return bytes.Compare(n.seps[i], key) > 0 })
}

// leaf returns the leaf whose key range holds key (the first leaf for nil).
func (m *memTable) leaf(key []byte) *memNode {
	n := m.root
	for n.kids != nil {
		n = n.kids[child(n, key)]
	}
	return n
}

// put upserts the key's state and returns the byte-size delta it caused
// (negative when a replace shrinks the stored value) so callers can keep
// external memory accounting exact.
func (m *memTable) put(key, value []byte, tombstone bool) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	sep, right, old := m.insert(m.root, key, m.store(key, value, tombstone))
	if old >= 0 {
		delta := len(value) - old
		m.bytes += delta
		if m.dead += len(key) + old; m.dead > max(m.bytes, chunkSize) {
			// Overwritten bytes outweigh the charge: copy the entries to a
			// new slab, and the old goes once no reader holds bytes of it.
			prev := m.chunks
			m.chunks, m.dead = nil, 0
			for n := m.leaf(nil); n != nil; n = n.next {
				for i, s := range n.slots {
					b := prev[s.chunk][s.off : s.off+s.klen+s.vlen]
					n.slots[i] = m.store(b[:s.klen], b[s.klen:], s.tombstone)
				}
			}
		}
		return delta
	}
	if right != nil {
		m.root = &memNode{seps: append(make([][]byte, 0, innerKids), sep), kids: append(make([]*memNode, 0, innerKids+1), m.root, right)}
	}
	m.count++
	delta := len(key) + len(value) + 32
	m.bytes += delta
	return delta
}

// store appends an entry's bytes to the slab.
func (m *memTable) store(key, value []byte, tombstone bool) slot {
	c := len(m.chunks) - 1
	if need := len(key) + len(value); c < 0 || len(m.chunks[c])+need > cap(m.chunks[c]) {
		m.chunks = append(m.chunks, make([]byte, 0, max(need, chunkSize)))
		c++
	}
	s := slot{chunk: uint32(c), off: uint32(len(m.chunks[c])), klen: uint32(len(key)), vlen: uint32(len(value)), tombstone: tombstone}
	m.chunks[c] = append(append(m.chunks[c], key...), value...)
	return s
}

// insert places s under key in n's subtree. It returns the replaced
// value's length (-1 for a new key) and, when n split, its new right
// sibling and the first key under it.
func (m *memTable) insert(n *memNode, key []byte, s slot) (sep []byte, right *memNode, old int) {
	if n.kids == nil {
		i, found := m.find(n, key)
		if found {
			old, n.slots[i] = int(n.slots[i].vlen), s
			return nil, nil, old
		}
		if len(n.slots) < leafSlots {
			n.slots = slices.Insert(n.slots, i, s)
			return nil, nil, -1
		}
		// A full leaf splits in half, or, when the key goes past its end
		// (an ascending run), keeps its entries and starts a new leaf.
		h := leafSlots / 2
		if i == leafSlots {
			h = leafSlots
		}
		right = &memNode{slots: append(make([]slot, 0, leafSlots), n.slots[h:]...), next: n.next}
		n.slots, n.next = n.slots[:h], right
		if i < h {
			n.slots = slices.Insert(n.slots, i, s)
		} else {
			right.slots = slices.Insert(right.slots, i-h, s)
		}
		return bytes.Clone(m.key(right.slots[0])), right, -1
	}
	i := child(n, key)
	sep, right, old = m.insert(n.kids[i], key, s)
	if right == nil {
		return nil, nil, old
	}
	n.seps = slices.Insert(n.seps, i, sep)
	n.kids = slices.Insert(n.kids, i+1, right)
	if len(n.kids) <= innerKids {
		return nil, nil, -1
	}
	h := len(n.kids) / 2
	right = &memNode{
		seps: append(make([][]byte, 0, innerKids), n.seps[h:]...),
		kids: append(make([]*memNode, 0, innerKids+1), n.kids[h:]...),
	}
	sep = n.seps[h-1]
	n.seps, n.kids = n.seps[:h-1], n.kids[:h]
	return sep, right, -1
}

// get returns the key's state if present.
func (m *memTable) get(key []byte) (value []byte, tombstone, ok bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := m.leaf(key)
	if i, found := m.find(n, key); found {
		return m.value(n.slots[i]), n.slots[i].tombstone, true
	}
	return nil, false, false
}

// size returns the approximate bytes held.
func (m *memTable) size() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes
}

// len returns the number of distinct keys.
func (m *memTable) len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.count
}

// run appends to out the entries (including tombstones) with lo <= key <= hi
// in order, at most limit of them; nil bounds are unbounded. A nil out
// that takes an entry is given room for a leaf's worth.
func (m *memTable) run(lo, hi []byte, out []memEntry, limit int) []memEntry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := m.leaf(lo)
	i, _ := m.find(n, lo)
	for ; n != nil; n, i = n.next, 0 {
		for _, s := range n.slots[i:] {
			k := m.key(s)
			if len(out) == limit || hi != nil && bytes.Compare(k, hi) > 0 {
				return out
			}
			if out == nil {
				out = make([]memEntry, 0, leafSlots)
			}
			out = append(out, memEntry{key: k, value: m.value(s), tombstone: s.tombstone})
		}
	}
	return out
}

// cursor is one sorted source of a merge: a disk component's iterator or,
// where that is nil, a memory component's entries, read a batch of at most
// a leaf's worth at a time. A batch is taken under the read lock, so a
// writer waits for one batch, not for a whole scan; its keys and values
// are slab bytes, which stay valid once the lock is released.
type cursor struct {
	it    *btree.Iterator
	bt    *btree.BTree // a disk source: its iterator is made at the first seek
	m     *memTable
	hi    []byte
	batch []memEntry // reused from batch to batch
	i     int        // the entry of batch the cursor is on
	from  []byte     // the least key above the last batch's last
}

// cursor returns a cursor on the entries with lo <= key <= hi. It
// allocates nothing when there is none.
func (m *memTable) cursor(lo, hi []byte) cursor {
	c := cursor{m: m}
	c.seek(lo, hi)
	return c
}

// seek moves the cursor to the entries with lo <= key <= hi, keeping its
// iterator or batch buffer.
func (c *cursor) seek(lo, hi []byte) {
	switch {
	case c.it != nil:
		c.it.Seek(lo, hi)
	case c.bt != nil:
		c.it = c.bt.NewIterator(lo, hi)
	default:
		c.hi, c.batch, c.i = hi, c.m.run(lo, hi, c.batch[:0], leafSlots), 0
	}
}

func (c *cursor) valid() bool {
	if c.it != nil {
		return c.it.Valid()
	}
	return c.i < len(c.batch)
}

func (c *cursor) key() []byte {
	if c.it != nil {
		return c.it.Key()
	}
	return c.batch[c.i].key
}

// entry returns the current value and whether it is antimatter.
func (c *cursor) entry() (value []byte, tombstone bool, err error) {
	if c.it != nil {
		return flagged(c.it.Value())
	}
	return c.batch[c.i].value, c.batch[c.i].tombstone, nil
}

// next moves to the next entry. Past a full batch, the next one starts at
// the last key ‖ 0x00, the least key above it.
func (c *cursor) next() {
	if c.it != nil {
		c.it.Next()
	} else if c.i++; c.i == leafSlots {
		c.from = append(append(c.from[:0], c.batch[c.i-1].key...), 0)
		c.batch, c.i = c.m.run(c.from, c.hi, c.batch[:0], leafSlots), 0
	}
}
