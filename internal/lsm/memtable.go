// Package lsm implements the log-structured merge storage layer: every
// dataset partition and secondary index in the system is an LSM index with
// an in-memory component (bounded by the ingestion budget of Figure 2), a
// stack of immutable disk components, antimatter (tombstone) deletes, per-
// component bloom filters, and pluggable merge policies.
package lsm

import (
	"bytes"
	"math/rand"
	"sync"
)

// memEntry is one key's newest state in the memory component.
type memEntry struct {
	key       []byte
	value     []byte
	tombstone bool
}

const maxSkipHeight = 16

type skipNode struct {
	entry memEntry
	next  [maxSkipHeight]*skipNode
}

// memTable is a skiplist-based sorted map acting as the LSM memory
// component. Safe for concurrent use.
type memTable struct {
	mu     sync.RWMutex
	head   *skipNode
	height int
	count  int
	bytes  int
	rng    *rand.Rand
}

func newMemTable() *memTable {
	return &memTable{
		head:   &skipNode{},
		height: 1,
		rng:    rand.New(rand.NewSource(1)),
	}
}

// put upserts the key's state and returns the byte-size delta it caused
// (negative when a replace shrinks the stored value) so callers can keep
// external memory accounting exact.
func (m *memTable) put(key, value []byte, tombstone bool) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var update [maxSkipHeight]*skipNode
	x := m.head
	for i := m.height - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].entry.key, key) < 0 {
			x = x.next[i]
		}
		update[i] = x
	}
	if n := x.next[0]; n != nil && bytes.Equal(n.entry.key, key) {
		delta := len(value) - len(n.entry.value)
		m.bytes += delta
		n.entry.value = append([]byte(nil), value...)
		n.entry.tombstone = tombstone
		return delta
	}
	h := 1
	for h < maxSkipHeight && m.rng.Intn(2) == 0 {
		h++
	}
	if h > m.height {
		for i := m.height; i < h; i++ {
			update[i] = m.head
		}
		m.height = h
	}
	n := &skipNode{entry: memEntry{
		key:       append([]byte(nil), key...),
		value:     append([]byte(nil), value...),
		tombstone: tombstone,
	}}
	for i := 0; i < h; i++ {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
	}
	m.count++
	delta := len(key) + len(value) + 32
	m.bytes += delta
	return delta
}

// get returns the key's state if present.
func (m *memTable) get(key []byte) (value []byte, tombstone, ok bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	x := m.head
	for i := m.height - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].entry.key, key) < 0 {
			x = x.next[i]
		}
	}
	if n := x.next[0]; n != nil && bytes.Equal(n.entry.key, key) {
		return n.entry.value, n.entry.tombstone, true
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
// in order; nil bounds are unbounded.
func (m *memTable) run(lo, hi []byte, out []memEntry) []memEntry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	x := m.head
	if lo != nil {
		for i := m.height - 1; i >= 0; i-- {
			for x.next[i] != nil && bytes.Compare(x.next[i].entry.key, lo) < 0 {
				x = x.next[i]
			}
		}
	}
	for n := x.next[0]; n != nil && (hi == nil || bytes.Compare(n.entry.key, hi) <= 0); n = n.next[0] {
		out = append(out, n.entry)
	}
	return out
}
