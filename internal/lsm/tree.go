package lsm

import (
	"bytes"
	"errors"
	"fmt"

	"asterix/internal/btree"
	"asterix/internal/obs"
	"asterix/internal/storage"
)

// Tree is an LSM B+tree: a B+tree-on-a-slab memory component plus B+tree
// disk components, bloom-guarded where the tree answers point lookups. It is
// the storage form of every primary and every value-keyed secondary index.
type Tree struct {
	lifecycle[*memTable, *btreeDisk]
}

// btreeDisk is a B+tree disk component with its in-memory bloom filter
// (nil in a tree opened with OpenUnfiltered).
type btreeDisk struct {
	bt    *btree.BTree
	bloom *bloomFilter
}

// Count implements diskIndex.
func (d *btreeDisk) Count() int64 { return d.bt.Count() }

// Open opens (or creates) the LSM tree named by the file prefix, reloading
// any disk components recorded in its manifest.
func Open(bc *storage.BufferCache, name string, opts Options) (*Tree, error) {
	return openTree(btreeKind{probed: true}, bc, name, opts)
}

// OpenUnfiltered is Open for a tree that is scanned and never asked for one
// key (a secondary index: its entries are found by range). Its components
// carry no bloom filter, so nothing hashes their keys at flush, merge or
// open; Get still answers, by searching every component.
func OpenUnfiltered(bc *storage.BufferCache, name string, opts Options) (*Tree, error) {
	return openTree(btreeKind{}, bc, name, opts)
}

func openTree(kind btreeKind, bc *storage.BufferCache, name string, opts Options) (*Tree, error) {
	t := &Tree{}
	if err := t.open(kind, bc, name, opts); err != nil {
		return nil, err
	}
	return t, nil
}

// btreeKind LSM-ifies the B+tree. A live entry with an empty payload
// (every key-only secondary entry) stores an empty value; any other value
// inside a disk component is a flag byte (1 = antimatter) and the payload.
type btreeKind struct {
	probed bool // the tree answers point lookups: its components carry filters
}

// newFilter returns the filter for a component of n entries, antimatter
// included: a Get must find a newer component's antimatter to stop there.
func (k btreeKind) newFilter(n int64) *bloomFilter {
	if !k.probed {
		return nil
	}
	return newBloom(int(n))
}

func (btreeKind) fileTag() byte { return 'c' }

func (btreeKind) newMem() *memTable { return newMemTable() }

// appendFlagged appends a disk-component value: the flag byte (1 =
// antimatter) and the payload.
func appendFlagged(b, value []byte, tombstone bool) []byte {
	flag := byte(0)
	if tombstone {
		flag = 1
	}
	return append(append(b, flag), value...)
}

// build bulk-loads the memory component: a merge of one source.
func (k btreeKind) build(bc *storage.BufferCache, file storage.FileID, mem *memTable) (*btreeDisk, error) {
	return k.load(bc, file, []cursor{mem.cursor(nil, nil)}, int64(mem.len()), false)
}

// lowest returns the source sitting on the smallest key (-1 when all are
// exhausted); the lowest index — the newest source — wins ties. An older
// source's entry under the key of a newer one can never be read again, so
// it is stepped over here, in the pass that finds it: one comparison per
// source and output key, and the caller advances only src.
func lowest(srcs []cursor) (src int, key []byte, err error) {
	src = -1
	for i := range srcs {
		c := &srcs[i]
		if !c.valid() {
			if c.it != nil && c.it.Err() != nil {
				return -1, nil, c.it.Err()
			}
			continue
		}
		cmp := -1
		if src >= 0 {
			cmp = bytes.Compare(c.key(), key)
		}
		if cmp < 0 {
			src, key = i, c.key()
		} else if cmp == 0 {
			c.next()
		}
	}
	return src, key, nil
}

var errNoFlag = errors.New("lsm: component value missing antimatter flag byte")

// flagged splits a disk-component value into its antimatter flag and
// payload: an empty value is a live entry's empty payload.
func flagged(v []byte) (payload []byte, tombstone bool, err error) {
	switch {
	case len(v) == 0:
		return v, false, nil
	case v[0] > 1:
		return nil, false, errNoFlag
	}
	return v[1:], v[0] == 1, nil
}

// merge k-way merges the victims' sorted runs.
func (k btreeKind) merge(bc *storage.BufferCache, file storage.FileID, victims []*btreeDisk, dropAntimatter bool) (*btreeDisk, error) {
	total := int64(0)
	srcs := make([]cursor, len(victims))
	for i, v := range victims {
		total += v.bt.Count()
		srcs[i].it = v.bt.NewIterator(nil, nil)
	}
	return k.load(bc, file, srcs, total, dropAntimatter)
}

// load bulk-loads the merge of srcs, newest first, into the empty file,
// whose filter is sized for n keys. The sources are positioned first (that
// reads pages): the new file's meta page is then still cached when
// BulkLoad pins it.
func (k btreeKind) load(bc *storage.BufferCache, file storage.FileID, srcs []cursor, n int64, dropAntimatter bool) (*btreeDisk, error) {
	bt, err := btree.Open(bc, file)
	if err != nil {
		return nil, err
	}
	bloom := k.newFilter(n)
	var loadErr error
	// The key and value handed to BulkLoad are valid only until their
	// source's next, which BulkLoad allows: it copies the pair into its
	// page before it calls next again, and only then does that source move.
	src, key, buf := -1, []byte(nil), []byte(nil)
	err = bt.BulkLoad(func() ([]byte, []byte, bool) {
		for {
			if src >= 0 {
				srcs[src].next()
			}
			if src, key, loadErr = lowest(srcs); src == -1 {
				return nil, nil, false
			}
			value, tombstone, err := srcs[src].entry()
			if loadErr = err; err != nil {
				return nil, nil, false
			}
			if dropAntimatter && tombstone {
				continue
			}
			bloom.add(key)
			if len(value) == 0 && !tombstone {
				return key, nil, true // a live key-only entry: no flag byte
			}
			buf = appendFlagged(buf[:0], value, tombstone)
			return key, buf, true
		}
	})
	if err != nil {
		return nil, err
	}
	if loadErr != nil {
		return nil, loadErr
	}
	return &btreeDisk{bt: bt, bloom: bloom}, nil
}

// open rebuilds the bloom filter, which is held in memory only, from a key
// scan; a tree without filters reads the component's meta page and no more.
func (k btreeKind) open(bc *storage.BufferCache, file storage.FileID) (*btreeDisk, error) {
	bt, err := btree.Open(bc, file)
	if err != nil {
		return nil, err
	}
	bloom := k.newFilter(bt.Count())
	if bloom != nil {
		err := bt.Scan(nil, nil, func(k, v []byte) bool {
			bloom.add(k)
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return &btreeDisk{bt: bt, bloom: bloom}, nil
}

// validate checks that the B+tree passes its own deep validation, keys
// are in strict order, every non-empty value starts with a flag byte, and
// the bloom filter, where there is one, answers mayContain=true for every
// key present.
func (btreeKind) validate(d *btreeDisk) error {
	if err := d.bt.Validate(); err != nil {
		return err
	}
	var prev []byte
	var scanErr error
	err := d.bt.Scan(nil, nil, func(k, v []byte) bool {
		_, _, flagErr := flagged(v)
		switch {
		case prev != nil && bytes.Compare(prev, k) >= 0:
			scanErr = fmt.Errorf("keys not strictly increasing")
		case flagErr != nil:
			scanErr = flagErr
		case !d.bloom.mayContain(k):
			scanErr = fmt.Errorf("bloom filter false negative")
		}
		prev = append(prev[:0], k...)
		return scanErr == nil
	})
	if err != nil {
		return err
	}
	return scanErr
}

// Upsert inserts or replaces the value stored under key.
func (t *Tree) Upsert(key, value []byte) error { return t.UpsertSpan(key, value, nil) }

// UpsertSpan is Upsert with wait-time attribution: time this write waits
// for a sealed component's flush is charged to sp (nil for no
// attribution).
func (t *Tree) UpsertSpan(key, value []byte, sp *obs.Span) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.afterPut(t.mem.put(key, value, false), sp)
}

// Delete records an antimatter entry for key (the key need not exist).
func (t *Tree) Delete(key []byte) error { return t.DeleteSpan(key, nil) }

// DeleteSpan is Delete with wait-time attribution (see UpsertSpan).
func (t *Tree) DeleteSpan(key []byte, sp *obs.Span) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.afterPut(t.mem.put(key, nil, true), sp)
}

// Get returns the newest live value for key. The result is the caller's:
// a memory-component value is immutable once stored, and a disk value is
// the one copy BTree.Search makes.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	comps, mems := t.view()
	defer t.release(comps)
	for _, m := range mems {
		if v, tomb, ok := m.get(key); ok {
			return v, !tomb, nil // a tombstone's value is empty
		}
	}
	for _, c := range comps {
		if !c.idx.bloom.mayContain(key) {
			continue
		}
		v, ok, err := c.idx.bt.Search(key)
		if err != nil {
			return nil, false, err
		}
		if ok {
			payload, tombstone, err := flagged(v)
			return payload, err == nil && !tombstone, err
		}
	}
	return nil, false, nil
}

// KeyRange is the keys lo <= key <= hi (a nil bound is unbounded).
type KeyRange struct{ Lo, Hi []byte }

// Scan visits live entries with lo <= key <= hi in key order, newest
// version winning; fn returning false stops early. key and value point
// into the scan's page buffers and are valid only until fn returns: a
// caller that keeps either copies it.
func (t *Tree) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	return t.ScanRanges([]KeyRange{{lo, hi}}, fn)
}

// ScanRanges is Scan over each of a sorted set of disjoint ranges in turn,
// in one view of the components: between ranges every source seeks
// forward in place, keeping its buffers.
func (t *Tree) ScanRanges(rs []KeyRange, fn func(key, value []byte) bool) error {
	comps, mems := t.view()
	defer t.release(comps)
	// One merge: the memory components are the newest sources, then the
	// disk components newest first.
	srcs := make([]cursor, len(mems)+len(comps))
	for i, m := range mems {
		srcs[i].m = m
	}
	for i, c := range comps {
		srcs[len(mems)+i].bt = c.idx.bt
	}
	for _, r := range rs {
		for i := range srcs {
			srcs[i].seek(r.Lo, r.Hi)
		}
		for {
			src, key, err := lowest(srcs)
			if src == -1 {
				if err != nil {
					return err
				}
				break
			}
			value, tombstone, err := srcs[src].entry()
			if err != nil {
				return err
			}
			if !tombstone && !fn(key, value) {
				return nil
			}
			srcs[src].next()
		}
	}
	return nil
}

// Count estimates the number of live keys by a full scan (exact but O(n));
// intended for tests and small datasets.
func (t *Tree) Count() (int64, error) {
	var n int64
	err := t.Scan(nil, nil, func(k, v []byte) bool { n++; return true })
	return n, err
}
