package lsm

import (
	"bytes"
	"fmt"

	"asterix/internal/btree"
	"asterix/internal/obs"
	"asterix/internal/storage"
)

// Tree is an LSM B+tree: a skiplist memory component plus bloom-guarded
// B+tree disk components. It is the storage form of every primary index
// and every value-keyed secondary index.
type Tree struct {
	lifecycle[*memTable, *btreeDisk]
}

// btreeDisk is a B+tree disk component with its in-memory bloom filter.
type btreeDisk struct {
	bt    *btree.BTree
	bloom *bloomFilter
}

// Count implements diskIndex.
func (d *btreeDisk) Count() int64 { return d.bt.Count() }

// Open opens (or creates) the LSM tree named by the file prefix, reloading
// any disk components recorded in its manifest.
func Open(bc *storage.BufferCache, name string, opts Options) (*Tree, error) {
	t := &Tree{}
	if err := t.open(btreeKind{}, bc, name, opts); err != nil {
		return nil, err
	}
	return t, nil
}

// btreeKind LSM-ifies the B+tree. Values inside disk components carry a
// leading flag byte (1 = antimatter) before the payload.
type btreeKind struct{}

func (btreeKind) fileTag() byte { return 'c' }

func (btreeKind) newMem() *memTable { return newMemTable() }

func encodeFlagged(value []byte, tombstone bool) []byte {
	out := make([]byte, 0, len(value)+1)
	if tombstone {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	return append(out, value...)
}

// build bulk-loads the memory component's entries in key order.
func (btreeKind) build(bc *storage.BufferCache, file storage.FileID, mem *memTable) (*btreeDisk, error) {
	bt, err := btree.Open(bc, file)
	if err != nil {
		return nil, err
	}
	bloom := newBloom(mem.len())
	var entries []memEntry
	mem.scan(nil, nil, func(e memEntry) bool {
		entries = append(entries, e)
		return true
	})
	i := 0
	err = bt.BulkLoad(func() ([]byte, []byte, bool) {
		if i >= len(entries) {
			return nil, nil, false
		}
		e := entries[i]
		i++
		bloom.add(e.key)
		return e.key, encodeFlagged(e.value, e.tombstone), true
	})
	if err != nil {
		return nil, err
	}
	return &btreeDisk{bt: bt, bloom: bloom}, nil
}

// merge k-way merges the victims' sorted runs; the lowest (newest) source
// wins ties.
func (btreeKind) merge(bc *storage.BufferCache, file storage.FileID, victims []*btreeDisk, dropAntimatter bool) (*btreeDisk, error) {
	bt, err := btree.Open(bc, file)
	if err != nil {
		return nil, err
	}
	total := int64(0)
	iters := make([]*btree.Iterator, len(victims))
	for i, v := range victims {
		total += v.bt.Count()
		iters[i] = v.bt.NewIterator(nil, nil)
	}
	bloom := newBloom(int(total))
	var mergeErr error
	err = bt.BulkLoad(func() ([]byte, []byte, bool) {
		for {
			var bestKey []byte
			bestSrc := -1
			for i, it := range iters {
				if !it.Valid() {
					if e := it.Err(); e != nil {
						mergeErr = e
						return nil, nil, false
					}
					continue
				}
				if bestSrc == -1 || bytes.Compare(it.Key(), bestKey) < 0 {
					bestKey = it.Key()
					bestSrc = i
				}
			}
			if bestSrc == -1 {
				return nil, nil, false
			}
			value := append([]byte(nil), iters[bestSrc].Value()...)
			for _, it := range iters {
				if it.Valid() && bytes.Equal(it.Key(), bestKey) {
					it.Next()
				}
			}
			if dropAntimatter && value[0] == 1 {
				continue
			}
			bloom.add(bestKey)
			return append([]byte(nil), bestKey...), value, true
		}
	})
	if err != nil {
		return nil, err
	}
	if mergeErr != nil {
		return nil, mergeErr
	}
	return &btreeDisk{bt: bt, bloom: bloom}, nil
}

// open rebuilds the bloom filter from a key scan (the filter is held in
// memory only).
func (btreeKind) open(bc *storage.BufferCache, file storage.FileID) (*btreeDisk, error) {
	bt, err := btree.Open(bc, file)
	if err != nil {
		return nil, err
	}
	bloom := newBloom(int(bt.Count()))
	err = bt.Scan(nil, nil, func(k, v []byte) bool {
		bloom.add(k)
		return true
	})
	if err != nil {
		return nil, err
	}
	return &btreeDisk{bt: bt, bloom: bloom}, nil
}

// validate checks that the B+tree passes its own deep validation, keys
// are in strict order, every value carries a flag byte, and the bloom
// filter answers mayContain=true for every key present.
func (btreeKind) validate(d *btreeDisk) error {
	if err := d.bt.Validate(); err != nil {
		return err
	}
	var prev []byte
	var scanErr error
	err := d.bt.Scan(nil, nil, func(k, v []byte) bool {
		switch {
		case prev != nil && bytes.Compare(prev, k) >= 0:
			scanErr = fmt.Errorf("keys not strictly increasing")
		case len(v) < 1 || v[0] > 1:
			scanErr = fmt.Errorf("value missing antimatter flag byte")
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

// UpsertSpan is Upsert with wait-time attribution: governor arbitration,
// flushes, and merges triggered by this write are charged to sp (nil for
// no attribution).
func (t *Tree) UpsertSpan(key, value []byte, sp *obs.Span) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.afterPut(t.memRef().put(key, value, false), sp)
}

// Delete records an antimatter entry for key (the key need not exist).
func (t *Tree) Delete(key []byte) error { return t.DeleteSpan(key, nil) }

// DeleteSpan is Delete with wait-time attribution (see UpsertSpan).
func (t *Tree) DeleteSpan(key []byte, sp *obs.Span) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.afterPut(t.memRef().put(key, nil, true), sp)
}

// Get returns the newest live value for key.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	if v, tomb, ok := t.memRef().get(key); ok {
		if tomb {
			return nil, false, nil
		}
		return v, true, nil
	}
	comps := t.snapshot()
	defer t.release(comps)
	for _, c := range comps {
		if !c.idx.bloom.mayContain(key) {
			continue
		}
		v, ok, err := c.idx.bt.Search(key)
		if err != nil {
			return nil, false, err
		}
		if ok {
			if v[0] == 1 {
				return nil, false, nil
			}
			return append([]byte(nil), v[1:]...), true, nil
		}
	}
	return nil, false, nil
}

// Scan visits live entries with lo <= key <= hi in key order, newest
// version winning; fn returning false stops early.
func (t *Tree) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	// Snapshot the memory component's range (bounded by the mem budget).
	type flaggedEntry struct {
		key, value []byte
		tombstone  bool
	}
	var memRun []flaggedEntry
	//lint:ignore hot-alloc per-scan closure capturing the memRun accumulator: one allocation per scan setup
	t.memRef().scan(lo, hi, func(e memEntry) bool {
		memRun = append(memRun, flaggedEntry{e.key, e.value, e.tombstone})
		return true
	})
	comps := t.snapshot()
	defer t.release(comps)

	// K-way merge: source 0 is the memory run (newest), then disk
	// components newest-first. Lowest source index wins ties.
	//lint:ignore hot-alloc per-scan iterator table: O(components) once per scan setup
	iters := make([]*btree.Iterator, len(comps))
	for i, c := range comps {
		iters[i] = c.idx.bt.NewIterator(lo, hi)
	}
	memPos := 0
	for {
		// Find the smallest key among sources; newest source wins ties.
		var bestKey []byte
		bestSrc := -1
		if memPos < len(memRun) {
			bestKey = memRun[memPos].key
			bestSrc = 0
		}
		for i, it := range iters {
			if !it.Valid() {
				if err := it.Err(); err != nil {
					return err
				}
				continue
			}
			if bestSrc == -1 || bytes.Compare(it.Key(), bestKey) < 0 {
				bestKey = it.Key()
				bestSrc = i + 1
			}
		}
		if bestSrc == -1 {
			return nil
		}
		// Emit the winner; advance every source sitting on this key.
		var value []byte
		tombstone := false
		if bestSrc == 0 {
			value = memRun[memPos].value
			tombstone = memRun[memPos].tombstone
		} else {
			v := iters[bestSrc-1].Value()
			tombstone = v[0] == 1
			//lint:ignore hot-alloc the emitted value must outlive the iterator advance below (and callers may retain it), so it is copied out of the page-backed buffer
			value = append([]byte(nil), v[1:]...)
		}
		if memPos < len(memRun) && bytes.Equal(memRun[memPos].key, bestKey) {
			memPos++
		}
		for _, it := range iters {
			if it.Valid() && bytes.Equal(it.Key(), bestKey) {
				it.Next()
			}
		}
		if !tombstone {
			//lint:ignore hot-alloc user-supplied visitor callback: its allocation behavior belongs to the caller, not the scan kernel
			if !fn(bestKey, value) {
				return nil
			}
		}
	}
}

// Count estimates the number of live keys by a full scan (exact but O(n));
// intended for tests and small datasets.
func (t *Tree) Count() (int64, error) {
	var n int64
	err := t.Scan(nil, nil, func(k, v []byte) bool { n++; return true })
	return n, err
}
