package lsm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"asterix/internal/obs"
	"asterix/internal/rtree"
	"asterix/internal/storage"
)

// RTreeIndex is an LSM R-tree: an in-memory R-tree component plus
// immutable STR-packed disk components. Deletes are antimatter entries
// that cancel matching (rect, key) pairs in older components — the design
// the paper says was adopted into AsterixDB after the Section V-B study.
// Entry payloads are a flag byte (1 = antimatter) + the primary key.
type RTreeIndex struct {
	lifecycle[*memRTree, *rtree.DiskRTree]
}

// OpenRTree opens (or creates) the LSM R-tree named by the file prefix.
func OpenRTree(bc *storage.BufferCache, name string, opts Options) (*RTreeIndex, error) {
	t := &RTreeIndex{}
	if err := t.open(rtreeKind{}, bc, name, opts); err != nil {
		return nil, err
	}
	return t, nil
}

// memRTree is the R-tree memory component. rtree.RTree is not safe for
// concurrent use, so (like memTable) it guards itself: searches run
// outside the lifecycle lock while a writer mutates the tree in place.
type memRTree struct {
	mu    sync.RWMutex
	rt    *rtree.RTree
	bytes int
}

// put replaces the pair's pending state (live or antimatter) and returns
// the byte-size delta: an insert revives a pending antimatter entry, a
// delete cancels a pending live one and leaves antimatter for older disk
// components.
func (m *memRTree) put(r rtree.Rect, key []byte, tombstone bool) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rt.Delete(r, encodeFlagged(key, !tombstone))
	m.rt.Insert(r, encodeFlagged(key, tombstone))
	delta := len(key) + 64
	m.bytes += delta
	return delta
}

// search returns the entries intersecting query. They are collected under
// the lock and visited by the caller outside it (payloads are immutable
// once inserted), so a visitor may itself use the index.
func (m *memRTree) search(query rtree.Rect) []rtree.Entry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []rtree.Entry
	m.rt.Search(query, func(e rtree.Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

func (m *memRTree) len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.rt.Len()
}

func (m *memRTree) size() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes
}

// everything intersects every rectangle.
var everything = rtree.Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)}

// pairKey identifies a (rect, primary key) pair — the unit antimatter
// cancels — as the rect's coordinate bits followed by the key.
func pairKey(r rtree.Rect, key []byte) string {
	b := make([]byte, 32, 32+len(key))
	binary.BigEndian.PutUint64(b[0:], math.Float64bits(r.MinX))
	binary.BigEndian.PutUint64(b[8:], math.Float64bits(r.MinY))
	binary.BigEndian.PutUint64(b[16:], math.Float64bits(r.MaxX))
	binary.BigEndian.PutUint64(b[24:], math.Float64bits(r.MaxY))
	return string(append(b, key...))
}

// rtreeKind LSM-ifies the R-tree.
type rtreeKind struct{}

func (rtreeKind) fileTag() byte { return 'r' }

func (rtreeKind) newMem() *memRTree { return &memRTree{rt: rtree.New()} }

func (rtreeKind) build(bc *storage.BufferCache, file storage.FileID, mem *memRTree) (*rtree.DiskRTree, error) {
	return rtree.BuildDisk(bc, file, mem.search(everything))
}

// merge walks the victims newest first; the first sighting of a pair
// decides it, so antimatter cancels the older live entries behind it.
func (rtreeKind) merge(bc *storage.BufferCache, file storage.FileID, victims []*rtree.DiskRTree, dropAntimatter bool) (*rtree.DiskRTree, error) {
	decided := map[string]bool{}
	var keep []rtree.Entry
	for _, v := range victims {
		err := v.Search(everything, func(e rtree.Entry) bool {
			pk := pairKey(e.Rect, e.Payload[1:])
			if !decided[pk] {
				decided[pk] = true
				if e.Payload[0] == 0 || !dropAntimatter {
					keep = append(keep, e)
				}
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return rtree.BuildDisk(bc, file, keep)
}

func (rtreeKind) open(bc *storage.BufferCache, file storage.FileID) (*rtree.DiskRTree, error) {
	return rtree.OpenDisk(bc, file)
}

// validate checks that a full search reaches exactly Count() entries and
// every payload carries a flag byte.
func (rtreeKind) validate(d *rtree.DiskRTree) error {
	var n int64
	var bad error
	err := d.Search(everything, func(e rtree.Entry) bool {
		n++
		if len(e.Payload) < 1 || e.Payload[0] > 1 {
			bad = fmt.Errorf("payload missing antimatter flag byte")
		}
		return bad == nil
	})
	if err != nil {
		return err
	}
	if bad == nil && n != d.Count() {
		bad = fmt.Errorf("search reaches %d entries, header counts %d", n, d.Count())
	}
	return bad
}

// Insert adds a live (rect, key) entry.
func (t *RTreeIndex) Insert(r rtree.Rect, key []byte) error {
	return t.InsertSpan(r, key, nil)
}

// InsertSpan is Insert with wait-time attribution: time this write waits
// for a sealed component's flush is charged to sp (nil for no
// attribution).
func (t *RTreeIndex) InsertSpan(r rtree.Rect, key []byte, sp *obs.Span) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.afterPut(t.mem.put(r, key, false), sp)
}

// Delete records the removal of (rect, key): it cancels any in-memory live
// entry and inserts antimatter to cancel older disk entries.
func (t *RTreeIndex) Delete(r rtree.Rect, key []byte) error {
	return t.DeleteSpan(r, key, nil)
}

// DeleteSpan is Delete with wait-time attribution (see InsertSpan).
func (t *RTreeIndex) DeleteSpan(r rtree.Rect, key []byte, sp *obs.Span) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.afterPut(t.mem.put(r, key, true), sp)
}

// Search visits live keys whose rects intersect query, applying antimatter
// cancellation across components (newest wins); fn returning false stops.
func (t *RTreeIndex) Search(query rtree.Rect, fn func(r rtree.Rect, key []byte) bool) error {
	comps, mems := t.view()
	defer t.release(comps)

	seen := map[string]bool{} // pair already decided (live emitted or cancelled)
	stopped := false
	visit := func(e rtree.Entry) bool {
		key := e.Payload[1:]
		pk := pairKey(e.Rect, key)
		if seen[pk] {
			return true
		}
		seen[pk] = true
		if e.Payload[0] == 0 && !fn(e.Rect, append([]byte(nil), key...)) {
			stopped = true
		}
		return !stopped
	}
	for _, m := range mems {
		for _, e := range m.search(query) {
			if !visit(e) {
				return nil
			}
		}
	}
	for _, c := range comps {
		if err := c.idx.Search(query, visit); err != nil {
			return err
		}
		if stopped {
			return nil
		}
	}
	return nil
}
