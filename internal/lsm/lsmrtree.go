package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"asterix/internal/obs"
	"asterix/internal/rtree"
	"asterix/internal/spatial"
	"asterix/internal/storage"
)

// RTreeIndex is an LSM R-tree: a memory component plus immutable
// STR-packed disk R-tree components. Deletes are antimatter entries that
// cancel matching (rect, key) pairs in older components — the design the
// paper says was adopted into AsterixDB after the Section V-B study. A disk
// entry's payload is a flag byte (1 = antimatter) and the primary key.
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

// memRTree is the R-tree's memory component: a memTable whose key for the
// pair (r, pk) is
//
//	Hilbert curve position of r's centre's cell ‖ r's coordinates' bits ‖ pk
//
// with an empty value, the pair's state (live or antimatter) being the
// entry's tombstone flag, so a put replaces whatever the pair had pending.
// A search grows the query by reach, the farthest any entry extends from
// its centre, and keeps, of the entries under the grown box's curve
// ranges, those whose rectangles meet the query. mu makes a put's reach
// and entry one step to a search, and a search one view of the component.
type memRTree struct {
	mu    sync.RWMutex
	t     *memTable
	reach float64
	bytes int
	key   []byte // put's key buffer
}

const (
	curveLen = 8  // a memRTree key's curve position, before its (rect, pk) pair
	rectLen  = 32 // a pair's rect, before its pk
)

// put replaces the pair's pending state (live or antimatter) and returns
// the byte-size delta, len(key)+64 whether or not the pair was pending:
// an insert revives a pending antimatter entry, a delete cancels a pending
// live one and leaves antimatter for older disk components.
func (m *memRTree) put(r rtree.Rect, key []byte, tombstone bool) int {
	cx, cy := centre(r.MinX, r.MaxX), centre(r.MinY, r.MaxY)
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := extent(r, cx, cy); e > m.reach {
		m.reach = e
	}
	m.key = appendPair(binary.BigEndian.AppendUint64(m.key[:0], spatial.Hilbert(cell(cx), cell(cy))), r, key)
	m.t.put(m.key, nil, tombstone)
	delta := len(key) + 64
	m.bytes += delta
	return delta
}

// search returns the entries, live and antimatter, whose rectangles meet
// query. The caller visits them outside the lock: memTable bytes are never
// rewritten, so a visitor may itself use the index. An empty component
// (every search of a just-flushed index) costs no curve decomposition.
func (m *memRTree) search(query rtree.Rect) []memEntry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.t.len() == 0 {
		return nil
	}
	x0, x1 := cells(query.MinX, query.MaxX, m.reach)
	y0, y1 := cells(query.MinY, query.MaxY, m.reach)
	var out, run []memEntry
	var lo, next [curveLen]byte
	for _, c := range spatial.HilbertRanges(x0, y0, x1, y1, spatial.RangeBudget) {
		binary.BigEndian.PutUint64(lo[:], c.Lo)
		var hi []byte // nil: to the end
		if c.Hi < math.MaxUint64 {
			binary.BigEndian.PutUint64(next[:], c.Hi+1)
			hi = next[:] // below every key at c.Hi+1, above every key before it
		}
		run = m.t.run(lo[:], hi, run[:0], math.MaxInt)
		for _, e := range run {
			if query.Intersects(rtree.DecodeRect(e.key[curveLen:])) {
				out = append(out, e)
			}
		}
	}
	return out
}

func (m *memRTree) len() int { return m.t.len() }

func (m *memRTree) size() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes
}

// cell maps x to the lattice the curve runs on: the top 32 bits of its
// float64 bits, ordered as the numbers are (a negative number's bits
// flipped, a positive one's sign bit set). -0 lands one cell below +0.
func cell(x float64) uint32 {
	b := math.Float64bits(x)
	if b>>63 == 1 {
		b = ^b
	} else {
		b |= 1 << 63
	}
	return uint32(b >> 32)
}

// centre is the middle of [lo, hi], halved first so that it cannot
// overflow; 0 where there is none ([-Inf, +Inf], or a NaN bound).
func centre(lo, hi float64) float64 {
	if c := lo/2 + hi/2; c == c {
		return c
	}
	return 0
}

// extent bounds how far r reaches from (cx, cy) along either axis: the
// rounded distance is stepped up one float so that it is never below the
// exact one. It is +Inf for a rectangle with an infinite side, and NaN for
// one with a NaN coordinate, which meets no rectangle, the plane included.
func extent(r rtree.Rect, cx, cy float64) float64 {
	e := max(cx-r.MinX, r.MaxX-cx, cy-r.MinY, r.MaxY-cy)
	switch {
	case e != e && everything.Intersects(r):
		return math.Inf(1) // an infinite side: Inf - Inf
	case e > 0:
		return math.Nextafter(e, math.Inf(1))
	}
	return e
}

// cells returns the lattice interval that holds the centre of every entry
// that meets [lo, hi] and reaches at most reach from its centre. Such a
// centre c has lo-reach <= c <= hi+reach, and rounding those bounds to
// float64s keeps c inside them; the interval is one cell wider on each
// side for a centre of -0 against a bound of +0.
func cells(lo, hi, reach float64) (uint32, uint32) {
	a, b := lo-reach, hi+reach
	if a != a {
		a = math.Inf(-1)
	}
	if b != b {
		b = math.Inf(1)
	}
	return max(cell(a), 1) - 1, min(cell(b), math.MaxUint32-1) + 1
}

// everything intersects every rectangle without a NaN coordinate.
var everything = rtree.Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)}

// appendPair appends the (rect, primary key) pair — the unit antimatter
// cancels — as the rect's coordinate bits followed by the key.
func appendPair(b []byte, r rtree.Rect, key []byte) []byte {
	return append(rtree.AppendRect(b, r), key...)
}

// rtreeKind LSM-ifies the R-tree.
type rtreeKind struct{}

func (rtreeKind) fileTag() byte { return 'r' }

func (rtreeKind) newMem() *memRTree { return &memRTree{t: newMemTable()} }

// build rebuilds each memory entry as a disk one: its rect, and the flag
// byte before its primary key. An entry with a NaN coordinate meets no
// query, not even everything, so no search could reach it on disk and no
// merge would keep it: it is not written.
func (rtreeKind) build(bc *storage.BufferCache, file storage.FileID, mem *memRTree) (*rtree.DiskRTree, error) {
	entries := make([]rtree.Entry, 0, mem.len())
	for c := mem.t.cursor(nil, nil); c.valid(); c.next() {
		e := c.batch[c.i]
		if r := rtree.DecodeRect(e.key[curveLen:]); everything.Intersects(r) {
			entries = append(entries, rtree.Entry{Rect: r, Payload: appendFlagged(make([]byte, 0, len(e.key)-curveLen-rectLen+1), e.key[curveLen+rectLen:], e.tombstone)})
		}
	}
	return rtree.BuildDisk(bc, file, entries)
}

// merge walks the victims newest first; the first sighting of a pair
// decides it, so antimatter cancels the older live entries behind it.
func (rtreeKind) merge(bc *storage.BufferCache, file storage.FileID, victims []*rtree.DiskRTree, dropAntimatter bool) (*rtree.DiskRTree, error) {
	decided := map[string]bool{}
	var keep []rtree.Entry
	var pair []byte
	for _, v := range victims {
		err := v.Search(everything, func(e rtree.Entry) bool {
			pair = appendPair(pair[:0], e.Rect, e.Payload[1:])
			if !decided[string(pair)] {
				decided[string(pair)] = true
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
	visit := func(pair []byte, tombstone bool) bool {
		if seen[string(pair)] {
			return true
		}
		seen[string(pair)] = true
		if !tombstone && !fn(rtree.DecodeRect(pair), bytes.Clone(pair[rectLen:])) {
			stopped = true
		}
		return !stopped
	}
	for _, m := range mems {
		for _, e := range m.search(query) {
			if !visit(e.key[curveLen:], e.tombstone) {
				return nil
			}
		}
	}
	var pair []byte
	for _, c := range comps {
		err := c.idx.Search(query, func(e rtree.Entry) bool {
			pair = appendPair(pair[:0], e.Rect, e.Payload[1:])
			return visit(pair, e.Payload[0] == 1)
		})
		if err != nil {
			return err
		}
		if stopped {
			return nil
		}
	}
	return nil
}
