package lsm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"asterix/internal/rtree"
	"asterix/internal/spatial"
)

// awkward coordinates sit where a float64's sign, order or range is at an
// edge: both zeros, both infinities, the largest finite values, NaN,
// subnormals, and a rectangle [-1, 1+2⁻⁵²] whose centre, 2⁻⁵³, is far
// smaller than the distance to its edges.
var awkward = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), 1, -1, 1 + 0x1p-52, 0x1p-53, 5e-324, -5e-324, 0x1p-1022,
}

// palette draws the rectangles of one history.
type palette struct {
	name string
	rect func(r *rand.Rand) rtree.Rect
}

// grid is a coordinate on a grid of quarters in [-25, 25], so that
// rectangles and queries overlap and touch.
func grid(r *rand.Rand) float64 { return float64(r.Intn(201)-100) / 4 }

func span(r *rand.Rand, coord func(*rand.Rand) float64) (float64, float64) {
	a, b := coord(r), coord(r)
	if r.Intn(50) > 0 && b < a {
		a, b = b, a // now and then left inverted, which a rect may be
	}
	return a, b
}

var palettes = []palette{
	// Points at any coordinate: the component's reach stays (about) 0.
	{"points", func(r *rand.Rand) rtree.Rect {
		c := func(r *rand.Rand) float64 {
			if r.Intn(8) == 0 {
				return awkward[r.Intn(len(awkward))]
			}
			return grid(r)
		}
		return rtree.PointRect(c(r), c(r))
	}},
	// Finite rectangles and points, with ±0 and the far-centre rectangle
	// among them: the reach is finite, so searches walk curve ranges.
	{"rects", func(r *rand.Rand) rtree.Rect {
		switch r.Intn(16) {
		case 0:
			return rtree.Rect{MinX: -1, MinY: grid(r), MaxX: 1 + 0x1p-52, MaxY: grid(r)}
		case 1:
			z := math.Copysign(0, -1)
			return rtree.Rect{MinX: z, MinY: z, MaxX: z, MaxY: grid(r)}
		case 2, 3:
			return rtree.PointRect(grid(r), grid(r))
		}
		x0, x1 := span(r, grid)
		y0, y1 := span(r, grid)
		return rtree.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}
	}},
	// Anything: infinite and NaN sides as well.
	{"awkward", func(r *rand.Rand) rtree.Rect {
		c := func(r *rand.Rand) float64 {
			if r.Intn(3) == 0 {
				return awkward[r.Intn(len(awkward))]
			}
			return grid(r)
		}
		x0, x1 := span(r, c)
		y0, y1 := span(r, c)
		return rtree.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}
	}},
}

// TestMemRTreeModel runs random histories of inserts, deletes, re-inserts
// and searches through an RTreeIndex against a brute-force oracle: a map
// from (rect bits, pk) to live or antimatter. Two flushes mid-history put
// pairs, and antimatter for them, in two disk components and memory, so
// searches span all three. After each step (every 256 steps once the
// memory component holds more than 512 entries) the memory component must
// hold exactly the pairs written since the last flush, in their states,
// every key's curve position must be its rect's, and every rect must lie,
// computed exactly, within the tracked reach of its centre. The
// "concurrent" history runs beside searchers that must see a set of pairs
// nobody writes exactly once, and each pair at most once, whatever the
// writer and the flushes are doing.
func TestMemRTreeModel(t *testing.T) {
	for _, p := range palettes {
		for _, steps := range []int{300, 4000} {
			t.Run(fmt.Sprintf("%s/%d", p.name, steps), func(t *testing.T) {
				memRTreeHistory(t, p, steps, 0, rand.New(rand.NewSource(int64(steps)+int64(len(p.name)))))
			})
		}
	}
	t.Run("concurrent", func(t *testing.T) {
		memRTreeHistory(t, palettes[1], 3000, 2, rand.New(rand.NewSource(7)))
	})
}

func memRTreeHistory(t *testing.T, p palette, steps, searchers int, r *rand.Rand) {
	bc, _ := newEnv(t, 1024, 1024)
	rt, err := OpenRTree(bc, "model/"+p.name, Options{MemBudget: 1 << 30, Policy: NoMergePolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}    // pair → live (false: antimatter)
	pending := map[string]bool{} // pair → tombstone, as the memory component must hold it
	var pairs []string
	write := func(pair []byte, tombstone bool) {
		var err error
		if tombstone {
			err = rt.Delete(rtree.DecodeRect(pair), pair[rectLen:])
		} else {
			err = rt.Insert(rtree.DecodeRect(pair), pair[rectLen:])
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := live[string(pair)]; !ok {
			pairs = append(pairs, string(pair))
		}
		live[string(pair)] = !tombstone
		pending[string(pair)] = tombstone
	}
	newPair := func() []byte {
		pk := ikey(r.Intn(1 << 20))[8-r.Intn(9):] // 0 to 8 bytes
		return appendPair(nil, p.rect(r), pk)
	}
	anyPair := func() []byte {
		if len(pairs) > 0 && r.Intn(5) > 0 {
			return []byte(pairs[r.Intn(len(pairs))])
		}
		return newPair()
	}
	// query is random, or shares one or more edges with a written rect.
	query := func() rtree.Rect {
		if len(pairs) == 0 || r.Intn(2) == 0 {
			x0, x1 := span(r, grid)
			y0, y1 := span(r, grid)
			q := rtree.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}
			if r.Intn(10) == 0 {
				q.MaxX = awkward[r.Intn(len(awkward))]
			}
			return q
		}
		e := rtree.DecodeRect([]byte(pairs[r.Intn(len(pairs))]))
		d := float64(r.Intn(8)) / 4
		switch r.Intn(6) {
		case 0:
			return rtree.Rect{MinX: e.MinX - d, MinY: e.MinY - d, MaxX: e.MinX, MaxY: e.MaxY + d}
		case 1:
			return rtree.Rect{MinX: e.MaxX, MinY: e.MinY - d, MaxX: e.MaxX + d, MaxY: e.MaxY + d}
		case 2:
			return rtree.Rect{MinX: e.MinX - d, MinY: e.MinY - d, MaxX: e.MaxX + d, MaxY: e.MinY}
		case 3:
			return rtree.Rect{MinX: e.MinX - d, MinY: e.MaxY, MaxX: e.MaxX + d, MaxY: e.MaxY + d}
		case 4:
			return rtree.PointRect(e.MaxX, e.MaxY)
		}
		return e
	}
	search := func(q rtree.Rect) {
		got := map[string]int{}
		err := rt.Search(q, func(rect rtree.Rect, key []byte) bool {
			got[string(appendPair(nil, rect, key))]++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		for pair, n := range got {
			if !live[pair] || n != 1 || !q.Intersects(rtree.DecodeRect([]byte(pair))) {
				t.Fatalf("search %v returned %v pk %x %d times; live %v", q, rtree.DecodeRect([]byte(pair)), pair[rectLen:], n, live[pair])
			}
		}
		for pair, l := range live {
			if l && got[pair] == 0 && q.Intersects(rtree.DecodeRect([]byte(pair))) {
				t.Fatalf("search %v missed %v pk %x", q, rtree.DecodeRect([]byte(pair)), pair[rectLen:])
			}
		}
	}

	// Searchers check the pairs written before they start, which the
	// history leaves alone: their pks are longer than any it writes.
	var stable []rtree.Rect
	stableKey := func(i int) []byte { return append(ikey(i), 's', 't') }
	for i := 0; i < 200*min(searchers, 1); i++ {
		e := p.rect(r)
		stable = append(stable, e)
		if err := rt.Insert(e, stableKey(i)); err != nil {
			t.Fatal(err)
		}
		live[string(appendPair(nil, e, stableKey(i)))] = true
		pending[string(appendPair(nil, e, stableKey(i)))] = false
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				x0, x1 := span(r, grid)
				y0, y1 := span(r, grid)
				q := rtree.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}
				got := map[string]int{}
				err := rt.Search(q, func(rect rtree.Rect, key []byte) bool {
					got[string(appendPair(nil, rect, key))]++
					return true
				})
				if err != nil {
					t.Error(err)
					return
				}
				for pair, n := range got {
					if n != 1 || !q.Intersects(rtree.DecodeRect([]byte(pair))) {
						t.Errorf("search %v returned %v %d times", q, rtree.DecodeRect([]byte(pair)), n)
						return
					}
				}
				for i, e := range stable {
					if q.Intersects(e) && got[string(appendPair(nil, e, stableKey(i)))] != 1 {
						t.Errorf("search %v missed stable pair %v", q, e)
						return
					}
				}
			}
		}(int64(g))
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	for step := 0; step < steps && !t.Failed(); step++ {
		switch op := r.Intn(10); {
		case op < 4:
			write(newPair(), false)
		case op < 6:
			write(anyPair(), true) // a delete, of a pair that may never have been written
		case op < 7:
			write(anyPair(), false) // a re-insert, or an insert of a live pair
		default:
			search(query())
		}
		if step == steps/3 || step == 2*steps/3 {
			flushed := 0 // an entry with a NaN coordinate is not written
			for pair := range pending {
				if everything.Intersects(rtree.DecodeRect([]byte(pair))) {
					flushed++
				}
			}
			if err := rt.Flush(); err != nil {
				t.Fatal(err)
			}
			comps, _ := rt.view()
			n := comps[0].idx.Count()
			rt.release(comps)
			if n != int64(flushed) {
				t.Fatalf("flushed component holds %d entries, memory held %d without a NaN", n, flushed)
			}
			clear(pending)
		}
		if len(pending) <= 512 || step%256 == 0 {
			checkMemRTree(t, rt.mem, pending)
		}
	}
	checkMemRTree(t, rt.mem, pending)
	search(everything)
}

// checkMemRTree checks a memory component against the pairs written to it
// since its last flush: it holds each once, in its state, under its rect's
// curve position, and its reach bounds the exact distance from every
// rect's centre to the rect's edges.
func checkMemRTree(t *testing.T, m *memRTree, pending map[string]bool) {
	t.Helper()
	entries := m.t.run(nil, nil, nil, math.MaxInt)
	if len(entries) != len(pending) || m.len() != len(pending) {
		t.Fatalf("memory component holds %d entries (len %d), want %d", len(entries), m.len(), len(pending))
	}
	m.mu.RLock()
	reach := m.reach
	m.mu.RUnlock()
	for _, e := range entries {
		pair := e.key[curveLen:]
		tomb, ok := pending[string(pair)]
		r := rtree.DecodeRect(pair)
		if !ok || tomb != e.tombstone {
			t.Fatalf("entry %v pk %x tombstone %v: pending %v %v", r, pair[rectLen:], e.tombstone, ok, tomb)
		}
		cx, cy := centre(r.MinX, r.MaxX), centre(r.MinY, r.MaxY)
		if c := binary.BigEndian.Uint64(e.key); c != spatial.Hilbert(cell(cx), cell(cy)) {
			t.Fatalf("entry %v sits at curve position %x, its centre's is %x", r, c, spatial.Hilbert(cell(cx), cell(cy)))
		}
		if !within(cx, r.MinX, r.MaxX, reach) || !within(cy, r.MinY, r.MaxY, reach) {
			t.Fatalf("entry %v reaches farther than %v from its centre (%v, %v)", r, reach, cx, cy)
		}
	}
}

// within reports whether [lo, hi] lies within reach of c, computed
// exactly. A NaN side meets no query and is exempt; an infinite one needs
// an infinite reach unless the rect is a point there.
func within(c, lo, hi, reach float64) bool {
	switch {
	case lo != lo || hi != hi || math.IsInf(reach, 1) || lo == c && hi == c:
		return true
	case math.IsInf(lo, 0) || math.IsInf(hi, 0) || math.IsInf(c, 0):
		return false
	}
	// a - b <= reach: the rounded difference is within half a step of the
	// exact one, so a step up within reach settles it; else compute it.
	le := func(a, b float64) bool {
		if math.Nextafter(a-b, math.Inf(1)) <= reach {
			return true
		}
		d := new(big.Float).SetPrec(2200).Sub(big.NewFloat(a), big.NewFloat(b))
		return d.Cmp(big.NewFloat(reach)) <= 0
	}
	return le(c, lo) && le(hi, c)
}

// TestMemRTreeEdges pins the cases that the reach's rounding and the
// lattice interval's extra cells exist for; each rect must be found by its
// query. The first rect's centre, 2⁹⁴⁷, is far smaller than its distance
// to -2¹⁰⁰⁰, which rounds down by 2⁹⁴⁷: the query that ends at -2¹⁰⁰⁰ is
// grown to end at 0, below the centre. The second's centre is -0, one cell
// below the +0 its query starts at.
func TestMemRTreeEdges(t *testing.T) {
	for _, c := range []struct{ rect, query rtree.Rect }{
		{rtree.Rect{MinX: -0x1p1000, MinY: 0, MaxX: 0x1p1000 + 0x1p948, MaxY: 0}, rtree.Rect{MinX: -0x1p1001, MinY: -1, MaxX: -0x1p1000, MaxY: 1}},
		{rtree.PointRect(math.Copysign(0, -1), 3), rtree.Rect{MinX: 0, MinY: 1, MaxX: 5, MaxY: 4}},
	} {
		m := rtreeKind{}.newMem()
		m.put(c.rect, []byte("k"), false)
		if got := m.search(c.query); len(got) != 1 {
			t.Errorf("search %v found %d entries, want %v", c.query, len(got), c.rect)
		}
	}
}

// BenchmarkRTreeSearch times a search of 50 000 random points held in the
// memory component, per search and per entry found, with a 10×10 query in
// a 1000×1000 world (about five entries each).
func BenchmarkRTreeSearch(b *testing.B) {
	bc, _ := newEnv(b, 4096, 256)
	rt, err := OpenRTree(bc, "bench/search", Options{MemBudget: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 50000; i++ {
		if err := rt.Insert(rtree.PointRect(r.Float64()*1000, r.Float64()*1000), ikey(i)); err != nil {
			b.Fatal(err)
		}
	}
	found := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := r.Float64()*990, r.Float64()*990
		if err := rt.Search(rtree.Rect{MinX: x, MinY: y, MaxX: x + 10, MaxY: y + 10}, func(rtree.Rect, []byte) bool {
			found++
			return true
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/search")
	b.ReportMetric(float64(found)/float64(b.N), "found/search")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/search")
}
