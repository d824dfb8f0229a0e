package spatial

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

func TestZOrderInterleaving(t *testing.T) {
	// x=0b11, y=0b00 -> 0b0101
	if got := ZOrder(3, 0); got != 0b0101 {
		t.Errorf("ZOrder(3,0) = %b", got)
	}
	// x=0, y=0b11 -> 0b1010
	if got := ZOrder(0, 3); got != 0b1010 {
		t.Errorf("ZOrder(0,3) = %b", got)
	}
	if ZOrder(0, 0) != 0 {
		t.Error("origin should map to 0")
	}
}

func TestZOrderInjective(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	seen := map[uint64][2]uint32{}
	for i := 0; i < 20000; i++ {
		x, y := r.Uint32(), r.Uint32()
		z := ZOrder(x, y)
		if prev, ok := seen[z]; ok && (prev[0] != x || prev[1] != y) {
			t.Fatalf("collision: (%d,%d) and (%d,%d) -> %d", prev[0], prev[1], x, y, z)
		}
		seen[z] = [2]uint32{x, y}
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// On a small grid, consecutive Hilbert positions must be adjacent
	// cells (the curve's defining property). Test an 8x8 corner of the
	// big lattice by enumerating positions 0..63 via inverse search.
	pos := map[uint64][2]uint32{}
	for x := uint32(0); x < 8; x++ {
		for y := uint32(0); y < 8; y++ {
			h := Hilbert(x<<29, y<<29) // scale up to top 3 bits
			pos[h>>58] = [2]uint32{x, y}
		}
	}
	if len(pos) != 64 {
		t.Fatalf("expected 64 distinct positions, got %d", len(pos))
	}
	for d := uint64(1); d < 64; d++ {
		a, b := pos[d-1], pos[d]
		dx := int(a[0]) - int(b[0])
		dy := int(a[1]) - int(b[1])
		if dx*dx+dy*dy != 1 {
			t.Fatalf("positions %d and %d not adjacent: %v -> %v", d-1, d, a, b)
		}
	}
}

func TestHilbertInjective(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	seen := map[uint64][2]uint32{}
	for i := 0; i < 20000; i++ {
		x, y := r.Uint32(), r.Uint32()
		h := Hilbert(x, y)
		if prev, ok := seen[h]; ok && (prev[0] != x || prev[1] != y) {
			t.Fatalf("collision: (%d,%d) and (%d,%d)", prev[0], prev[1], x, y)
		}
		seen[h] = [2]uint32{x, y}
	}
}

// hilbertBranching is the textbook form of Hilbert, a branch per bit,
// whose positions every stored HILBERT index key was made with.
func hilbertBranching(x, y uint32) uint64 {
	var d uint64
	for s := uint32(1) << (CurveOrder - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}

// TestHilbertMatchesBranching: the branch-free Hilbert gives every point
// the position the branching form does, so keys already stored stay put.
func TestHilbertMatchesBranching(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	edges := []uint32{0, 1, 2, 1 << 31, 1<<31 - 1, 1<<32 - 1, 1<<32 - 2, 0x55555555, 0xAAAAAAAA}
	for i := 0; i < 200000; i++ {
		x, y := r.Uint32(), r.Uint32()
		if i < len(edges)*len(edges) {
			x, y = edges[i%len(edges)], edges[i/len(edges)]
		}
		if got, want := Hilbert(x, y), hilbertBranching(x, y); got != want {
			t.Fatalf("Hilbert(%#x, %#x) = %#x, want %#x", x, y, got, want)
		}
	}
}

func TestNormalizerClamps(t *testing.T) {
	n := Normalizer{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	if x, y := n.Lattice(-5, 200); x != 0 || y != latticeMax {
		t.Errorf("clamp failed: %d, %d", x, y)
	}
	x1, _ := n.Lattice(10, 0)
	x2, _ := n.Lattice(20, 0)
	if x1 >= x2 {
		t.Error("lattice mapping must be monotone")
	}
}

func TestGridCells(t *testing.T) {
	g := Grid{Norm: Normalizer{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, W: 10, H: 10}
	if c := g.Cell(5, 5); c != 0 {
		t.Errorf("cell(5,5) = %d", c)
	}
	if c := g.Cell(95, 95); c != 99 {
		t.Errorf("cell(95,95) = %d", c)
	}
	if c := g.Cell(150, -10); c != 9 {
		t.Errorf("out-of-world point should clamp: %d", c)
	}
	// x cells 1..3, y cells 1..2: one range of three cells per row.
	if rs := g.CellRanges(12, 12, 38, 27); !slices.Equal(rs, []CurveRange{{11, 13}, {21, 23}}) {
		t.Errorf("CellRanges returned %v", rs)
	}
}

// Property: for any box and budget from 1 to 512, the curve ranges are
// at most the budget, they cover every sampled point of the box, and every
// quad the decomposition emits meets the box. The quads are read back
// through Z-order, where a quad's range starts at its origin's position:
// each runs from its origin's position to the next one or to the end of
// its merged range.
func TestPropCurveRangesCoverQuery(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		w, h := uint32(r.Int63n(1<<32)>>r.Intn(33)), uint32(r.Int63n(1<<32)>>r.Intn(33))
		x0, y0 := uint32(r.Int63n(int64(^w)+1)), uint32(r.Int63n(int64(^h)+1))
		x1, y1 := x0+w, y0+h
		budget := 1 + r.Intn(512)
		var origins [][2]uint32
		zorder := func(x, y uint32) uint64 {
			origins = append(origins, [2]uint32{x, y})
			return ZOrder(x, y)
		}
		for _, curve := range []struct {
			name string
			rs   []CurveRange
			f    func(x, y uint32) uint64
		}{
			{"zorder", curveRanges(x0, y0, x1, y1, budget, zorder), ZOrder},
			{"hilbert", HilbertRanges(x0, y0, x1, y1, budget), Hilbert},
		} {
			if len(curve.rs) == 0 || len(curve.rs) > budget {
				t.Fatalf("%s: %d ranges at budget %d", curve.name, len(curve.rs), budget)
			}
			// Sample points inside the box; each must fall in some range.
			for s := 0; s < 100; s++ {
				px := x0 + uint32(r.Int63n(int64(w)+1))
				py := y0 + uint32(r.Int63n(int64(h)+1))
				if s < 4 {
					px, py = [2]uint32{x0, x1}[s%2], [2]uint32{y0, y1}[s/2]
				}
				pos := curve.f(px, py)
				if i := rangeOf(curve.rs, pos); i < 0 {
					t.Fatalf("%s: point (%d,%d) pos %d not covered by %v",
						curve.name, px, py, pos, curve.rs)
				}
			}
		}
		slices.SortFunc(origins, func(a, b [2]uint32) int { return cmp.Compare(ZOrder(a[0], a[1]), ZOrder(b[0], b[1])) })
		rs := ZOrderRanges(x0, y0, x1, y1, budget)
		for i, o := range origins {
			lo := ZOrder(o[0], o[1])
			hi := rs[rangeOf(rs, lo)].Hi
			if i+1 < len(origins) {
				hi = min(hi, ZOrder(origins[i+1][0], origins[i+1][1])-1)
			}
			// The quad's side is the square root of its length, 2^32 for
			// the whole curve, whose length overflows to 0.
			side := uint64(1) << 32
			if n := hi - lo + 1; n != 0 {
				side = uint64(1) << (bits.TrailingZeros64(n) / 2)
				if side*side != n || lo%n != 0 {
					t.Fatalf("box (%d,%d)-(%d,%d), budget %d: range [%d, %d] is no quad", x0, y0, x1, y1, budget, lo, hi)
				}
			}
			if uint64(o[0]) > uint64(x1) || uint64(o[0])+side <= uint64(x0) || uint64(o[1]) > uint64(y1) || uint64(o[1])+side <= uint64(y0) {
				t.Fatalf("box (%d,%d)-(%d,%d), budget %d: the quad of side %d at (%d,%d) misses it", x0, y0, x1, y1, budget, side, o[0], o[1])
			}
		}
	}
}

// rangeOf returns the index of the range of rs holding pos, or -1.
func rangeOf(rs []CurveRange, pos uint64) int {
	for i, rg := range rs {
		if pos >= rg.Lo && pos <= rg.Hi {
			return i
		}
	}
	return -1
}

func TestCurveRangesMerged(t *testing.T) {
	rs := ZOrderRanges(0, 0, 1<<31, 1<<31, 64)
	for i := 1; i < len(rs); i++ {
		if rs[i].Lo <= rs[i-1].Hi {
			t.Fatalf("ranges overlap or unsorted: %v", rs)
		}
	}
}
