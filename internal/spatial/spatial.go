// Package spatial provides the space-filling curves and grid partitioning
// used by the alternative spatial indexes of the paper's Section V-B study
// [23]: Z-order (bit interleaving) and Hilbert linearizations for
// LSM-B+tree-over-transformed-keys indexes, and a uniform grid for
// grid-based indexing.
package spatial

import (
	"cmp"
	"slices"
)

// CurveOrder is the number of bits per dimension used by the
// linearizations (32 bits → 64-bit curve positions).
const CurveOrder = 32

// Normalizer maps floating-point coordinates in a bounded world (Min <
// Max on both axes) to the integer lattice the curves operate on.
type Normalizer struct {
	MinX, MinY, MaxX, MaxY float64
}

const latticeMax = (1 << CurveOrder) - 1

// Lattice maps (x, y) to lattice coordinates, clamping to the world.
func (n Normalizer) Lattice(x, y float64) (uint32, uint32) {
	fx := (x - n.MinX) / (n.MaxX - n.MinX)
	fy := (y - n.MinY) / (n.MaxY - n.MinY)
	return clamp01ToLattice(fx), clamp01ToLattice(fy)
}

func clamp01ToLattice(f float64) uint32 {
	if f <= 0 {
		return 0
	}
	if f >= 1 {
		return latticeMax
	}
	return uint32(f * float64(latticeMax+1))
}

// ZOrder interleaves the bits of x and y (x in even positions), producing
// the Morton code of the point.
func ZOrder(x, y uint32) uint64 {
	return spreadBits(x) | spreadBits(y)<<1
}

// spreadBits spaces the 32 bits of v into the even bit positions of a
// uint64 (the classic "interleave with magic numbers" routine).
func spreadBits(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// Hilbert returns the Hilbert-curve position of (x, y) on a 2^CurveOrder
// square grid. Unlike Z-order, consecutive curve positions are always
// adjacent cells, which gives better range-query clustering. Each level
// reads one bit of x and y through the rotations of the quadrants above
// it, which come down to two parities: sw (x and y swapped) and fl (both
// flipped). Masks apply them without branches, which random points would
// mispredict.
func Hilbert(x, y uint32) uint64 {
	var d uint64
	var sw, fl uint32
	for i := CurveOrder - 1; i >= 0; i-- {
		bx, by := x>>i&1, y>>i&1
		t := (bx ^ by) & sw
		rx, ry := bx^t^fl, by^t^fl
		d = d<<2 | uint64((3*rx)^ry)
		fl ^= rx &^ ry // quadrant (1, 0) flips the rest
		sw ^= ry ^ 1   // quadrants (0, 0) and (1, 0) swap it
	}
	return d
}

// Grid is a uniform W×H grid (W, H >= 1) over a world rectangle; cells
// are numbered row-major.
type Grid struct {
	Norm Normalizer
	W, H int
}

// Cell returns the cell containing (x, y).
func (g Grid) Cell(x, y float64) int {
	cx := g.cellX(x)
	cy := g.cellY(y)
	return cy*g.W + cx
}

func (g Grid) cellX(x float64) int {
	f := (x - g.Norm.MinX) / (g.Norm.MaxX - g.Norm.MinX)
	c := int(f * float64(g.W))
	if c < 0 {
		c = 0
	}
	if c >= g.W {
		c = g.W - 1
	}
	return c
}

func (g Grid) cellY(y float64) int {
	f := (y - g.Norm.MinY) / (g.Norm.MaxY - g.Norm.MinY)
	c := int(f * float64(g.H))
	if c < 0 {
		c = 0
	}
	if c >= g.H {
		c = g.H - 1
	}
	return c
}

// CellRanges returns the cells overlapping the query rectangle as one
// range of consecutive cell ids per row.
func (g Grid) CellRanges(minX, minY, maxX, maxY float64) []CurveRange {
	x0, x1 := g.cellX(minX), g.cellX(maxX)
	y0, y1 := g.cellY(minY), g.cellY(maxY)
	out := make([]CurveRange, 0, y1-y0+1)
	for cy := y0; cy <= y1; cy++ {
		out = append(out, CurveRange{Lo: uint64(cy*g.W + x0), Hi: uint64(cy*g.W + x1)})
	}
	return out
}

// World is the one world of the curve and grid indexes: geographic
// coordinates, on a 64×64 grid. A point outside it is clamped to its edge.
var World = Grid{Norm: Normalizer{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}, W: 64, H: 64}

// RangeBudget caps the ranges a curve decomposition spends on one search,
// by a curve index and by the R-tree's memory component alike. Past it,
// quads are covered whole, and the exact test after the index drops what
// they add: fewer, looser ranges trade candidates for seeks.
const RangeBudget = 128

// CurveRange describes one contiguous run of curve positions.
type CurveRange struct{ Lo, Hi uint64 }

// ZOrderRanges decomposes a query rectangle (in lattice coordinates) into
// at most maxRanges contiguous Z-order intervals covering it. The
// decomposition recursively splits the quadtree induced by the curve; when
// the budget is exhausted, remaining regions are covered conservatively
// (supersets), so callers must still post-filter by the true predicate.
func ZOrderRanges(x0, y0, x1, y1 uint32, maxRanges int) []CurveRange {
	return curveRanges(x0, y0, x1, y1, maxRanges, ZOrder)
}

// HilbertRanges is ZOrderRanges for the Hilbert curve.
func HilbertRanges(x0, y0, x1, y1 uint32, maxRanges int) []CurveRange {
	return curveRanges(x0, y0, x1, y1, maxRanges, Hilbert)
}

// curveRanges performs breadth-first quadtree decomposition of the query
// box, emitting a curve interval per fully-covered quad cell. Partially-
// covered cells split level by level, and only the children that meet the
// box go on, until the range budget is reached; the pending cells are then
// emitted as conservative whole-cell intervals - BFS distributes the
// budget evenly over the box instead of refining one corner.
func curveRanges(x0, y0, x1, y1 uint32, maxRanges int, curve func(x, y uint32) uint64) []CurveRange {
	type quad struct {
		qx, qy uint32 // cell origin in lattice coords
		size   uint64 // cell edge length (power of two), up to 2^32
	}
	emitCell := func(out []CurveRange, q quad) []CurveRange {
		// For both Z-order and Hilbert, an aligned power-of-two quad
		// cell maps to one contiguous, n-aligned curve run of size^2.
		lo := curve(q.qx, q.qy)
		n := q.size * q.size
		base := lo &^ (n - 1)
		return append(out, CurveRange{Lo: base, Hi: base + n - 1})
	}
	meets := func(q quad) bool {
		return uint64(x0) < uint64(q.qx)+q.size && uint64(x1) >= uint64(q.qx) &&
			uint64(y0) < uint64(q.qy)+q.size && uint64(y1) >= uint64(q.qy)
	}
	covers := func(q quad) bool {
		return uint64(x0) <= uint64(q.qx) && uint64(x1) >= uint64(q.qx)+q.size-1 &&
			uint64(y0) <= uint64(q.qy) && uint64(y1) >= uint64(q.qy)+q.size-1
	}
	// Emitted + pending cells never exceed the budget, so out, level and
	// next are allocated once, whatever the number of ranges.
	b := max(maxRanges, 1)
	out, qs := make([]CurveRange, 0, b), make([]quad, 2*b)
	level, next := append(qs[:0:b], quad{0, 0, 1 << CurveOrder}), qs[b:b] // the root meets every box
	for len(level) > 0 {
		// Refining this level can at worst quadruple the pending cells;
		// stop when emitted + pending would exceed the budget.
		if len(out)+4*len(level) > b {
			for _, q := range level {
				out = emitCell(out, q)
			}
			break
		}
		next = next[:0]
		for _, q := range level {
			if q.size == 1 || covers(q) {
				out = emitCell(out, q)
				continue
			}
			h := q.size / 2
			for _, c := range [4]quad{{q.qx, q.qy, h}, {q.qx + uint32(h), q.qy, h}, {q.qx, q.qy + uint32(h), h}, {q.qx + uint32(h), q.qy + uint32(h), h}} {
				if meets(c) {
					next = append(next, c)
				}
			}
		}
		level, next = next, level
	}
	return mergeRanges(out)
}

// mergeRanges sorts and coalesces overlapping/adjacent intervals.
func mergeRanges(rs []CurveRange) []CurveRange {
	if len(rs) <= 1 {
		return rs
	}
	slices.SortFunc(rs, func(a, b CurveRange) int { return cmp.Compare(a.Lo, b.Lo) })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if last.Hi == ^uint64(0) || r.Lo <= last.Hi+1 {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}
