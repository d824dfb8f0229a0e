// Package rtree implements the disk R-tree of the LSM R-tree: an
// immutable, STR-bulk-packed on-disk R-tree, built by a flush or a merge
// and then only searched (the memory component is internal/lsm's memTable,
// keyed by a Hilbert curve). Per the paper's Section V-B conclusion, the
// R-tree is the spatial index AsterixDB ships: it handles point and
// non-point data alike. Every leaf entry stores its whole rectangle, 32
// bytes, a point's too (Min == Max): the packed point-leaf format of the
// paper's "small improvement for storage efficiency" is not implemented.
package rtree

import (
	"cmp"
	"math"
	"slices"
)

// Rect is an axis-aligned rectangle (a point has Min == Max).
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// PointRect makes a degenerate rectangle for a point.
func PointRect(x, y float64) Rect { return Rect{x, y, x, y} }

// Intersects reports rectangle overlap (closed boundaries).
func (r Rect) Intersects(o Rect) bool {
	return r.MinX <= o.MaxX && o.MinX <= r.MaxX && r.MinY <= o.MaxY && o.MinY <= r.MaxY
}

// Union returns the bounding box of both rectangles.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		MinX: math.Min(r.MinX, o.MinX),
		MinY: math.Min(r.MinY, o.MinY),
		MaxX: math.Max(r.MaxX, o.MaxX),
		MaxY: math.Max(r.MaxY, o.MaxY),
	}
}

// Entry is a spatial key with an opaque payload (typically an encoded
// primary key).
type Entry struct {
	Rect    Rect
	Payload []byte
}

// STRSort orders entries by the Sort-Tile-Recursive packing order (sort by
// x-center into vertical slices, then by y-center within each slice),
// which is how disk components are bulk-packed.
func STRSort(entries []Entry, nodeCap int) {
	if len(entries) == 0 {
		return
	}
	slices.SortFunc(entries, func(a, b Entry) int {
		return cmp.Compare(a.Rect.MinX+a.Rect.MaxX, b.Rect.MinX+b.Rect.MaxX)
	})
	leaves := (len(entries) + nodeCap - 1) / nodeCap
	sliceCount := int(math.Ceil(math.Sqrt(float64(leaves))))
	if sliceCount < 1 {
		sliceCount = 1
	}
	sliceSize := sliceCount * nodeCap
	for off := 0; off < len(entries); off += sliceSize {
		end := off + sliceSize
		if end > len(entries) {
			end = len(entries)
		}
		slices.SortFunc(entries[off:end], func(a, b Entry) int {
			return cmp.Compare(a.Rect.MinY+a.Rect.MaxY, b.Rect.MinY+b.Rect.MaxY)
		})
	}
}
