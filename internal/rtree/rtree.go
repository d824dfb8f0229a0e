// Package rtree implements R-trees for spatial indexing: an in-memory
// R-tree with quadratic split (used as an LSM memory component and for
// standalone indexing) and an immutable, STR-bulk-packed on-disk R-tree
// (used as an LSM disk component). Per the paper's Section V-B conclusion,
// the R-tree is the spatial index AsterixDB ships: it handles point and
// non-point data alike; point entries are stored without degenerate
// bounding boxes (the "small improvement for storage efficiency" the paper
// mentions is reflected here by the packed point-leaf format).
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

// Contains reports whether o lies fully inside r.
func (r Rect) Contains(o Rect) bool {
	return r.MinX <= o.MinX && r.MinY <= o.MinY && r.MaxX >= o.MaxX && r.MaxY >= o.MaxY
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

// Area returns the rectangle's area.
func (r Rect) Area() float64 { return (r.MaxX - r.MinX) * (r.MaxY - r.MinY) }

// enlargement returns the area growth of r needed to include o.
func (r Rect) enlargement(o Rect) float64 { return r.Union(o).Area() - r.Area() }

// Entry is a spatial key with an opaque payload (typically an encoded
// primary key).
type Entry struct {
	Rect    Rect
	Payload []byte
}

const (
	maxEntries = 16
	minEntries = maxEntries * 2 / 5
)

type memNode struct {
	leaf     bool
	rect     Rect
	entries  []Entry    // leaf
	children []*memNode // interior
}

// RTree is an in-memory R-tree with quadratic node splitting.
type RTree struct {
	root  *memNode
	count int
}

// New creates an empty in-memory R-tree.
func New() *RTree {
	return &RTree{root: &memNode{leaf: true}}
}

// Len returns the number of entries.
func (t *RTree) Len() int { return t.count }

// Insert adds an entry.
func (t *RTree) Insert(rect Rect, payload []byte) {
	e := Entry{Rect: rect, Payload: append([]byte(nil), payload...)}
	n1, n2 := t.insert(t.root, e)
	if n2 != nil {
		// Root split.
		root := &memNode{leaf: false, children: []*memNode{n1, n2}}
		root.rect = n1.rect.Union(n2.rect)
		t.root = root
	}
	t.count++
}

func (t *RTree) insert(n *memNode, e Entry) (*memNode, *memNode) {
	if n.leaf {
		n.entries = append(n.entries, e)
		if len(n.entries) == 1 {
			n.rect = e.Rect
		} else {
			n.rect = n.rect.Union(e.Rect)
		}
		if len(n.entries) > maxEntries {
			return t.splitLeaf(n)
		}
		return n, nil
	}
	// Choose the child needing least enlargement (ties: smaller area).
	best := 0
	bestEnl := math.Inf(1)
	for i, c := range n.children {
		enl := c.rect.enlargement(e.Rect)
		if enl < bestEnl || (enl == bestEnl && c.rect.Area() < n.children[best].rect.Area()) {
			best, bestEnl = i, enl
		}
	}
	c1, c2 := t.insert(n.children[best], e)
	n.children[best] = c1
	if c2 != nil {
		n.children = append(n.children, c2)
	}
	n.rect = n.children[0].rect
	for _, c := range n.children[1:] {
		n.rect = n.rect.Union(c.rect)
	}
	if len(n.children) > maxEntries {
		return t.splitInterior(n)
	}
	return n, nil
}

// quadratic seed selection: the pair wasting the most area together.
func pickSeeds(rects []Rect) (int, int) {
	s1, s2, worst := 0, 1, math.Inf(-1)
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			d := rects[i].Union(rects[j]).Area() - rects[i].Area() - rects[j].Area()
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	return s1, s2
}

func (t *RTree) splitLeaf(n *memNode) (*memNode, *memNode) {
	rects := make([]Rect, len(n.entries))
	for i, e := range n.entries {
		rects[i] = e.Rect
	}
	g1, g2 := quadraticPartition(rects)
	a := &memNode{leaf: true}
	b := &memNode{leaf: true}
	for _, i := range g1 {
		a.entries = append(a.entries, n.entries[i])
	}
	for _, i := range g2 {
		b.entries = append(b.entries, n.entries[i])
	}
	a.recomputeRect()
	b.recomputeRect()
	return a, b
}

func (t *RTree) splitInterior(n *memNode) (*memNode, *memNode) {
	rects := make([]Rect, len(n.children))
	for i, c := range n.children {
		rects[i] = c.rect
	}
	g1, g2 := quadraticPartition(rects)
	a := &memNode{}
	b := &memNode{}
	for _, i := range g1 {
		a.children = append(a.children, n.children[i])
	}
	for _, i := range g2 {
		b.children = append(b.children, n.children[i])
	}
	a.recomputeRect()
	b.recomputeRect()
	return a, b
}

func (n *memNode) recomputeRect() {
	if n.leaf {
		if len(n.entries) == 0 {
			n.rect = Rect{}
			return
		}
		n.rect = n.entries[0].Rect
		for _, e := range n.entries[1:] {
			n.rect = n.rect.Union(e.Rect)
		}
		return
	}
	if len(n.children) == 0 {
		n.rect = Rect{}
		return
	}
	n.rect = n.children[0].rect
	for _, c := range n.children[1:] {
		n.rect = n.rect.Union(c.rect)
	}
}

// quadraticPartition splits indices 0..len(rects)-1 into two groups per
// Guttman's quadratic algorithm.
func quadraticPartition(rects []Rect) (g1, g2 []int) {
	s1, s2 := pickSeeds(rects)
	g1 = []int{s1}
	g2 = []int{s2}
	r1, r2 := rects[s1], rects[s2]
	assigned := make([]bool, len(rects))
	assigned[s1], assigned[s2] = true, true
	remaining := len(rects) - 2
	for remaining > 0 {
		// Force-assign if one group must take everything to reach min.
		if len(g1)+remaining == minEntries {
			for i := range rects {
				if !assigned[i] {
					g1 = append(g1, i)
					r1 = r1.Union(rects[i])
					assigned[i] = true
				}
			}
			break
		}
		if len(g2)+remaining == minEntries {
			for i := range rects {
				if !assigned[i] {
					g2 = append(g2, i)
					r2 = r2.Union(rects[i])
					assigned[i] = true
				}
			}
			break
		}
		// Pick the entry with max preference difference.
		best, bestDiff, bestTo1 := -1, -1.0, true
		for i := range rects {
			if assigned[i] {
				continue
			}
			d1 := r1.enlargement(rects[i])
			d2 := r2.enlargement(rects[i])
			diff := math.Abs(d1 - d2)
			if diff > bestDiff {
				bestDiff, best, bestTo1 = diff, i, d1 < d2
			}
		}
		if bestTo1 {
			g1 = append(g1, best)
			r1 = r1.Union(rects[best])
		} else {
			g2 = append(g2, best)
			r2 = r2.Union(rects[best])
		}
		assigned[best] = true
		remaining--
	}
	return g1, g2
}

// Search visits all entries whose rectangles intersect query. fn returning
// false stops the search.
func (t *RTree) Search(query Rect, fn func(e Entry) bool) {
	t.search(t.root, query, fn)
}

func (t *RTree) search(n *memNode, query Rect, fn func(e Entry) bool) bool {
	if n.leaf {
		for _, e := range n.entries {
			if query.Intersects(e.Rect) {
				if !fn(e) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if query.Intersects(c.rect) {
			if !t.search(c, query, fn) {
				return false
			}
		}
	}
	return true
}

// Delete removes one entry matching rect and payload exactly, reporting
// whether one was found. Underfull nodes are not condensed (lazy deletion,
// mirroring the LSM antimatter design where deletes are logical anyway).
func (t *RTree) Delete(rect Rect, payload []byte) bool {
	if t.deleteRec(t.root, rect, payload) {
		t.count--
		return true
	}
	return false
}

func (t *RTree) deleteRec(n *memNode, rect Rect, payload []byte) bool {
	if n.leaf {
		for i, e := range n.entries {
			if e.Rect == rect && bytesEqual(e.Payload, payload) {
				n.entries = append(n.entries[:i], n.entries[i+1:]...)
				n.recomputeRect()
				return true
			}
		}
		return false
	}
	for _, c := range n.children {
		if c.rect.Intersects(rect) && t.deleteRec(c, rect, payload) {
			n.recomputeRect()
			return true
		}
	}
	return false
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// All visits every entry (used when flushing a memory component).
func (t *RTree) All(fn func(e Entry) bool) {
	t.Search(Rect{math.Inf(-1), math.Inf(-1), math.Inf(1), math.Inf(1)}, fn)
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
