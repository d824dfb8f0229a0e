package rtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"asterix/internal/storage"
)

// DiskRTree is an immutable R-tree packed bottom-up into a page file with
// the STR (Sort-Tile-Recursive) algorithm. It is the disk-component form
// of the LSM R-tree: built once by a flush or merge, then only searched.
type DiskRTree struct {
	bc   *storage.BufferCache
	file storage.FileID

	root   int32
	height int32
	count  int64
}

const (
	diskMetaPage = int32(0)
	diskInterior = 0
	diskLeaf     = 1
)

// BuildDisk packs entries (any order; they are STR-sorted in place) into a
// fresh file and returns the tree.
func BuildDisk(bc *storage.BufferCache, file storage.FileID, entries []Entry) (*DiskRTree, error) {
	if n, err := bc.FileManager().NumPages(file); err != nil {
		return nil, err
	} else if n != 0 {
		return nil, fmt.Errorf("rtree: BuildDisk requires an empty file")
	}
	t := &DiskRTree{bc: bc, file: file, count: int64(len(entries))}
	mp, err := bc.NewPage(file)
	if err != nil {
		return nil, err
	}
	defer bc.Unpin(mp, true)

	pageSize := bc.FileManager().PageSize()
	// A leaf is filled until the next entry does not fit; the STR tiling
	// takes as a leaf's capacity what a page holds of the average entry.
	encoded := 0
	for _, e := range entries {
		encoded += leafEntrySize(e)
	}
	nodeCap := 2
	if encoded > 0 {
		nodeCap = max(nodeCap, (pageSize-3)*len(entries)/encoded)
	}
	STRSort(entries, nodeCap)

	type packed struct {
		rect Rect
		page int32
	}
	var level []packed

	// Pack leaves.
	i := 0
	for i < len(entries) {
		p, err := bc.NewPage(file)
		if err != nil {
			return nil, err
		}
		n := 0
		pos := 3
		var rect Rect
		for i+n < len(entries) {
			e := entries[i+n]
			if pos+leafEntrySize(e) > pageSize {
				break
			}
			AppendRect(p.Data[pos:pos], e.Rect)
			pos += 32
			pos += binary.PutUvarint(p.Data[pos:], uint64(len(e.Payload)))
			pos += copy(p.Data[pos:], e.Payload)
			if n == 0 {
				rect = e.Rect
			} else {
				rect = rect.Union(e.Rect)
			}
			n++
		}
		if n == 0 {
			bc.Unpin(p, false)
			return nil, fmt.Errorf("rtree: entry too large for page")
		}
		p.Data[0] = diskLeaf
		binary.BigEndian.PutUint16(p.Data[1:], uint16(n))
		level = append(level, packed{rect: rect, page: p.ID.Num})
		bc.Unpin(p, true)
		i += n
	}
	t.height = 1
	if len(level) == 0 {
		// Empty tree: a single empty leaf.
		p, err := bc.NewPage(file)
		if err != nil {
			return nil, err
		}
		p.Data[0] = diskLeaf
		level = append(level, packed{page: p.ID.Num})
		bc.Unpin(p, true)
	}

	// Pack interior levels.
	interiorCap := (pageSize - 3) / 36
	for len(level) > 1 {
		var next []packed
		for off := 0; off < len(level); {
			p, err := bc.NewPage(file)
			if err != nil {
				return nil, err
			}
			n := 0
			pos := 3
			var rect Rect
			for off+n < len(level) && n < interiorCap && pos+36 <= pageSize {
				c := level[off+n]
				AppendRect(p.Data[pos:pos], c.rect)
				pos += 32
				binary.BigEndian.PutUint32(p.Data[pos:], uint32(c.page))
				pos += 4
				if n == 0 {
					rect = c.rect
				} else {
					rect = rect.Union(c.rect)
				}
				n++
			}
			p.Data[0] = diskInterior
			binary.BigEndian.PutUint16(p.Data[1:], uint16(n))
			next = append(next, packed{rect: rect, page: p.ID.Num})
			bc.Unpin(p, true)
			off += n
		}
		level = next
		t.height++
	}
	t.root = level[0].page
	binary.BigEndian.PutUint32(mp.Data[0:], uint32(t.root))
	binary.BigEndian.PutUint32(mp.Data[4:], uint32(t.height))
	binary.BigEndian.PutUint64(mp.Data[8:], uint64(t.count))
	return t, nil
}

// OpenDisk opens an existing packed R-tree file.
func OpenDisk(bc *storage.BufferCache, file storage.FileID) (*DiskRTree, error) {
	mp, err := bc.Pin(storage.PageID{File: file, Num: diskMetaPage})
	if err != nil {
		return nil, err
	}
	t := &DiskRTree{bc: bc, file: file}
	t.root = int32(binary.BigEndian.Uint32(mp.Data[0:]))
	t.height = int32(binary.BigEndian.Uint32(mp.Data[4:]))
	t.count = int64(binary.BigEndian.Uint64(mp.Data[8:]))
	bc.Unpin(mp, false)
	return t, nil
}

// Count returns the number of entries.
func (t *DiskRTree) Count() int64 { return t.count }

// Search visits all entries intersecting query; fn returning false stops.
func (t *DiskRTree) Search(query Rect, fn func(e Entry) bool) error {
	_, err := t.search(t.root, query, fn)
	return err
}

func (t *DiskRTree) search(page int32, query Rect, fn func(e Entry) bool) (bool, error) {
	p, err := t.bc.Pin(storage.PageID{File: t.file, Num: page})
	if err != nil {
		return false, err
	}
	leaf := p.Data[0] == diskLeaf
	n := int(binary.BigEndian.Uint16(p.Data[1:]))
	if leaf {
		pos := 3
		for i := 0; i < n; i++ {
			r := DecodeRect(p.Data[pos:])
			pos += 32
			l, m := binary.Uvarint(p.Data[pos:])
			pos += m
			payload := p.Data[pos : pos+int(l)]
			pos += int(l)
			if query.Intersects(r) {
				e := Entry{Rect: r, Payload: append([]byte(nil), payload...)}
				if !fn(e) {
					t.bc.Unpin(p, false)
					return false, nil
				}
			}
		}
		t.bc.Unpin(p, false)
		return true, nil
	}
	// Copy child refs out before unpinning, then recurse.
	type childRef struct {
		rect Rect
		page int32
	}
	var kids []childRef
	pos := 3
	for i := 0; i < n; i++ {
		r := DecodeRect(p.Data[pos:])
		pos += 32
		c := int32(binary.BigEndian.Uint32(p.Data[pos:]))
		pos += 4
		if query.Intersects(r) {
			kids = append(kids, childRef{r, c})
		}
	}
	t.bc.Unpin(p, false)
	for _, k := range kids {
		cont, err := t.search(k.page, query, fn)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// AppendRect appends r as the bits of its coordinates, the form in which
// pages store it and the LSM R-tree tells two rectangles apart (-0 from +0).
func AppendRect(b []byte, r Rect) []byte {
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.MinX))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.MinY))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.MaxX))
	return binary.BigEndian.AppendUint64(b, math.Float64bits(r.MaxY))
}

// DecodeRect decodes the rectangle AppendRect put at the start of buf.
func DecodeRect(buf []byte) Rect {
	return Rect{
		MinX: math.Float64frombits(binary.BigEndian.Uint64(buf[0:])),
		MinY: math.Float64frombits(binary.BigEndian.Uint64(buf[8:])),
		MaxX: math.Float64frombits(binary.BigEndian.Uint64(buf[16:])),
		MaxY: math.Float64frombits(binary.BigEndian.Uint64(buf[24:])),
	}
}

// leafEntrySize returns the bytes e takes in a leaf page.
func leafEntrySize(e Entry) int { return 32 + uvarLen(len(e.Payload)) + len(e.Payload) }

func uvarLen(x int) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
