package rtree

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"asterix/internal/storage"
)

func payload(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func randomPoints(n int, seed int64) []Entry {
	r := rand.New(rand.NewSource(seed))
	es := make([]Entry, n)
	for i := range es {
		x, y := r.Float64()*1000, r.Float64()*1000
		es[i] = Entry{Rect: PointRect(x, y), Payload: payload(i)}
	}
	return es
}

// bruteSearch is the reference implementation.
func bruteSearch(es []Entry, q Rect) map[int]bool {
	out := map[int]bool{}
	for _, e := range es {
		if q.Intersects(e.Rect) {
			out[int(binary.BigEndian.Uint64(e.Payload))] = true
		}
	}
	return out
}

func TestRectOps(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 15, 15}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("overlap not detected")
	}
	c := Rect{11, 11, 12, 12}
	if a.Intersects(c) {
		t.Error("false overlap")
	}
	if got := a.Union(b); got != (Rect{0, 0, 15, 15}) {
		t.Errorf("union = %v", got)
	}
	// Touching boundaries count as intersecting (closed rectangles).
	if !a.Intersects(Rect{10, 10, 20, 20}) {
		t.Error("touching rects must intersect")
	}
}

func newBC(t testing.TB, pageSize, frames int) (*storage.BufferCache, storage.FileID) {
	t.Helper()
	fm, err := storage.NewFileManager(t.TempDir(), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fm.Close() })
	bc := storage.NewBufferCache(fm, frames)
	id, err := fm.Open("rt")
	if err != nil {
		t.Fatal(err)
	}
	return bc, id
}

func TestDiskRTreeMatchesBruteForce(t *testing.T) {
	es := randomPoints(3000, 11)
	bc, id := newBC(t, 1024, 256)
	dt, err := BuildDisk(bc, id, append([]Entry(nil), es...))
	if err != nil {
		t.Fatal(err)
	}
	if dt.Count() != int64(len(es)) {
		t.Fatalf("count = %d", dt.Count())
	}
	r := rand.New(rand.NewSource(13))
	for q := 0; q < 40; q++ {
		x, y := r.Float64()*900, r.Float64()*900
		query := Rect{x, y, x + r.Float64()*120, y + r.Float64()*120}
		want := bruteSearch(es, query)
		got := map[int]bool{}
		err := dt.Search(query, func(e Entry) bool {
			got[int(binary.BigEndian.Uint64(e.Payload))] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d, want %d", q, len(got), len(want))
		}
	}
}

// A disk component is never inserted into: its leaves are filled until the
// next entry does not fit, whatever the entries' size (a fixed cap of
// (pageSize-8)/48 entries once left pages of 43-byte entries a tenth empty).
func TestDiskRTreePacksLeaves(t *testing.T) {
	const pageSize, entrySize = 8192, 32 + 1 + 10
	es := randomPoints(5000, 31)
	for i := range es {
		es[i].Payload = append(es[i].Payload, 0, 0)[:10]
	}
	bc, id := newBC(t, pageSize, 64)
	dt, err := BuildDisk(bc, id, append([]Entry(nil), es...))
	if err != nil {
		t.Fatal(err)
	}
	pages, _ := bc.FileManager().NumPages(id)
	var leafEntries []int
	for num := int32(1); num < pages; num++ {
		p, err := bc.Pin(storage.PageID{File: id, Num: num})
		if err != nil {
			t.Fatal(err)
		}
		if p.Data[0] == diskLeaf {
			leafEntries = append(leafEntries, int(binary.BigEndian.Uint16(p.Data[1:])))
		}
		bc.Unpin(p, false)
	}
	for i, n := range leafEntries[:len(leafEntries)-1] {
		if 3+(n+1)*entrySize <= pageSize {
			t.Fatalf("leaf %d of %d holds %d entries, one more would fit", i, len(leafEntries), n)
		}
	}
	n := 0
	if err := dt.Search(Rect{-1e18, -1e18, 1e18, 1e18}, func(Entry) bool { n++; return true }); err != nil || n != len(es) {
		t.Fatalf("full search found %d of %d, err %v", n, len(es), err)
	}
}

func TestNonPointRects(t *testing.T) {
	// Overlapping regions (non-point data, the R-tree's advantage per
	// Section V-B).
	var es []Entry
	for i := 0; i < 100; i++ {
		x := float64(i)
		es = append(es, Entry{Rect: Rect{x, 0, x + 10, 10}, Payload: payload(i)})
	}
	bc, id := newBC(t, 512, 64)
	dt, err := BuildDisk(bc, id, es)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := dt.Search(Rect{50, 5, 52, 6}, func(e Entry) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	// Rects with x in [40..52] overlap the query.
	if count != 13 {
		t.Errorf("overlap count = %d, want 13", count)
	}
}

func TestSearchEarlyStop(t *testing.T) {
	bc, id := newBC(t, 512, 64)
	dt, err := BuildDisk(bc, id, randomPoints(100, 3))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := dt.Search(Rect{-1e18, -1e18, 1e18, 1e18}, func(e Entry) bool {
		n++
		return n < 5
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestDiskRTreeReopen(t *testing.T) {
	es := randomPoints(500, 21)
	fm, err := storage.NewFileManager(t.TempDir(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer fm.Close()
	bc := storage.NewBufferCache(fm, 64)
	id, _ := fm.Open("rt")
	if _, err := BuildDisk(bc, id, append([]Entry(nil), es...)); err != nil {
		t.Fatal(err)
	}
	if err := bc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	dt, err := OpenDisk(bc, id)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	dt.Search(Rect{-1e18, -1e18, 1e18, 1e18}, func(e Entry) bool { n++; return true })
	if n != len(es) {
		t.Fatalf("full scan found %d of %d", n, len(es))
	}
}

func TestDiskRTreeEmpty(t *testing.T) {
	bc, id := newBC(t, 1024, 16)
	dt, err := BuildDisk(bc, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := dt.Search(Rect{0, 0, 1, 1}, func(e Entry) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("empty tree returned %d entries", n)
	}
}

func TestDiskRTreeVariablePayloads(t *testing.T) {
	var es []Entry
	for i := 0; i < 200; i++ {
		es = append(es, Entry{
			Rect:    PointRect(float64(i), float64(i)),
			Payload: []byte(fmt.Sprintf("payload-%d-%s", i, string(make([]byte, i%50)))),
		})
	}
	bc, id := newBC(t, 512, 128)
	dt, err := BuildDisk(bc, id, append([]Entry(nil), es...))
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	dt.Search(Rect{-1, -1, 300, 300}, func(e Entry) bool { got++; return true })
	if got != len(es) {
		t.Errorf("got %d of %d", got, len(es))
	}
}
