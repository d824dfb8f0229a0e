package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"asterix/internal/storage"
)

// A disk component is built once and never modified, so building it writes
// each of its pages once — through a cache far smaller than the component,
// where a page touched twice would be evicted in between and written twice.
func TestComponentPagesWrittenOnce(t *testing.T) {
	const perFlush = 2500 // enough that a prefix-compressed component spans 16 pages
	forEachKind(t, func(t *testing.T, open openFunc) {
		bc, _ := newEnv(t, 1024, 8)
		ix := open(bc, "d/once", Options{MemBudget: 1 << 30, Policy: NoMergePolicy{}})
		writes := func() int64 { return bc.Stats().Writes }
		for c := 0; c < 5; c++ {
			before, pages := writes(), ix.componentPages()
			for i := 0; i < perFlush; i++ {
				if err := ix.put(i*5 + c); err != nil {
					t.Fatal(err)
				}
			}
			if err := ix.Flush(); err != nil {
				t.Fatal(err)
			}
			built := ix.componentPages() - pages
			if got := writes() - before; built < 16 || got != built {
				t.Fatalf("flush %d wrote %d pages for a component of %d", c, got, built)
			}
		}
		before := writes()
		if err := ix.forceMerge(0, 4); err != nil {
			t.Fatal(err)
		}
		if got, built := writes()-before, ix.componentPages(); ix.DiskComponents() != 1 || built < 80 || got != built {
			t.Fatalf("5-way merge wrote %d pages for a component of %d (%d components)", got, built, ix.DiskComponents())
		}
		wantPresent(t, ix, 0, 5*perFlush, true, "after the merge")
		mustValidate(t, ix, bc)
	})
}

// A tree opened without filters answers Get like one with them, whichever
// of its components holds the newest word on the key: the memory component,
// a sealed one, a flushed one, a merged one, and antimatter in any of them.
func TestGetWithoutFilter(t *testing.T) {
	bc, _ := newEnv(t, 1024, 256)
	opts := func() Options { return Options{MemBudget: 1 << 30, Policy: NoMergePolicy{}, Worker: &Worker{}} }
	opt1, opt2 := opts(), opts()
	filtered, err := Open(bc, "get/filtered", opt1)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := OpenUnfiltered(bc, "get/bare", opt2)
	if err != nil {
		t.Fatal(err)
	}
	trees := []*Tree{filtered, bare}
	oracle := map[int]string{}
	put := func(lo, hi int, gen string) {
		for i := lo; i < hi; i++ {
			oracle[i] = fmt.Sprintf("%s-%d", gen, i)
			for _, tr := range trees {
				if err := tr.Upsert(ikey(i), []byte(oracle[i])); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	del := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			delete(oracle, i)
			for _, tr := range trees {
				if err := tr.Delete(ikey(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	flush := func(want error) {
		for _, tr := range trees {
			if err := tr.Flush(); !errors.Is(err, want) {
				t.Fatalf("flush: %v, want %v", err, want)
			}
		}
	}
	same := func(when string) {
		t.Helper()
		for i := -5; i < 420; i++ {
			want, live := oracle[i]
			for j, tr := range trees {
				v, ok, err := tr.Get(ikey(i))
				if err != nil || ok != live || string(v) != want {
					t.Fatalf("%s: tree %d Get(%d) = %q, %v, %v; want %q, %v", when, j, i, v, ok, err, want, live)
				}
			}
		}
	}

	put(0, 300, "a")
	same("memory component")
	flush(nil)
	same("one flushed component")
	del(100, 150)
	put(280, 400, "b")
	same("memory component over a flushed one")
	flush(nil)
	put(120, 130, "c")
	del(0, 10)
	flush(nil)
	same("three flushed components, antimatter in two")
	for _, tr := range trees {
		if err := tr.forceMerge(0, 1); err != nil { // keeps its antimatter: an older component remains
			t.Fatal(err)
		}
	}
	same("a merged component with antimatter over a flushed one")
	for _, tr := range trees {
		if err := tr.forceMerge(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	same("one merged component")

	// With the workers stopped a sealed component stays sealed.
	opt1.Worker.Stop()
	opt2.Worker.Stop()
	put(50, 60, "d")
	del(200, 210)
	flush(ErrMaintenance)
	put(55, 58, "e")
	del(50, 52)
	same("memory and sealed components over a merged one")

	for _, c := range bare.disk {
		if c.idx.bloom != nil {
			t.Fatal("a component of the unfiltered tree carries a filter")
		}
	}
	for _, c := range filtered.disk {
		if c.idx.bloom == nil {
			t.Fatal("a component of the filtered tree carries no filter")
		}
	}
}

// The filter of a component holds its antimatter keys: a Get must stop at
// the newest component that knows the key, and when that one says
// "deleted" an older component's live entry must not be reached.
func TestFilterHoldsAntimatter(t *testing.T) {
	bc, _ := newEnv(t, 1024, 256)
	tr, err := Open(bc, "anti/t", Options{MemBudget: 1 << 30, Policy: NoMergePolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	miss := func(when string) {
		t.Helper()
		if v, ok, err := tr.Get(ikey(7)); err != nil || ok {
			t.Fatalf("%s: Get of the deleted key = %q, %v, %v", when, v, ok, err)
		}
		if !tr.disk[0].idx.bloom.mayContain(ikey(7)) {
			t.Fatalf("%s: the newest component's filter does not hold its antimatter key", when)
		}
	}
	step(tr.Upsert(ikey(7), []byte("live")))
	step(tr.Flush())
	step(tr.Upsert(ikey(8), []byte("other")))
	step(tr.Flush())
	step(tr.Delete(ikey(7)))
	step(tr.Flush())
	miss("antimatter flushed over a live entry")
	step(tr.forceMerge(0, 1)) // the oldest component, with the live entry, stays
	miss("antimatter merged, the live entry in an older component")
	mustValidate(t, tr, bc)
}

// Opening a component of a filtered tree reads every leaf to rebuild the
// filter; a tree without filters reads each component's meta page and
// nothing else.
func TestOpenSkipsUnprobedLeaves(t *testing.T) {
	dir := t.TempDir()
	build := func() {
		fm, err := storage.NewFileManager(dir, 1024)
		if err != nil {
			t.Fatal(err)
		}
		defer fm.Close()
		bc := storage.NewBufferCache(fm, 256)
		// Either kind of tree writes the same files.
		tr, err := Open(bc, "reopen/t", Options{MemBudget: 1 << 30, Policy: NoMergePolicy{}})
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 2; c++ {
			for i := 0; i < 1000; i++ {
				if err := tr.Upsert(ikey(i*2+c), bytes.Repeat([]byte{'v'}, 40)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	build()
	reads := func(open func(*storage.BufferCache, string, Options) (*Tree, error)) int64 {
		fm, err := storage.NewFileManager(dir, 1024)
		if err != nil {
			t.Fatal(err)
		}
		defer fm.Close()
		bc := storage.NewBufferCache(fm, 256)
		tr, err := open(bc, "reopen/t", Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := bc.Stats().Reads
		if tr.DiskComponents() != 2 {
			t.Fatalf("reopened %d components, want 2", tr.DiskComponents())
		}
		if v, ok, err := tr.Get(ikey(1001)); err != nil || !ok || len(v) != 40 {
			t.Fatalf("Get after reopen: %q, %v, %v", v, ok, err)
		}
		mustValidate(t, tr, bc)
		return n
	}
	if n := reads(OpenUnfiltered); n != 2 {
		t.Errorf("opening two components without filters read %d pages, want their 2 meta pages", n)
	}
	if n := reads(Open); n < 50 {
		t.Errorf("opening two components with filters read %d pages, want every leaf", n)
	}
}

// leafFill reads the component's file page by page and returns the share
// of its leaf pages' bytes that entries and their trailers occupy. It parses
// the B+tree page format on its own (type, entry count, next leaf; then per
// entry the length its key shares with the previous key, and the
// length-prefixed rest of the key and value; at the page's end a 2-byte
// restart offset per 16 entries and their count), so it also pins that
// format.
func leafFill(t testing.TB, bc *storage.BufferCache, file storage.FileID) float64 {
	t.Helper()
	pages, err := bc.FileManager().NumPages(file)
	if err != nil {
		t.Fatal(err)
	}
	used, leaves := 0, 0
	for num := int32(1); num < pages; num++ {
		p, err := bc.Pin(storage.PageID{File: file, Num: num})
		if err != nil {
			t.Fatal(err)
		}
		if p.Data[0] == 1 {
			cnt := int(binary.BigEndian.Uint16(p.Data[1:]))
			pos := 1 + 2 + 4
			for e := 0; e < cnt; e++ {
				_, n := binary.Uvarint(p.Data[pos:]) // the length shared with the previous key
				pos += n
				for chunk := 0; chunk < 2; chunk++ { // the key's suffix, the value
					l, n := binary.Uvarint(p.Data[pos:])
					pos += n + int(l)
				}
			}
			if cnt > 0 { // a tree's first page is the empty root it was created with
				used, leaves = used+pos+2+2*((cnt+15)/16), leaves+1
			}
		}
		bc.Unpin(p, false)
	}
	return float64(used) / float64(leaves*bc.FileManager().PageSize())
}

// BenchmarkComponentBuild times the two ways a disk component comes to be —
// the flush of one memory component and a 5-way merge — per entry written,
// and reports the two properties of the result that repeat exactly and that
// `make bench-smoke` therefore gates: every page of the new file is written
// once, and its leaves are full.
func BenchmarkComponentBuild(b *testing.B) {
	const entries = 20000 // per memory component; 8-byte keys, 100-byte values: 2.3 MB of pages
	value := bytes.Repeat([]byte{'v'}, 100)
	for _, bench := range []struct {
		name       string
		components int
	}{{"flush", 1}, {"merge5", 5}} {
		b.Run(bench.name, func(b *testing.B) {
			var writes, pages int64
			fill := 1.0
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				bc, _ := newEnv(b, 8192, 4096)
				tr, err := Open(bc, "bench/t", Options{MemBudget: 1 << 30, Policy: NoMergePolicy{}})
				if err != nil {
					b.Fatal(err)
				}
				for c := 0; c < bench.components; c++ {
					if c > 0 {
						if err := tr.Flush(); err != nil {
							b.Fatal(err)
						}
					}
					for i := 0; i < entries; i++ {
						if err := tr.Upsert(ikey(i*bench.components+c), value); err != nil {
							b.Fatal(err)
						}
					}
				}
				before, had := bc.Stats().Writes, tr.componentPages()
				b.StartTimer()
				err = tr.Flush()
				if err == nil && bench.components > 1 {
					b.StopTimer() // the last flush is set-up too
					before, had = bc.Stats().Writes, 0
					b.StartTimer()
					err = tr.forceMerge(0, bench.components-1)
				}
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				writes += bc.Stats().Writes - before
				pages += tr.componentPages() - had
				fill = min(fill, leafFill(b, bc, tr.disk[0].file))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*entries*bench.components), "ns/entry")
			b.ReportMetric(float64(writes)/float64(pages), "page-writes/page")
			b.ReportMetric(fill, "leaf-fill")
			if writes != pages || fill < 0.97 {
				b.Fatalf("%d page writes for %d pages, leaves %.4f full: want one write per page and leaves at least 0.97 full", writes, pages, fill)
			}
		})
	}
}

// A live entry with an empty payload is stored as an empty value, with no
// flag byte; antimatter and every other payload keep theirs. Each form —
// an empty payload, antimatter, and payloads that start with the bytes a
// flag takes (0x00 and 0x01, alone and followed by more) — survives a
// flush, a merge that keeps antimatter and one that drops it, and reads
// back unchanged through Get and Scan.
func TestDiskValueForms(t *testing.T) {
	bc, _ := newEnv(t, 1024, 256)
	tr, err := Open(bc, "forms/t", Options{MemBudget: 1 << 30, Policy: NoMergePolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{{}, {0x00}, {0x01}, {0x00, 'a'}, {0x01, 'b'}}
	const deleted = 10        // a key that is live in the oldest component, then deleted
	stored := map[int][]byte{ // the value each key's newest entry stores on disk
		0: nil, 1: {0x00, 0x00}, 2: {0x00, 0x01}, 3: {0x00, 0x00, 'a'}, 4: {0x00, 0x01, 'b'}, deleted: {0x01},
	}
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	step(tr.Upsert(ikey(deleted), []byte("old")))
	step(tr.Upsert(ikey(99), []byte("oldest")))
	step(tr.Flush())
	for i, p := range payloads {
		step(tr.Upsert(ikey(i), p))
	}
	step(tr.Delete(ikey(deleted)))
	step(tr.Flush())

	check := func(when string, antimatter bool) {
		t.Helper()
		for i, p := range payloads {
			if v, ok, err := tr.Get(ikey(i)); err != nil || !ok || !bytes.Equal(v, p) {
				t.Fatalf("%s: Get(%d) = %x, %v, %v; want %x", when, i, v, ok, err, p)
			}
		}
		if v, ok, err := tr.Get(ikey(deleted)); err != nil || ok {
			t.Fatalf("%s: Get of the deleted key = %x, %v, %v", when, v, ok, err)
		}
		n := 0
		step(tr.Scan(nil, nil, func(k, v []byte) bool {
			i := int(binary.BigEndian.Uint64(k))
			if i < len(payloads) && !bytes.Equal(v, payloads[i]) || i == deleted {
				t.Fatalf("%s: Scan yields %d = %x", when, i, v)
			}
			n++
			return true
		}))
		if n != len(payloads)+1 {
			t.Fatalf("%s: Scan yields %d entries, want %d", when, n, len(payloads)+1)
		}
		newest := tr.disk[0].idx.bt
		for i, want := range stored {
			v, ok, err := newest.Search(ikey(i))
			if i == deleted && !antimatter {
				if ok || err != nil {
					t.Fatalf("%s: the merge that drops antimatter kept %x (err %v)", when, v, err)
				}
				continue
			}
			if err != nil || !ok || !bytes.Equal(v, want) {
				t.Fatalf("%s: key %d is stored as %x, %v, %v; want %x", when, i, v, ok, err, want)
			}
		}
		mustValidate(t, tr, bc)
	}
	check("flushed", true)
	step(tr.forceMerge(0, 0)) // an older component remains: antimatter stays
	check("merged, antimatter kept", true)
	step(tr.forceMerge(0, 1))
	check("merged, antimatter dropped", false)
}

// BenchmarkTreeScan times a full Scan of one flushed component, per row,
// and counts its allocations per row, in two shapes: a primary index (6-byte
// keys, 120-byte values) and a keyword index (token ‖ primary key, no
// value), whose keys share most of their bytes with their neighbours. The
// -memory subcases scan the same rows while they are still in the memory
// component.
func BenchmarkTreeScan(b *testing.B) {
	const rows = 50000
	for _, shape := range []struct {
		name  string
		key   func(i int) []byte
		value []byte
	}{
		{"primary", func(i int) []byte { return ikey(i)[2:] }, bytes.Repeat([]byte{'v'}, 120)},
		{"keyword", func(i int) []byte { return append([]byte("database\x00"), ikey(i)...) }, nil},
	} {
		for _, flushed := range []bool{true, false} {
			name := shape.name
			if !flushed {
				name += "-memory"
			}
			b.Run(name, func(b *testing.B) {
				benchScan(b, rows, shape.key, shape.value, flushed)
			})
		}
	}
}

func benchScan(b *testing.B, rows int, key func(i int) []byte, value []byte, flushed bool) {
	bc, _ := newEnv(b, 8192, 1024)
	tr, err := Open(bc, "bench/scan", Options{MemBudget: 1 << 30, Policy: NoMergePolicy{}})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := tr.Upsert(key(i), value); err != nil {
			b.Fatal(err)
		}
	}
	if flushed {
		if err := tr.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		seen := 0
		if err := tr.Scan(nil, nil, func(k, v []byte) bool { seen++; return true }); err != nil || seen != rows {
			b.Fatalf("scanned %d of %d rows (err %v)", seen, rows, err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*rows), "allocs/row")
}
