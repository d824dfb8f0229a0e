package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"asterix/internal/check"
	"asterix/internal/mem"
	"asterix/internal/rtree"
	"asterix/internal/storage"
)

// mustValidate runs the deep LSM and buffer-cache validators and checks
// for leaked pins; called at the end of tests that exercised flushes,
// merges, or reopen. The index is flushed first: its worker may still be
// busy with a component the test's writes sealed.
func mustValidate(t *testing.T, tr testIndexValidator, bc *storage.BufferCache) {
	t.Helper()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	check.MustValidate(t, tr)
	check.MustValidate(t, bc)
	if n := bc.Pinned(); n != 0 {
		t.Errorf("buffer cache still holds %d pins after the test", n)
	}
}

type testIndexValidator interface {
	check.Validator
	Flush() error
}

func newEnv(t testing.TB, pageSize, frames int) (*storage.BufferCache, string) {
	t.Helper()
	dir := t.TempDir()
	fm, err := storage.NewFileManager(dir, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fm.Close() })
	return storage.NewBufferCache(fm, frames), dir
}

func ikey(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func TestMemTableBasics(t *testing.T) {
	m := newMemTable()
	m.put([]byte("b"), []byte("2"), false)
	m.put([]byte("a"), []byte("1"), false)
	m.put([]byte("c"), []byte("3"), true)
	if v, tomb, ok := m.get([]byte("a")); !ok || tomb || string(v) != "1" {
		t.Fatalf("get a: %q %v %v", v, tomb, ok)
	}
	if _, tomb, ok := m.get([]byte("c")); !ok || !tomb {
		t.Fatal("tombstone lost")
	}
	if _, _, ok := m.get([]byte("zz")); ok {
		t.Fatal("phantom key")
	}
	var keys []string
	for _, e := range m.run(nil, nil, nil, math.MaxInt) {
		keys = append(keys, string(e.key))
	}
	if fmt.Sprint(keys) != "[a b c]" {
		t.Fatalf("scan order: %v", keys)
	}
	// Bounded scan.
	keys = nil
	for _, e := range m.run([]byte("b"), []byte("b"), nil, math.MaxInt) {
		keys = append(keys, string(e.key))
	}
	if fmt.Sprint(keys) != "[b]" {
		t.Fatalf("bounded scan: %v", keys)
	}
	if m.len() != 3 {
		t.Fatalf("len = %d", m.len())
	}
}

func TestMemTableOrderedUnderRandomInserts(t *testing.T) {
	m := newMemTable()
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 3000; i++ {
		m.put(ikey(r.Intn(1000)), ikey(i), false)
	}
	var prev []byte
	for _, e := range m.run(nil, nil, nil, math.MaxInt) {
		if prev != nil && string(prev) >= string(e.key) {
			t.Fatalf("out of order: %x after %x", e.key, prev)
		}
		prev = e.key
	}
}

func TestBloomFilter(t *testing.T) {
	b := newBloom(1000)
	for i := 0; i < 1000; i++ {
		b.add(ikey(i))
	}
	for i := 0; i < 1000; i++ {
		if !b.mayContain(ikey(i)) {
			t.Fatalf("false negative for %d", i)
		}
	}
	fp := 0
	for i := 1000; i < 11000; i++ {
		if b.mayContain(ikey(i)) {
			fp++
		}
	}
	if fp > 500 { // expect ~1%, allow 5%
		t.Errorf("false positive rate too high: %d/10000", fp)
	}
}

func TestTreeGetUpsertDelete(t *testing.T) {
	bc, _ := newEnv(t, 1024, 256)
	tr, err := Open(bc, "ds/primary", Options{MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := tr.Upsert(ikey(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i += 5 {
		if err := tr.Delete(ikey(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		v, ok, err := tr.Get(ikey(i))
		if err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if ok {
				t.Fatalf("deleted key %d still visible", i)
			}
		} else if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d: %q %v", i, v, ok)
		}
	}
}

func TestTreeFlushAndNewestWins(t *testing.T) {
	bc, _ := newEnv(t, 1024, 512)
	tr, err := Open(bc, "t", Options{MemBudget: 1 << 30, Policy: NoMergePolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	// Three generations of the same keys across three components.
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 200; i++ {
			tr.Upsert(ikey(i), []byte(fmt.Sprintf("gen%d-%d", gen, i)))
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if tr.DiskComponents() != 3 {
		t.Fatalf("components = %d", tr.DiskComponents())
	}
	for i := 0; i < 200; i++ {
		v, ok, err := tr.Get(ikey(i))
		if err != nil || !ok {
			t.Fatal(err, ok)
		}
		if string(v) != fmt.Sprintf("gen2-%d", i) {
			t.Fatalf("key %d: newest-wins violated: %q", i, v)
		}
	}
	// Scan must also see exactly one (newest) version per key.
	n := 0
	err = tr.Scan(nil, nil, func(k, v []byte) bool {
		if string(v) != fmt.Sprintf("gen2-%d", int(binary.BigEndian.Uint64(k))) {
			t.Fatalf("scan got %q", v)
		}
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("scan found %d", n)
	}
	mustValidate(t, tr, bc)
}

func TestTreeScanAcrossMemAndDisk(t *testing.T) {
	bc, _ := newEnv(t, 1024, 512)
	tr, _ := Open(bc, "t", Options{MemBudget: 1 << 30, Policy: NoMergePolicy{}})
	// Even keys on disk.
	for i := 0; i < 400; i += 2 {
		tr.Upsert(ikey(i), []byte("disk"))
	}
	tr.Flush()
	// Odd keys in memory; delete some even ones from memory (antimatter).
	for i := 1; i < 400; i += 2 {
		tr.Upsert(ikey(i), []byte("mem"))
	}
	for i := 0; i < 400; i += 20 {
		tr.Delete(ikey(i))
	}
	var got []int
	err := tr.Scan(ikey(10), ikey(50), func(k, v []byte) bool {
		got = append(got, int(binary.BigEndian.Uint64(k)))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// Keys 10..50 minus {20, 40} (deleted; 10, 30, 50 wait: deletes are 0,20,40,...).
	want := []int{}
	for i := 10; i <= 50; i++ {
		if i%20 == 0 {
			continue
		}
		want = append(want, i)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan got %v, want %v", got, want)
	}
}

func TestTreeAutoFlushOnBudget(t *testing.T) {
	bc, _ := newEnv(t, 1024, 512)
	tr, _ := Open(bc, "t", Options{MemBudget: 8 << 10, Policy: NoMergePolicy{}})
	for i := 0; i < 2000; i++ {
		tr.Upsert(ikey(i), make([]byte, 32))
	}
	n, err := tr.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Fatalf("count = %d", n)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if flushes, _ := tr.Stats(); flushes < 2 {
		t.Errorf("%d flushes, expected automatic ones when exceeding the memory budget", flushes)
	}
}

func TestConstantPolicyMerges(t *testing.T) {
	bc, _ := newEnv(t, 1024, 512)
	tr, _ := Open(bc, "t", Options{MemBudget: 1 << 30, Policy: ConstantPolicy{Components: 2}})
	for gen := 0; gen < 6; gen++ {
		for i := gen * 100; i < (gen+1)*100; i++ {
			tr.Upsert(ikey(i), ikey(i))
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if tr.DiskComponents() > 2 {
		t.Errorf("constant policy exceeded bound: %d components", tr.DiskComponents())
	}
	if _, merges := tr.Stats(); merges == 0 {
		t.Error("expected merges")
	}
	n, _ := tr.Count()
	if n != 600 {
		t.Fatalf("count after merges = %d", n)
	}
	mustValidate(t, tr, bc)
}

func TestMergeDropsTombstones(t *testing.T) {
	bc, _ := newEnv(t, 1024, 512)
	tr, _ := Open(bc, "t", Options{MemBudget: 1 << 30, Policy: NoMergePolicy{}})
	for i := 0; i < 100; i++ {
		tr.Upsert(ikey(i), ikey(i))
	}
	tr.Flush()
	for i := 0; i < 100; i += 2 {
		tr.Delete(ikey(i))
	}
	tr.Flush()
	if err := tr.forceMerge(0, 1); err != nil {
		t.Fatal(err)
	}
	if tr.DiskComponents() != 1 {
		t.Fatalf("components = %d", tr.DiskComponents())
	}
	n, _ := tr.Count()
	if n != 50 {
		t.Fatalf("count = %d", n)
	}
	// The merged component must physically contain only 50 entries
	// (tombstones dropped in a full merge).
	if physical := tr.componentCounts()[0]; physical != 50 {
		t.Errorf("physical entries = %d, tombstones not dropped", physical)
	}
	mustValidate(t, tr, bc)
}

func TestTreeReopenFromManifest(t *testing.T) {
	dir := t.TempDir()
	fm, err := storage.NewFileManager(dir, 1024)
	if err != nil {
		t.Fatal(err)
	}
	bc := storage.NewBufferCache(fm, 256)
	tr, _ := Open(bc, "ds/p0/pk", Options{MemBudget: 1 << 30, Policy: NoMergePolicy{}})
	for i := 0; i < 300; i++ {
		tr.Upsert(ikey(i), ikey(i))
	}
	tr.Flush()
	for i := 300; i < 400; i++ {
		tr.Upsert(ikey(i), ikey(i))
	}
	tr.Flush()
	bc.FlushAll()
	fm.Close()

	fm2, _ := storage.NewFileManager(dir, 1024)
	defer fm2.Close()
	bc2 := storage.NewBufferCache(fm2, 256)
	tr2, err := Open(bc2, "ds/p0/pk", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.DiskComponents() != 2 {
		t.Fatalf("reopened components = %d", tr2.DiskComponents())
	}
	n, _ := tr2.Count()
	if n != 400 {
		t.Fatalf("reopened count = %d", n)
	}
	if _, ok, _ := tr2.Get(ikey(42)); !ok {
		t.Error("key lost across reopen")
	}
	mustValidate(t, tr2, bc2)
}

// Property: LSM tree matches a reference map under random ops with
// periodic flushes and merges.
func TestPropTreeMatchesReference(t *testing.T) {
	bc, _ := newEnv(t, 1024, 1024)
	tr, _ := Open(bc, "t", Options{MemBudget: 1 << 30, Policy: ConstantPolicy{Components: 3}})
	ref := map[string]string{}
	r := rand.New(rand.NewSource(21))
	for op := 0; op < 4000; op++ {
		k := fmt.Sprintf("k%03d", r.Intn(300))
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			v := fmt.Sprintf("v%d", op)
			tr.Upsert([]byte(k), []byte(v))
			ref[k] = v
		case 6, 7:
			tr.Delete([]byte(k))
			delete(ref, k)
		case 8:
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
		case 9:
			v, ok, err := tr.Get([]byte(k))
			if err != nil {
				t.Fatal(err)
			}
			want, inRef := ref[k]
			if ok != inRef || (ok && string(v) != want) {
				t.Fatalf("op %d: get(%s) = %q,%v want %q,%v", op, k, v, ok, want, inRef)
			}
		}
	}
	// Final full comparison via scan.
	got := map[string]string{}
	err := tr.Scan(nil, nil, func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("scan size %d != ref %d", len(got), len(ref))
	}
	for k, v := range ref {
		if got[k] != v {
			t.Fatalf("key %s: %q != %q", k, got[k], v)
		}
	}
	mustValidate(t, tr, bc)
}

// TestScanRangesMatchesModel checks range-set scans against a map over a
// random history of upserts, deletes, flushes and merges: every few steps
// a scan of a random sorted set of disjoint ranges (single keys, adjacent
// ranges, ranges past every key, unbounded ends) must return exactly the
// map's keys in those ranges, in order, at their newest values, and a scan
// stopped early must return a prefix of that.
func TestScanRangesMatchesModel(t *testing.T) {
	bc, _ := newEnv(t, 1024, 1024)
	tr, err := Open(bc, "ranges", Options{MemBudget: 1 << 30, Policy: ConstantPolicy{Components: 3}})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 500
	ref := map[int]string{}
	r := rand.New(rand.NewSource(54))
	for op := 0; op < 6000; op++ {
		k := r.Intn(keys)
		switch r.Intn(25) {
		case 0:
			err = tr.Flush()
		case 1, 2, 3, 4, 5:
			err = tr.Delete(ikey(k))
			delete(ref, k)
		default:
			ref[k] = fmt.Sprintf("v%d", op)
			err = tr.Upsert(ikey(k), []byte(ref[k]))
		}
		if err != nil {
			t.Fatal(err)
		}
		if op%7 != 0 {
			continue
		}
		var rs []KeyRange
		var want []int
		for lo := r.Intn(60); lo < keys+40; lo += 1 + r.Intn(60) {
			hi := lo + r.Intn(1+r.Intn(200))
			rg := KeyRange{ikey(lo), ikey(hi)}
			if len(rs) == 0 && r.Intn(4) == 0 {
				rg.Lo = nil
			}
			if hi >= keys && r.Intn(2) == 0 {
				rg.Hi, hi = nil, math.MaxInt
			}
			for k := range ref {
				if k >= lo && k <= hi || rg.Lo == nil && k < lo {
					want = append(want, k)
				}
			}
			if rs = append(rs, rg); rg.Hi == nil {
				break
			}
			lo = hi
		}
		slices.Sort(want)
		stop := len(want) + 1
		if r.Intn(3) == 0 {
			stop = 1 + r.Intn(len(want)+1)
		}
		var got []int
		err := tr.ScanRanges(rs, func(key, v []byte) bool {
			k := int(binary.BigEndian.Uint64(key))
			if string(v) != ref[k] {
				t.Fatalf("op %d: key %d = %q, want %q", op, k, v, ref[k])
			}
			got = append(got, k)
			return len(got) < stop
		})
		if err != nil {
			t.Fatal(err)
		}
		if want = want[:min(stop, len(want))]; !slices.Equal(got, want) {
			t.Fatalf("op %d: ranges %v: got %v, want %v", op, rs, got, want)
		}
	}
	if flushes, merges := tr.Stats(); flushes < 100 || merges == 0 {
		t.Fatalf("%d flushes and %d merges, want many and some", flushes, merges)
	}
	mustValidate(t, tr, bc)
}

func TestLSMRTreeInsertSearchDelete(t *testing.T) {
	bc, _ := newEnv(t, 1024, 512)
	rt, err := OpenRTree(bc, "idx/spatial", Options{MemBudget: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		x := float64(i % 20)
		y := float64(i / 20)
		if err := rt.Insert(rtree.PointRect(x, y), ikey(i)); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	rt.Search(rtree.Rect{MinX: 0, MinY: 0, MaxX: 4.5, MaxY: 4.5}, func(r rtree.Rect, key []byte) bool {
		count++
		return true
	})
	if count != 25 {
		t.Fatalf("search found %d, want 25", count)
	}
	// Delete a few and verify they disappear.
	rt.Delete(rtree.PointRect(0, 0), ikey(0))
	rt.Delete(rtree.PointRect(1, 0), ikey(1))
	count = 0
	rt.Search(rtree.Rect{MinX: 0, MinY: 0, MaxX: 4.5, MaxY: 4.5}, func(r rtree.Rect, key []byte) bool {
		count++
		return true
	})
	if count != 23 {
		t.Fatalf("after deletes found %d, want 23", count)
	}
	// A pair put live three times and deleted once is gone, in memory and
	// once flushed: a put replaces the pair's pending state, so no second
	// live entry is left behind for the delete to miss.
	dup := rtree.PointRect(100, 100)
	for i := 0; i < 3; i++ {
		if err := rt.Insert(dup, ikey(1000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Delete(dup, ikey(1000)); err != nil {
		t.Fatal(err)
	}
	if n := rt.mem.len(); n != 301 {
		t.Fatalf("memory component holds %d entries, want 301: 300 pairs and the deleted one's antimatter", n)
	}
	// A pair with a NaN coordinate meets no query, and hides no other pair.
	if err := rt.Insert(rtree.Rect{MinX: 5, MinY: math.NaN(), MaxX: 5, MaxY: 5}, ikey(2000)); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"in memory", "flushed"} {
		if stage == "flushed" {
			if err := rt.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			query rtree.Rect
			want  int
		}{{rtree.Rect{MinX: 99, MinY: 99, MaxX: 101, MaxY: 101}, 0}, {everything, 298}} {
			count = 0
			if err := rt.Search(c.query, func(r rtree.Rect, key []byte) bool {
				count++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if count != c.want {
				t.Fatalf("%s: search %v found %d pairs, want %d", stage, c.query, count, c.want)
			}
		}
	}
}

func TestLSMRTreeAntimatterAcrossComponents(t *testing.T) {
	bc, _ := newEnv(t, 1024, 512)
	rt, _ := OpenRTree(bc, "sp", Options{MemBudget: 1 << 30, Policy: NoMergePolicy{}})
	for i := 0; i < 100; i++ {
		rt.Insert(rtree.PointRect(float64(i), 0), ikey(i))
	}
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}
	// Delete half after the flush: antimatter lives in memory, data on disk.
	for i := 0; i < 100; i += 2 {
		rt.Delete(rtree.PointRect(float64(i), 0), ikey(i))
	}
	count := 0
	rt.Search(rtree.Rect{MinX: -1, MinY: -1, MaxX: 200, MaxY: 1}, func(r rtree.Rect, key []byte) bool {
		count++
		return true
	})
	if count != 50 {
		t.Fatalf("found %d, want 50", count)
	}
	// Flush the antimatter too; still 50 visible across two components.
	rt.Flush()
	if rt.DiskComponents() != 2 {
		t.Fatalf("components = %d", rt.DiskComponents())
	}
	count = 0
	rt.Search(rtree.Rect{MinX: -1, MinY: -1, MaxX: 200, MaxY: 1}, func(r rtree.Rect, key []byte) bool {
		count++
		return true
	})
	if count != 50 {
		t.Fatalf("after antimatter flush found %d, want 50", count)
	}
	// Full merge cancels pairs and drops antimatter.
	if err := rt.forceMerge(0, 1); err != nil {
		t.Fatal(err)
	}
	if rt.DiskComponents() != 1 {
		t.Fatalf("components after merge = %d", rt.DiskComponents())
	}
	count = 0
	rt.Search(rtree.Rect{MinX: -1, MinY: -1, MaxX: 200, MaxY: 1}, func(r rtree.Rect, key []byte) bool {
		count++
		return true
	})
	if count != 50 {
		t.Fatalf("after merge found %d, want 50", count)
	}
}

func TestLSMRTreeReopen(t *testing.T) {
	dir := t.TempDir()
	fm, _ := storage.NewFileManager(dir, 1024)
	bc := storage.NewBufferCache(fm, 256)
	rt, _ := OpenRTree(bc, "sp", Options{MemBudget: 1 << 30})
	for i := 0; i < 50; i++ {
		rt.Insert(rtree.PointRect(float64(i), float64(i)), ikey(i))
	}
	rt.Flush()
	bc.FlushAll()
	fm.Close()

	fm2, _ := storage.NewFileManager(dir, 1024)
	defer fm2.Close()
	bc2 := storage.NewBufferCache(fm2, 256)
	rt2, err := OpenRTree(bc2, "sp", Options{})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	rt2.Search(rtree.Rect{MinX: -1, MinY: -1, MaxX: 100, MaxY: 100}, func(r rtree.Rect, key []byte) bool {
		count++
		return true
	})
	if count != 50 {
		t.Fatalf("reopened search found %d", count)
	}
}

func TestTieredPolicy(t *testing.T) {
	p := TieredPolicy{}
	if _, _, ok := p.PickMerge([]int64{100, 90}); ok {
		t.Error("two components should not merge: the minimum run is 3")
	}
	lo, hi, ok := p.PickMerge([]int64{100, 90, 110})
	if !ok || lo != 0 || hi != 2 {
		t.Errorf("similar sizes should merge: %d..%d %v", lo, hi, ok)
	}
	if _, _, ok := p.PickMerge([]int64{10, 9, 10000}); ok {
		t.Error("dissimilar run should not merge")
	}
}

// BenchmarkTreeUpsert times a put at a 1 MiB memory budget, the flushes it
// causes included, per put, and counts the bytes and allocations per put,
// in three shapes: a keyword index (token ‖ primary key, no value; the
// keys of each token ascend), a primary index (6-byte keys in a scrambled
// order, 120-byte values) and an R-tree index (an RTreeIndex.Insert of a
// random point in a 1000×1000 world with a 9-byte primary key). Keys are
// built in one reused buffer, so every allocation counted is the index's.
func BenchmarkTreeUpsert(b *testing.B) {
	scramble := func(i int) uint64 { return uint64(i) * 0x9E3779B97F4A7C15 }
	for _, shape := range []struct {
		name  string
		key   func(buf []byte, i int) []byte
		value []byte
		point func(i int) rtree.Rect // set for the R-tree shape
	}{
		{"keyword", func(buf []byte, i int) []byte {
			return binary.BigEndian.AppendUint64(append(append(buf, tokens[scramble(i)>>61]...), 0), uint64(i))
		}, nil, nil},
		{"primary", func(buf []byte, i int) []byte { return binary.BigEndian.AppendUint64(buf, scramble(i))[:6] }, bytes.Repeat([]byte{'v'}, 120), nil},
		{"rtree", func(buf []byte, i int) []byte { return binary.BigEndian.AppendUint64(append(buf, 0x10), scramble(i)) }, nil,
			func(i int) rtree.Rect {
				return rtree.PointRect(float64(scramble(i)>>32)/(1<<32)*1000, float64(uint32(scramble(i)))/(1<<32)*1000)
			}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			bc, _ := newEnv(b, 4096, 2048)
			opts := Options{MemBudget: 1 << 20, Policy: NoMergePolicy{}}
			var put func(key []byte, i int) error
			var idx interface{ Flush() error }
			var err error
			if shape.point == nil {
				tr, e := Open(bc, "bench/upsert", opts)
				put, idx, err = func(key []byte, _ int) error { return tr.Upsert(key, shape.value) }, tr, e
			} else {
				rt, e := OpenRTree(bc, "bench/upsert", opts)
				put, idx, err = func(key []byte, i int) error { return rt.Insert(shape.point(i), key) }, rt, e
			}
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 0, 32)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := put(shape.key(buf, i), i); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/put")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N), "B/put")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/put")
			if err := idx.Flush(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkTreeGet(b *testing.B) {
	bc, _ := newEnv(b, 4096, 2048)
	tr, _ := Open(bc, "bench", Options{MemBudget: 1 << 20})
	for i := 0; i < 50000; i++ {
		tr.Upsert(ikey(i), ikey(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(ikey(i % 50000))
	}
}

// TestTreeConcurrentReadersAndWriter exercises the LSM tree under a
// writer with periodic flushes and concurrent point readers.
func TestTreeConcurrentReadersAndWriter(t *testing.T) {
	bc, _ := newEnv(t, 1024, 1024)
	tr, _ := Open(bc, "conc", Options{MemBudget: 32 << 10, Policy: ConstantPolicy{Components: 3}})
	const n = 3000
	done := make(chan error, 4)
	go func() {
		for i := 0; i < n; i++ {
			if err := tr.Upsert(ikey(i), ikey(i*7)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for g := 0; g < 3; g++ {
		go func(seed int) {
			for i := 0; i < 2000; i++ {
				k := (seed*31 + i*17) % n
				v, ok, err := tr.Get(ikey(k))
				if err != nil {
					done <- err
					return
				}
				if ok && string(v) != string(ikey(k*7)) {
					done <- fmt.Errorf("key %d: wrong value", k)
					return
				}
			}
			done <- nil
		}(g)
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// All writes present afterwards.
	cnt, err := tr.Count()
	if err != nil {
		t.Fatal(err)
	}
	if cnt != n {
		t.Fatalf("count = %d, want %d", cnt, n)
	}
	mustValidate(t, tr, bc)
}

// TestGovernorArbitratedFlush overflows a shared component pool from a
// second tree and checks the earliest-dirty tree is the one flushed —
// cross-tree arbitration replacing the per-tree threshold.
func TestGovernorArbitratedFlush(t *testing.T) {
	bc, _ := newEnv(t, 1024, 256)
	gov := mem.NewGovernor(mem.Config{ComponentBytes: 4 << 10, WorkingBytes: 1 << 20})
	// Per-tree budgets far above the pool: only the governor can flush.
	opts := Options{MemBudget: 1 << 30, Gov: gov}
	a, err := Open(bc, "arb/a", opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(bc, "arb/b", opts)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 100)
	// Dirty a first with ~2 KiB, then push b past the 4 KiB pool.
	for i := 0; i < 16; i++ {
		if err := a.Upsert(ikey(i), val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		if err := b.Upsert(ikey(i), val); err != nil {
			t.Fatal(err)
		}
	}
	// The arbitration sealed a; the barrier waits for its flush.
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if flushes, _ := a.Stats(); flushes == 0 {
		t.Fatal("earliest-dirty tree a not flushed")
	}
	if got := gov.ComponentCharged(); got > 4<<10 {
		t.Fatalf("component pool still over budget after arbitration: %d", got)
	}
	if gov.StatsSnapshot().ArbitratedFlushes == 0 {
		t.Fatal("arbitrated-flush counter stayed zero")
	}
	mustValidate(t, a, bc)
	mustValidate(t, b, bc)
}
