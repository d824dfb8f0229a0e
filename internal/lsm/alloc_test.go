package lsm

import (
	"testing"

	"asterix/internal/rtree"
)

// TestKernelAllocations is the allocation gate of the tree's read path. A
// Get or a Scan allocates per call, for set-up — the snapshot of the
// component list, the one value copy a disk hit returns, a scan's source
// table and each iterator's struct and page buffer, and, for a memory
// component with a key in the range, its cursor's batch buffer and the
// key the next batch resumes at — and nothing per entry or per batch: a
// scan of twice the entries costs the same. An R-tree's empty memory
// component, which every search of a flushed R-tree reads, costs nothing.
func TestKernelAllocations(t *testing.T) {
	bc, _ := newEnv(t, 4096, 256)
	tr, err := Open(bc, "allocs", Options{MemBudget: 1 << 30, Policy: NoMergePolicy{}, Worker: &Worker{}})
	if err != nil {
		t.Fatal(err)
	}
	// Two disk components, [0, 2000) and [2000, 4000), and 100 keys in memory.
	for i := 0; i < 4100; i++ {
		if err := tr.Upsert(ikey(i), []byte("value")); err != nil {
			t.Fatal(err)
		}
		if i == 1999 || i == 3999 {
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := tr.DiskComponents(); n != 2 {
		t.Fatalf("%d disk components, want 2", n)
	}
	get := func(i int, found bool) func() {
		key := ikey(i)
		return func() {
			if _, ok, err := tr.Get(key); ok != found || err != nil {
				t.Fatalf("Get(%d) = %v, %v", i, ok, err)
			}
		}
	}
	scan := func(lo, hi int) func() {
		loKey, hiKey := ikey(lo), ikey(hi)
		return func() {
			n := 0
			if err := tr.Scan(loKey, hiKey, func(k, v []byte) bool { n++; return true }); err != nil || n != hi-lo+1 {
				t.Fatalf("Scan(%d, %d) visited %d (err %v)", lo, hi, n, err)
			}
		}
	}
	emptyRTree := rtreeKind{}.newMem()
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"Get/memory", 1, get(4050, true)},      // the snapshot
		{"Get/newest-disk", 2, get(3000, true)}, // the snapshot and the value copy
		{"Get/oldest-disk", 2, get(10, true)},
		{"Get/absent", 1, get(9000, false)},
		{"Scan/disk-1000", 6, scan(1500, 2499)}, // the snapshot, the source table, 2 × (iterator, page)
		{"Scan/disk-2000", 6, scan(1000, 2999)},
		{"Scan/memory-100", 9, scan(4000, 4099)}, // the disk set-up, the batch buffer, and the resume key, which its 0x00 outgrows once
		{"memRTree.search/empty", 0, func() { emptyRTree.search(rtree.Rect{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10}) }},
	} {
		if got := testing.AllocsPerRun(50, c.f); got > c.want {
			t.Errorf("%s: %v allocations per call, want at most %v", c.name, got, c.want)
		}
	}
	mustValidate(t, tr, bc)
}
