package lsm

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"asterix/internal/check"
	"asterix/internal/fault"
	"asterix/internal/rtree"
	"asterix/internal/storage"
)

// The lifecycle tests run over every index kind through testIndex: entry
// i is key ikey(i) in a B+tree, point (i, i) with key ikey(i) in an
// R-tree. The probes below reach into the shared lifecycle, so they are
// written once and promoted to both kinds.

type testIndex interface {
	check.Validator
	Flush() error
	memSize() int
	DiskComponents() int
	put(i int) error
	del(i int) error
	has(i int) (bool, error)

	snapshotRefs() []int32
	componentCounts() []int64
	componentPages() int64
	forceMerge(lo, hi int) error
	swapNewestTwo()
	setNewestDropped(bool)
	listPhantomComponent()
}

type btreeUnderTest struct{ *Tree }

func (b btreeUnderTest) put(i int) error { return b.Upsert(ikey(i), []byte("v")) }
func (b btreeUnderTest) del(i int) error { return b.Delete(ikey(i)) }
func (b btreeUnderTest) has(i int) (bool, error) {
	_, ok, err := b.Get(ikey(i))
	return ok, err
}

type rtreeUnderTest struct{ *RTreeIndex }

func pointOf(i int) rtree.Rect { return rtree.PointRect(float64(i), float64(i)) }

func (r rtreeUnderTest) put(i int) error { return r.Insert(pointOf(i), ikey(i)) }
func (r rtreeUnderTest) del(i int) error { return r.Delete(pointOf(i), ikey(i)) }
func (r rtreeUnderTest) has(i int) (bool, error) {
	found := false
	err := r.Search(pointOf(i), func(_ rtree.Rect, key []byte) bool {
		found = found || bytes.Equal(key, ikey(i))
		return true
	})
	return found, err
}

// memSize is the memory components' approximate bytes, the sealed one's
// included.
func (l *lifecycle[M, D]) memSize() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	n := 0
	for _, m := range l.mems {
		n += m.size()
	}
	return n
}

// snapshotRefs returns every live component's reference count as seen
// from inside a snapshot (list + snapshot = 2 when nothing else holds it).
func (l *lifecycle[M, D]) snapshotRefs() []int32 {
	comps, _ := l.view()
	refs := make([]int32, len(comps))
	for i, c := range comps {
		refs[i] = atomic.LoadInt32(&c.refs)
	}
	_ = l.release(comps)
	return refs
}

func (l *lifecycle[M, D]) componentCounts() []int64 {
	comps, _ := l.view()
	counts := make([]int64, len(comps))
	for i, c := range comps {
		counts[i] = c.idx.Count()
	}
	_ = l.release(comps)
	return counts
}

// componentPages is the pages of the live components' files.
func (l *lifecycle[M, D]) componentPages() int64 {
	comps, _ := l.view()
	var pages int64
	for _, c := range comps {
		n, _ := l.bc.FileManager().NumPages(c.file)
		pages += int64(n)
	}
	_ = l.release(comps)
	return pages
}

// forceMerge merges components [lo..hi] regardless of the policy. The
// caller has drained the worker (Flush), the only other merger.
func (l *lifecycle[M, D]) forceMerge(lo, hi int) error {
	comps, _ := l.view()
	return errors.Join(l.mergeRange(comps, lo, hi, nil), l.release(comps))
}

func (l *lifecycle[M, D]) swapNewestTwo() {
	l.mu.Lock()
	l.disk[0], l.disk[1] = l.disk[1], l.disk[0]
	l.mu.Unlock()
}

func (l *lifecycle[M, D]) setNewestDropped(v bool) { l.disk[0].dropped = v }

// listPhantomComponent adds a component the manifest does not know about.
func (l *lifecycle[M, D]) listPhantomComponent() {
	l.mu.Lock()
	c := l.disk[0]
	l.disk = append([]*component[D]{{seq: l.seq, file: c.file, idx: c.idx, refs: 1}}, l.disk...)
	l.seq++
	l.mu.Unlock()
}

// openFunc opens (or reopens) the index called name on bc.
type openFunc func(bc *storage.BufferCache, name string, opts Options) testIndex

// forEachKind runs fn once per index kind.
func forEachKind(t *testing.T, fn func(t *testing.T, open openFunc)) {
	t.Run("btree", func(t *testing.T) {
		fn(t, func(bc *storage.BufferCache, name string, opts Options) testIndex {
			tr, err := Open(bc, name, opts)
			if err != nil {
				t.Fatal(err)
			}
			return btreeUnderTest{tr}
		})
	})
	t.Run("rtree", func(t *testing.T) {
		fn(t, func(bc *storage.BufferCache, name string, opts Options) testIndex {
			rt, err := OpenRTree(bc, name, opts)
			if err != nil {
				t.Fatal(err)
			}
			return rtreeUnderTest{rt}
		})
	})
}

func putRange(t *testing.T, ix testIndex, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := ix.put(i); err != nil {
			t.Fatal(err)
		}
	}
}

func wantPresent(t *testing.T, ix testIndex, lo, hi int, want bool, when string) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if ok, err := ix.has(i); err != nil || ok != want {
			t.Fatalf("entry %d %s: present=%v err=%v, want present=%v", i, when, ok, err, want)
		}
	}
}

func TestFlushFaultKeepsDataAndRetries(t *testing.T) {
	forEachKind(t, func(t *testing.T, open openFunc) {
		fault.Disarm()
		defer fault.Disarm()
		bc, _ := newEnv(t, 512, 64)
		ix := open(bc, "d/faultflush", Options{MemBudget: 1 << 20})
		putRange(t, ix, 0, 50)
		if err := fault.Arm("lsm.flush.io:error"); err != nil {
			t.Fatal(err)
		}
		if err := ix.Flush(); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("flush with armed fault: got %v", err)
		}
		fault.Disarm()
		// The data never left the memory component; a retry flushes it.
		if ix.memSize() == 0 {
			t.Fatal("failed flush dropped the sealed component")
		}
		wantPresent(t, ix, 0, 50, true, "in the sealed component of a failed flush")
		if err := ix.Flush(); err != nil {
			t.Fatalf("retry flush: %v", err)
		}
		wantPresent(t, ix, 0, 50, true, "after failed+retried flush")
		mustValidate(t, ix, bc)
	})
}

// TestFlushFaultPanicIsMaintenanceError panics in a flush on the worker,
// once behind a Flush and once behind writes alone: the process survives,
// the Flush or one later write gets ErrMaintenance naming the panic, and
// the flush runs again, after which every entry reads back.
func TestFlushFaultPanicIsMaintenanceError(t *testing.T) {
	isPanic := func(err error) bool {
		return errors.Is(err, ErrMaintenance) && strings.Contains(err.Error(), "panic: fault: injected panic at "+fault.PointLSMFlush)
	}
	forEachKind(t, func(t *testing.T, open openFunc) {
		fault.Disarm()
		defer fault.Disarm()
		bc, _ := newEnv(t, 1024, 1024)
		ix := open(bc, "d/panicflush", Options{MemBudget: 1 << 20})
		putRange(t, ix, 0, 50)
		if err := fault.Arm(fault.PointLSMFlush + ":panic"); err != nil {
			t.Fatal(err)
		}
		if err := ix.Flush(); !isPanic(err) {
			t.Fatalf("flush with an armed panic: got %v", err)
		}
		fault.Disarm()
		wantPresent(t, ix, 0, 50, true, "in the sealed component of a panicked flush")
		if err := ix.Flush(); err != nil {
			t.Fatalf("retry flush: %v", err)
		}
		wantPresent(t, ix, 0, 50, true, "after the panicked and retried flush")
		mustValidate(t, ix, bc)

		// Writes alone: the budget seals, the worker panics, and a write
		// that meets the failure gets it.
		ix = open(bc, "d/panicbg", Options{MemBudget: 4 << 10})
		if err := fault.Arm(fault.PointLSMFlush + ":panic:times=1"); err != nil {
			t.Fatal(err)
		}
		failures, n := 0, 0
		for ; n < 3000 && (fault.Fired(fault.PointLSMFlush) == 0 || n%500 != 0); n++ {
			if err := ix.put(n); err != nil {
				if !isPanic(err) {
					t.Fatalf("put %d: %v, want the worker's panic as ErrMaintenance", n, err)
				}
				failures++
			}
		}
		if fault.Fired(fault.PointLSMFlush) == 0 {
			t.Fatalf("the flush never panicked in %d puts", n)
		}
		if err := ix.Flush(); err != nil {
			if !isPanic(err) || failures != 0 {
				t.Fatalf("flush: %v after %d reported failures", err, failures)
			}
			failures++
			if err := ix.Flush(); err != nil {
				t.Fatalf("second flush: %v", err)
			}
		}
		if failures != 1 {
			t.Fatalf("the panic was reported %d times, want once", failures)
		}
		wantPresent(t, ix, 0, n, true, "after the retried flush")
		mustValidate(t, ix, bc)
	})
}

func TestMergeFaultReleasesVictims(t *testing.T) {
	forEachKind(t, func(t *testing.T, open openFunc) {
		fault.Disarm()
		defer fault.Disarm()
		bc, _ := newEnv(t, 512, 64)
		ix := open(bc, "d/faultmerge", Options{MemBudget: 1 << 20, Policy: ConstantPolicy{Components: 2}})
		// Two flushes, then a third whose maybeMerge will pick a merge and
		// hit the armed fault.
		for round := 0; round < 2; round++ {
			putRange(t, ix, round*30, (round+1)*30)
			if err := ix.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := fault.Arm("lsm.merge.io:error"); err != nil {
			t.Fatal(err)
		}
		putRange(t, ix, 60, 90)
		if err := ix.Flush(); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("merge with armed fault: got %v", err)
		}
		fault.Disarm()
		// The victims must still be live (hold released, not dropped):
		// every entry remains readable and the structure validates.
		wantPresent(t, ix, 0, 90, true, "after failed merge")
		for i, refs := range ix.snapshotRefs() {
			if refs != 2 {
				t.Fatalf("component %d refs = %d after failed merge, want 2 (list + snapshot)", i, refs)
			}
		}
		// The next flush retries the merge and succeeds.
		putRange(t, ix, 90, 100)
		if err := ix.Flush(); err != nil {
			t.Fatalf("flush after failed merge: %v", err)
		}
		if n := ix.DiskComponents(); n != 1 {
			t.Fatalf("components after retried merge = %d, want 1", n)
		}
		wantPresent(t, ix, 0, 100, true, "after retried merge")
		mustValidate(t, ix, bc)
	})
}

// TestCrashOrphanComponentIsReplaced crashes between building a component
// and writing the manifest: the component file reaches disk, the manifest
// never names it, and the reopened index hands the same sequence number
// out again. The first flush after reopen must drop the orphan rather
// than build over (or refuse) its stale pages.
func TestCrashOrphanComponentIsReplaced(t *testing.T) {
	forEachKind(t, func(t *testing.T, open openFunc) {
		fault.Disarm()
		defer fault.Disarm()
		dir := t.TempDir()
		fm, err := storage.NewFileManager(dir, 512)
		if err != nil {
			t.Fatal(err)
		}
		bc := storage.NewBufferCache(fm, 64)
		ix := open(bc, "d/orphan", Options{MemBudget: 1 << 20})
		putRange(t, ix, 0, 40)
		if err := ix.Flush(); err != nil {
			t.Fatal(err)
		}
		putRange(t, ix, 40, 80)
		if err := fault.Arm("lsm.flush.io:error"); err != nil {
			t.Fatal(err)
		}
		if err := ix.Flush(); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("flush with armed fault: got %v", err)
		}
		fault.Disarm()
		// The built-but-unpublished component's pages reach disk; then the
		// process dies (the memory component is lost, as in a real crash).
		if err := bc.FlushAll(); err != nil {
			t.Fatal(err)
		}
		fm.Close()

		fm2, err := storage.NewFileManager(dir, 512)
		if err != nil {
			t.Fatal(err)
		}
		defer fm2.Close()
		bc2 := storage.NewBufferCache(fm2, 64)
		ix2 := open(bc2, "d/orphan", Options{MemBudget: 1 << 20})
		putRange(t, ix2, 100, 130)
		if err := ix2.Flush(); err != nil {
			t.Fatalf("first flush after reopen over an orphan component: %v", err)
		}
		wantPresent(t, ix2, 0, 40, true, "flushed before the crash")
		wantPresent(t, ix2, 40, 80, false, "in the orphan component")
		wantPresent(t, ix2, 100, 130, true, "flushed after reopen")
		if got := ix2.componentCounts(); len(got) != 2 || got[0] != 30 || got[1] != 40 {
			t.Fatalf("component entry counts = %v, want [30 40]", got)
		}
		mustValidate(t, ix2, bc2)
	})
}

// TestTieredMergeKeepsAntimatter merges a newest-prefix of components
// that does not reach the oldest one: the antimatter in the merged range
// must survive to cancel entries in the older component, and must be
// dropped once a merge does reach it.
func TestTieredMergeKeepsAntimatter(t *testing.T) {
	forEachKind(t, func(t *testing.T, open openFunc) {
		bc, _ := newEnv(t, 1024, 512)
		ix := open(bc, "d/tiered", Options{MemBudget: 1 << 30, Policy: TieredPolicy{}})
		flush := func() {
			t.Helper()
			if err := ix.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		putRange(t, ix, 0, 300)
		flush() // the big, oldest component
		putRange(t, ix, 300, 330)
		flush()
		for i := 0; i < 30; i++ {
			if err := ix.del(i); err != nil {
				t.Fatal(err)
			}
		}
		flush()
		putRange(t, ix, 330, 360)
		flush() // sizes 30,30,30,300: the three small ones merge
		if got := ix.componentCounts(); len(got) != 2 || got[0] != 90 || got[1] != 300 {
			t.Fatalf("after tiered merge component entry counts = %v, want [90 300] (30 antimatter entries kept)", got)
		}
		wantPresent(t, ix, 0, 30, false, "deleted; antimatter must survive the partial merge")
		wantPresent(t, ix, 30, 360, true, "after partial merge")
		mustValidate(t, ix, bc)

		if err := ix.forceMerge(0, 1); err != nil {
			t.Fatal(err)
		}
		if got := ix.componentCounts(); len(got) != 1 || got[0] != 330 {
			t.Fatalf("after full merge component entry counts = %v, want [330] (antimatter dropped)", got)
		}
		wantPresent(t, ix, 0, 30, false, "deleted")
		wantPresent(t, ix, 30, 360, true, "after full merge")
		mustValidate(t, ix, bc)
	})
}

// Validator self-tests: each corruption of the shared component
// bookkeeping must be caught, for every kind.

func flushedIndex(t *testing.T, open openFunc) testIndex {
	t.Helper()
	bc, _ := newEnv(t, 1024, 512)
	ix := open(bc, "v", Options{MemBudget: 1 << 30, Policy: NoMergePolicy{}})
	for gen := 0; gen < 2; gen++ {
		putRange(t, ix, gen*50, gen*50+100)
		if err := ix.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Validate(); err != nil {
		t.Fatalf("healthy index failed validation: %v", err)
	}
	return ix
}

func TestValidateDetectsComponentDisorder(t *testing.T) {
	forEachKind(t, func(t *testing.T, open openFunc) {
		ix := flushedIndex(t, open)
		ix.swapNewestTwo()
		if err := ix.Validate(); err == nil {
			t.Fatal("validator missed out-of-order components")
		}
		ix.swapNewestTwo()
	})
}

func TestValidateDetectsDroppedInList(t *testing.T) {
	forEachKind(t, func(t *testing.T, open openFunc) {
		ix := flushedIndex(t, open)
		ix.setNewestDropped(true)
		if err := ix.Validate(); err == nil {
			t.Fatal("validator missed a dropped component in the live list")
		}
		ix.setNewestDropped(false)
	})
}

func TestValidateDetectsManifestDrift(t *testing.T) {
	forEachKind(t, func(t *testing.T, open openFunc) {
		ix := flushedIndex(t, open)
		ix.listPhantomComponent()
		if err := ix.Validate(); err == nil {
			t.Fatal("validator missed a component missing from the manifest")
		}
	})
}

// TestRTreeConcurrentSearchWriteFlush runs spatial searches against
// concurrent inserts, deletes and forced flushes (with merges). A stable
// set of entries never changes, so every search must see all of it,
// exactly once, whatever the writer is doing; the churned entries must
// match the writer's model once it stops. Run under -race: the memory
// R-tree is mutated in place while searches walk it.
func TestRTreeConcurrentSearchWriteFlush(t *testing.T) {
	bc, _ := newEnv(t, 1024, 1024)
	rt, err := OpenRTree(bc, "race/sp", Options{MemBudget: 8 << 10, Policy: ConstantPolicy{Components: 3}})
	if err != nil {
		t.Fatal(err)
	}
	const stable, churn, rounds, readers = 200, 100, 6, 3
	for i := 0; i < stable; i++ {
		if err := rt.Insert(pointOf(i), ikey(i)); err != nil {
			t.Fatal(err)
		}
	}
	world := rtree.Rect{MinX: -1, MinY: -1, MaxX: 1e6, MaxY: 1e6}
	search := func() (map[int]int, error) {
		got := map[int]int{}
		err := rt.Search(world, func(r rtree.Rect, key []byte) bool {
			got[int(r.MinX)]++
			return true
		})
		return got, err
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				got, err := search()
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				for i := 0; i < stable; i++ {
					if got[i] != 1 {
						t.Errorf("stable entry %d seen %d times during churn", i, got[i])
						return
					}
				}
				for i, n := range got {
					if n != 1 || i < 0 || i >= stable+churn {
						t.Errorf("entry %d seen %d times", i, n)
						return
					}
				}
			}
		}()
	}

	live := map[int]bool{}
	var werr error
writer:
	for round := 0; round < rounds; round++ {
		for j := 0; j < churn; j++ {
			i := stable + j
			if (j+round)%3 == 0 && live[i] {
				werr = rt.Delete(pointOf(i), ikey(i))
				delete(live, i)
			} else if !live[i] {
				werr = rt.Insert(pointOf(i), ikey(i))
				live[i] = true
			}
			if werr == nil && j%25 == 0 {
				werr = rt.Flush()
			}
			if werr != nil {
				break writer
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if werr != nil {
		t.Fatal(werr)
	}

	got, err := search()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < stable+churn; i++ {
		want := 0
		if i < stable || live[i] {
			want = 1
		}
		if got[i] != want {
			t.Fatalf("entry %d seen %d times after the writer stopped, want %d", i, got[i], want)
		}
	}
	if flushes, merges := rt.Stats(); flushes == 0 || merges == 0 {
		t.Fatalf("test exercised %d flushes and %d merges, want both > 0", flushes, merges)
	}
	mustValidate(t, rt, bc)
}
