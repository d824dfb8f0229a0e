package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asterix/internal/check"
	"asterix/internal/fault"
	"asterix/internal/mem"
	"asterix/internal/obs"
	"asterix/internal/rtree"
)

// Tests of the sealed component and the worker: what readers see while a
// flush is under way, and what happens when one fails off the writer's
// thread.

// history is the oracle of one writer's writes: key k has been written
// issued[k] times, acked[k] of them acknowledged, and its state after
// write n is a function of n alone. A reader brackets its read with the
// two counters and accepts any state the key went through in between.
type history struct {
	issued, acked []atomic.Int64
	// absent reports whether the key is deleted (or unwritten) after its
	// n-th write.
	absent func(n int64) bool
}

func newHistory(keys int, absent func(n int64) bool) *history {
	return &history{issued: make([]atomic.Int64, keys), acked: make([]atomic.Int64, keys), absent: absent}
}

func (h *history) ackedNow() []int64 {
	out := make([]int64, len(h.acked))
	for i := range h.acked {
		out[i] = h.acked[i].Load()
	}
	return out
}

// check reports whether seeing version seen of key k (0: not seen) is
// right for a read that began when acked was read.
func (h *history) check(k int, acked, seen int64) bool {
	issued := h.issued[k].Load()
	if seen != 0 {
		return seen >= acked && seen <= issued && !h.absent(seen)
	}
	for n := acked; n <= issued; n++ {
		if h.absent(n) {
			return true
		}
	}
	return false
}

// TestTreeReadersSeeOneView loops Get and Scan against a writer whose
// small budget seals a component every few hundred puts (with merges):
// every read must find each key exactly once, at a version no older than
// the last acknowledged before the read began, tombstones included —
// whether the version sits in the active component, the sealed one or on
// disk, and whichever of them the flush moves it between meanwhile. A
// scan, of the whole tree, of a range or of a set of ranges, reads a memory
// component a batch at a time while the writer goes on: its keys must rise
// strictly, and it must see every key acknowledged before it began. A
// range-set scan reads all its ranges in one view, and the flush may move
// entries between the ranges it reads. So the writer also
// inserts fresh keys between the existing ones (inside the batches being
// read), and in every other phase overwrites one key until the memory
// component copies its slab.
func TestTreeReadersSeeOneView(t *testing.T) {
	bc, _ := newEnv(t, 1024, 2048)
	tr, err := Open(bc, "view/t", Options{MemBudget: 16 << 10, Policy: ConstantPolicy{Components: 3}})
	if err != nil {
		t.Fatal(err)
	}
	const keys, writes, phase = 400, 30000, 1500
	h := newHistory(keys, func(n int64) bool { return n == 0 || n%5 == 0 })
	version := func(v []byte) int64 { return int64(binary.BigEndian.Uint64(v)) }
	// Fresh key j is ikey(j*13%keys) ‖ j, between two of the keys above;
	// it is written once, and never deleted.
	var fresh atomic.Int64 // fresh keys acknowledged
	freshKey := func(j int) []byte { return binary.BigEndian.AppendUint32(ikey(j*13%keys), uint32(j)) }

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(2)
		go func() { // point reads
			defer wg.Done()
			for k := 0; !stop.Load(); k = (k + 7) % keys {
				acked := h.acked[k].Load()
				v, ok, err := tr.Get(ikey(k))
				seen := int64(0)
				if ok {
					seen = version(v)
				}
				if err != nil || !h.check(k, acked, seen) {
					t.Errorf("Get(%d) = version %d, err %v: acknowledged %d, issued %d", k, seen, err, acked, h.issued[k].Load())
					return
				}
			}
		}()
		go func(r int) { // scans: whole, of [lo, hi], or of a set of such ranges
			defer wg.Done()
			for n := 0; !stop.Load(); n++ {
				var spans [][2]int // the ranges scanned, as key numbers, inclusive
				switch (n + r) % 3 {
				case 0:
					spans = [][2]int{{0, keys - 1}}
				case 1:
					lo := n * 37 % keys
					spans = [][2]int{{lo, lo + n*11%(keys-lo)}}
				default:
					for lo := n % 23; lo < keys; {
						hi := min(lo+(n+lo)%50, keys-1)
						spans = append(spans, [2]int{lo, hi})
						lo = hi + 1 + (n*7+lo)%30
					}
				}
				rs := make([]KeyRange, len(spans))
				end := make([]int, keys) // the last key number of k's range; -1 outside every range
				for k := range end {
					end[k] = -1
				}
				for i, sp := range spans {
					rs[i] = KeyRange{ikey(sp[0]), ikey(sp[1])}
					for k := sp[0]; k <= sp[1]; k++ {
						end[k] = sp[1]
					}
				}
				acked, freshAcked := h.ackedNow(), int(fresh.Load())
				seen := make([]int64, keys)
				var prev []byte
				freshSeen := 0
				err := tr.ScanRanges(rs, func(key, v []byte) bool {
					k := int(binary.BigEndian.Uint64(key))
					// A fresh key behind ikey(k) lies in k's range unless k ends it.
					if prev != nil && bytes.Compare(prev, key) >= 0 || k >= keys || end[k] < 0 || len(key) > 8 && k == end[k] {
						t.Errorf("Scan %v visited %x after %x", spans, key, prev)
					}
					prev = append(prev[:0], key...)
					if len(key) > 8 {
						if int(binary.BigEndian.Uint32(key[8:])) < freshAcked {
							freshSeen++
						}
						return true
					}
					seen[k] = version(v)
					return true
				})
				if err != nil {
					t.Errorf("Scan: %v", err)
					return
				}
				want := 0
				for _, sp := range spans {
					for k := sp[0]; k <= sp[1]; k++ {
						if !h.check(k, acked[k], seen[k]) {
							t.Errorf("Scan %v saw key %d at version %d: acknowledged %d, issued %d", spans, k, seen[k], acked[k], h.issued[k].Load())
							return
						}
					}
					for j := 0; j < freshAcked; j++ {
						if k := j * 13 % keys; k >= sp[0] && k < sp[1] {
							want++
						}
					}
				}
				if freshSeen != want {
					t.Errorf("Scan %v saw %d of the %d fresh keys acknowledged before it", spans, freshSeen, want)
					return
				}
			}
		}(r)
	}
	slabCopies := 0
	for i := 0; i < writes && !t.Failed(); i++ {
		k := (i * 31) % keys
		if i/phase%2 == 1 {
			k = i / phase % keys // one key, overwritten until the slab is copied
		} else if i%3 == 0 {
			j := int(fresh.Load())
			if err := tr.Upsert(freshKey(j), nil); err != nil {
				t.Fatal(err)
			}
			fresh.Store(int64(j + 1))
		}
		m := tr.mem // this goroutine is the only one to seal
		m.mu.RLock()
		dead := m.dead
		m.mu.RUnlock()
		n := h.issued[k].Add(1)
		if h.absent(n) {
			err = tr.Delete(ikey(k))
		} else {
			err = tr.Upsert(ikey(k), append(ikey(int(n)), make([]byte, 40)...))
		}
		if err != nil {
			t.Error(err)
			break
		}
		h.acked[k].Store(n)
		m.mu.RLock()
		if m.dead < dead {
			slabCopies++
		}
		m.mu.RUnlock()
	}
	stop.Store(true)
	wg.Wait()
	if flushes, merges := tr.Stats(); flushes < 10 || merges == 0 || slabCopies < 5 {
		t.Fatalf("the writer caused %d flushes, %d merges and %d slab copies, want many, some and several", flushes, merges, slabCopies)
	}
	mustValidate(t, tr, bc)
}

// TestRTreeReadersSeeOneView is the same for Search: pairs are inserted
// and deleted in turn, and a search of the whole world must see each pair
// at most once and present or absent as some write since the last
// acknowledged one left it.
func TestRTreeReadersSeeOneView(t *testing.T) {
	bc, _ := newEnv(t, 1024, 2048)
	rt, err := OpenRTree(bc, "view/r", Options{MemBudget: 16 << 10, Policy: ConstantPolicy{Components: 3}})
	if err != nil {
		t.Fatal(err)
	}
	const keys, writes = 300, 12000
	h := newHistory(keys, func(n int64) bool { return n%2 == 0 })
	world := rtree.Rect{MinX: -1, MinY: -1, MaxX: 1e6, MaxY: 1e6}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				acked := h.ackedNow()
				seen := make([]int64, keys)
				err := rt.Search(world, func(r rtree.Rect, key []byte) bool {
					seen[int(r.MinX)]++
					return true
				})
				if err != nil {
					t.Errorf("Search: %v", err)
					return
				}
				for k, n := range seen {
					// A present pair is at some odd version: any in range.
					if n > 1 || n == 1 && acked[k] == h.issued[k].Load() && h.absent(acked[k]) ||
						n == 0 && !h.check(k, acked[k], 0) {
						t.Errorf("Search saw pair %d %d times: acknowledged %d, issued %d", k, n, acked[k], h.issued[k].Load())
						return
					}
				}
			}
		}()
	}
	for i := 0; i < writes && !t.Failed(); i++ {
		k := (i * 31) % keys
		n := h.issued[k].Add(1)
		if h.absent(n) {
			err = rt.Delete(pointOf(k), ikey(k))
		} else {
			err = rt.Insert(pointOf(k), ikey(k))
		}
		if err != nil {
			t.Error(err)
			break
		}
		h.acked[k].Store(n)
	}
	stop.Store(true)
	wg.Wait()
	if flushes, merges := rt.Stats(); flushes < 5 || merges == 0 {
		t.Fatalf("the writer caused %d flushes and %d merges, want many and some", flushes, merges)
	}
	mustValidate(t, rt, bc)
}

// TestBackgroundFaultIsStickyAndRetried fails a flush, and then a merge,
// on the worker, where no statement is waiting for it: what was being
// written out stays readable, exactly one later write gets the typed
// error, the work is done again, and writers that fill further
// components meanwhile neither hang nor lose anything.
func TestBackgroundFaultIsStickyAndRetried(t *testing.T) {
	for _, point := range []string{fault.PointLSMFlush, fault.PointLSMMerge} {
		t.Run(point, func(t *testing.T) {
			forEachKind(t, func(t *testing.T, open openFunc) {
				fault.Disarm()
				defer fault.Disarm()
				bc, _ := newEnv(t, 1024, 1024)
				ix := open(bc, "d/bgfault", Options{MemBudget: 4 << 10, Policy: ConstantPolicy{Components: 2}})
				if err := fault.Arm(point + ":error:after=2:times=1"); err != nil {
					t.Fatal(err)
				}
				// Only writes: the budget seals, the worker flushes and merges.
				// They go on to the next multiple of 500 after the fault has
				// fired, so that one of them meets the failure.
				failures, n := 0, 0
				for ; n < 3000 && (fault.Fired(point) == 0 || n%500 != 0); n++ {
					if err := ix.put(n); err != nil {
						if !errors.Is(err, ErrMaintenance) || !errors.Is(err, fault.ErrInjected) {
							t.Fatalf("put %d: %v, want the worker's injected failure", n, err)
						}
						failures++
						wantPresent(t, ix, 0, n+1, true, "when the background failure surfaced")
					}
				}
				if fault.Fired(point) == 0 {
					t.Fatalf("%s never fired in %d puts", point, n)
				}
				if err := ix.Flush(); err != nil {
					// The failure may have been the last job's: Flush reports it
					// (once) in place of a write.
					if !errors.Is(err, ErrMaintenance) || failures != 0 {
						t.Fatalf("flush: %v after %d reported failures", err, failures)
					}
					failures++
					if err := ix.Flush(); err != nil {
						t.Fatalf("second flush: %v", err)
					}
				}
				if failures != 1 {
					t.Fatalf("the background failure was reported %d times, want once", failures)
				}
				wantPresent(t, ix, 0, n, true, "after the retried maintenance")
				if ix.memSize() != 0 {
					t.Fatalf("%d bytes still in memory after Flush", ix.memSize())
				}
				mustValidate(t, ix, bc)
			})
		})
	}
}

// TestWorkerStopAbandons stops the worker while a flush sits at the fault
// point between build and publish: the job gives up, nothing reaches the
// manifest, the sealed component stays readable, and writers that need
// the slot afterwards get an error instead of waiting for ever.
func TestWorkerStopAbandons(t *testing.T) {
	forEachKind(t, func(t *testing.T, open openFunc) {
		fault.Disarm()
		defer fault.Disarm()
		bc, _ := newEnv(t, 1024, 1024)
		w := &Worker{}
		ix := open(bc, "d/stop", Options{MemBudget: 4 << 10, Worker: w})
		if err := fault.Arm(fault.PointLSMFlush + ":delay=50ms:times=1"); err != nil {
			t.Fatal(err)
		}
		n := 0
		for ; fault.Fired(fault.PointLSMFlush) == 0; n++ {
			if n > 5000 {
				t.Fatal("no flush started")
			}
			if err := ix.put(n); err != nil {
				t.Fatal(err)
			}
			time.Sleep(10 * time.Microsecond)
		}
		w.Stop()
		if got := ix.DiskComponents(); got != 0 {
			t.Fatalf("%d disk components after the worker abandoned the only flush", got)
		}
		wantPresent(t, ix, 0, n, true, "after the abandoned flush")
		if err := ix.Flush(); !errors.Is(err, ErrMaintenance) {
			t.Fatalf("flush on a stopped worker: %v", err)
		}
		// The second one queues the flush again, on the stopped worker.
		if err := ix.Flush(); !errors.Is(err, ErrMaintenance) {
			t.Fatalf("second flush on a stopped worker: %v", err)
		}
	})
}

// TestWriterStallIsFlushWait holds the worker at the flush's fault point
// while a writer fills a second component: the writer's wait for the
// sealed slot — and nothing else — is flush wait on its span and an
// observation of lsm_writer_stall_seconds, and the sealed gauge and the
// governor's sealed account are back at zero once the index is flushed.
func TestWriterStallIsFlushWait(t *testing.T) {
	fault.Disarm()
	defer fault.Disarm()
	bc, _ := newEnv(t, 1024, 1024)
	reg := obs.NewRegistry()
	gov := mem.NewGovernor(mem.Config{ComponentBytes: 1 << 20, WorkingBytes: 1 << 20})
	tr, err := Open(bc, "stall/t", Options{MemBudget: 4 << 10, Metrics: reg, Gov: gov})
	if err != nil {
		t.Fatal(err)
	}
	stalls := func() int64 { return reg.Snapshot()["lsm_writer_stall_seconds"].(obs.HistogramSnapshot).Count }

	// Without a delay a first component is sealed and no writer waits.
	sp := obs.NewSpan("free")
	for i := 0; tr.DiskComponents() == 0 && i < 5000; i++ {
		if err := tr.UpsertSpan(ikey(i), make([]byte, 64), sp); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Microsecond)
	}
	if w := sp.Waits()[obs.WaitFlush]; w != 0 || stalls() != 0 {
		t.Fatalf("flush wait %v and %d stalls although the sealed slot was always free", w, stalls())
	}

	if err := fault.Arm(fault.PointLSMFlush + ":delay=30ms:times=1"); err != nil {
		t.Fatal(err)
	}
	sp = obs.NewSpan("stalled")
	for i := 0; stalls() == 0; i++ {
		if i > 5000 {
			t.Fatal("two components' worth of puts and no stall")
		}
		if err := tr.UpsertSpan(ikey(i), make([]byte, 64), sp); err != nil {
			t.Fatal(err)
		}
	}
	if w := sp.Waits()[obs.WaitFlush]; w < 5*time.Millisecond || w > 5*time.Second {
		t.Fatalf("flush wait %v on the span of a writer held up by a 30ms flush", w)
	}
	if gov.ComponentSealed() == 0 && reg.Snapshot()["lsm_sealed_components"].(int64) != 0 {
		t.Fatal("a sealed component is counted by the gauge and not by the governor")
	}
	mustValidate(t, tr, bc)
	if n, b := reg.Snapshot()["lsm_sealed_components"].(int64), gov.ComponentSealed(); n != 0 || b != 0 {
		t.Fatalf("%d sealed components, %d sealed bytes after Flush", n, b)
	}
	check.MustValidate(t, gov)
}

// TestFlushedComponentIsGarbage: once its flush has ended nothing may
// keep a memory component reachable. (The slice of memory components once
// did, through its backing array: every index dragged a dead component of
// up to a component budget — then a skiplist of one node per entry —
// through each garbage collection, which cost the benchmark's htap readers
// a tenth of their throughput.)
func TestFlushedComponentIsGarbage(t *testing.T) {
	bc, _ := newEnv(t, 1024, 256)
	tr, err := Open(bc, "gc/t", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tr.Upsert(ikey(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(tr.mem, func(*memTable) { close(freed) })
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(tr) // the index lives; only the component died
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the flushed memory component is still reachable")
}
