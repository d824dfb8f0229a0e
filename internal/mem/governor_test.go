package mem

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"asterix/internal/check"
	"asterix/internal/obs"
)

func testGovernor(working, component int64) *Governor {
	return NewGovernor(Config{
		WorkingBytes:   working,
		ComponentBytes: component,
		AdmitTimeout:   200 * time.Millisecond,
	})
}

func TestReserveGrowShrinkRelease(t *testing.T) {
	g := testGovernor(1<<20, 1<<20)
	ctx := context.Background()
	gr, err := g.Reserve(ctx, 64<<10)
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if got := g.WorkingGranted(); got != 64<<10 {
		t.Fatalf("granted = %d, want %d", got, 64<<10)
	}
	if !gr.Grow(128 << 10) {
		t.Fatal("Grow within budget denied")
	}
	if got := gr.Granted(); got != 192<<10 {
		t.Fatalf("Granted() = %d, want %d", got, 192<<10)
	}
	gr.Shrink(128 << 10)
	if got := gr.Granted(); got != 64<<10 {
		t.Fatalf("after Shrink Granted() = %d, want %d", got, 64<<10)
	}
	// Shrink never goes below the reservation minimum.
	gr.Shrink(1 << 20)
	if got := gr.Granted(); got != 64<<10 {
		t.Fatalf("Shrink below min: Granted() = %d, want %d", got, 64<<10)
	}
	gr.Release()
	gr.Release() // idempotent
	if got := g.WorkingGranted(); got != 0 {
		t.Fatalf("after Release granted = %d, want 0", got)
	}
}

func TestGrowDeniedAtCapAndWithWaiters(t *testing.T) {
	g := testGovernor(128<<10, 1<<20)
	ctx := context.Background()
	gr, err := g.Reserve(ctx, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Grow(128 << 10) {
		t.Fatal("Grow past the pool cap must be denied")
	}
	// Enqueue a waiter; even a fitting Grow is denied so the waiter can
	// admit.
	done := make(chan *Grant)
	go func() {
		w, err := g.Reserve(ctx, 128<<10)
		if err != nil {
			t.Errorf("waiter Reserve: %v", err)
		}
		done <- w
	}()
	for g.Waiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	if gr.Grow(8 << 10) {
		t.Fatal("Grow with queued waiters must be denied")
	}
	if g.StatsSnapshot().GrowDenied < 2 {
		t.Fatalf("grow-denied counter = %d, want >= 2", g.StatsSnapshot().GrowDenied)
	}
	gr.Release()
	w := <-done
	w.Release()
}

func TestReserveFIFOAndTimeout(t *testing.T) {
	g := testGovernor(100, 1<<20)
	ctx := context.Background()
	first, err := g.Reserve(ctx, 100)
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.Reserve(ctx, 50)
	if !errors.Is(err, ErrAdmissionTimeout) {
		t.Fatalf("want ErrAdmissionTimeout, got %v", err)
	}
	st := g.StatsSnapshot()
	if st.Waits == 0 || st.Timeouts == 0 {
		t.Fatalf("want nonzero waits and timeouts, got %+v", st)
	}
	// Rejection: larger than the whole pool, immediate.
	if _, err := g.Reserve(ctx, 101); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("want ErrAdmissionRejected, got %v", err)
	}
	first.Release()

	// FIFO, no bypass: the first-queued large reservation is granted
	// before the later small one, even though the small one would fit
	// alongside it.
	hold, err := g.Reserve(ctx, 100)
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	var wg sync.WaitGroup
	for i, n := range []int64{80, 30} {
		i, n := i, n
		wg.Add(1)
		go func() {
			defer wg.Done()
			gr, err := g.Reserve(ctx, n)
			if err != nil {
				t.Errorf("queued Reserve: %v", err)
				return
			}
			order <- i
			gr.Release()
		}()
		// Deterministic queue order.
		for g.Waiters() != i+1 {
			time.Sleep(time.Millisecond)
		}
	}
	hold.Release()
	wg.Wait()
	if a, b := <-order, <-order; a != 0 || b != 1 {
		t.Fatalf("grant order = %d,%d; want 0,1", a, b)
	}
}

func TestReserveContextCancel(t *testing.T) {
	g := testGovernor(100, 1<<20)
	hold, err := g.Reserve(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := g.Reserve(ctx, 10)
		errc <- err
	}()
	for g.Waiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if g.Waiters() != 0 {
		t.Fatal("cancelled waiter left in queue")
	}
	hold.Release()
	if got := g.WorkingGranted(); got != 0 {
		t.Fatalf("granted = %d after all releases, want 0", got)
	}
}

// A reservation cancelled in the instant it is granted gives its bytes back
// and the grant loop moves on: the waiter queued behind it is granted
// without any further release. The test holds the governor's lock while it
// cancels the first waiter, so that waiter commits to its cancellation
// branch and blocks in abandon; the test then grants it under the same lock
// and lets go.
func TestCancelledGrantPassesToNextWaiter(t *testing.T) {
	g := NewGovernor(Config{WorkingBytes: 100, ComponentBytes: 1 << 20, AdmitTimeout: 10 * time.Second})
	if _, err := g.Reserve(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- g.reserve(ctx1, 100) }()
	for g.Waiters() < 1 {
		time.Sleep(time.Millisecond)
	}
	go func() { second <- g.reserve(ctx2, 100) }()
	for g.Waiters() < 2 {
		time.Sleep(time.Millisecond)
	}
	g.mu.Lock()
	cancel1()
	// The first waiter has taken its cancellation branch once it waits for
	// the lock in abandon; only then is it granted the first hold's bytes.
	buf := make([]byte, 1<<20)
	for !bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("(*Governor).abandon")) {
		time.Sleep(time.Millisecond)
	}
	g.workUsed -= 100
	g.pumpLocked()
	g.mu.Unlock()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("first waiter: %v, want context.Canceled", err)
	}
	select {
	case err := <-second:
		if err != nil {
			t.Fatalf("second waiter: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the cancelled grant was not passed on: the second waiter is still queued")
	}
	if got := g.WorkingGranted(); got != 100 {
		t.Fatalf("granted = %d, want the second waiter's 100", got)
	}
}

func TestAdmitJobClampAndPeak(t *testing.T) {
	g := testGovernor(64<<10, 1<<20)
	ctx := context.Background()
	// 64 tasks of minTaskGrant would be 16 MiB; the clamp shrinks the
	// per-task minimum so the job fits the 64 KiB pool exactly.
	j, err := g.AdmitJob(ctx, 64)
	if err != nil {
		t.Fatalf("AdmitJob: %v", err)
	}
	if got := g.WorkingGranted(); got != 64<<10 {
		t.Fatalf("job reservation = %d, want %d", got, 64<<10)
	}
	grants := make([]*Grant, 64)
	for i := range grants {
		grants[i] = j.TaskGrant()
		if got := grants[i].Granted(); got != 1<<10 {
			t.Fatalf("task grant = %d, want %d", got, 1<<10)
		}
	}
	if p := j.Peak(); p != 64<<10 {
		t.Fatalf("peak = %d, want %d", p, 64<<10)
	}
	for _, gr := range grants {
		gr.Release()
	}
	j.Release()
	if got := g.WorkingGranted(); got != 0 {
		t.Fatalf("granted = %d after job release, want 0", got)
	}
	if p := j.Peak(); p != 64<<10 {
		t.Fatalf("peak after release = %d, want %d", p, 64<<10)
	}

	// Below the clamp, a task's minimum is minTaskGrant itself.
	g = testGovernor(4*minTaskGrant, 1<<20)
	j, err = g.AdmitJob(ctx, 2)
	if err != nil {
		t.Fatalf("AdmitJob: %v", err)
	}
	if got := j.TaskGrant().Granted(); got != minTaskGrant {
		t.Fatalf("unclamped task grant = %d, want %d", got, minTaskGrant)
	}
}

func TestNilGovernorIsUnbudgeted(t *testing.T) {
	var g *Governor
	j, err := g.AdmitJob(context.Background(), 8)
	if err != nil || j != nil {
		t.Fatalf("nil AdmitJob = %v, %v", j, err)
	}
	gr := j.TaskGrant()
	if !gr.Grow(1 << 30) {
		t.Fatal("nil grant Grow must succeed")
	}
	if gr.Granted() < 1<<40 {
		t.Fatal("nil grant must report unbounded memory")
	}
	gr.ShrinkToMin()
	gr.Release()
	j.Release()
	c := g.RegisterComponent("x", nil)
	if fs, err := c.Add(123, nil); fs || err != nil {
		t.Fatalf("nil charge Add = %v, %v", fs, err)
	}
	c.Seal()
	c.Flushed()
	c.Unregister()
}

// flushableTree is a test double for an LSM tree's arbitration hook.
type flushableTree struct {
	mu      sync.Mutex
	charge  *ComponentCharge
	flushes int
	busy    bool
}

// trySeal seals and leaves the sealed bytes in memory, as a tree whose
// flush has not ended does.
func (f *flushableTree) trySeal(*obs.Span) (bool, error) {
	if f.busy {
		return false, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flushes++
	f.charge.Seal()
	return true, nil
}

func TestComponentArbitrationEarliestFirst(t *testing.T) {
	g := testGovernor(1<<20, 100)
	a := &flushableTree{}
	b := &flushableTree{}
	a.charge = g.RegisterComponent("a", a.trySeal)
	b.charge = g.RegisterComponent("b", b.trySeal)

	// Dirty a first, then b; overflow the pool from a third account so
	// neither is "self".
	if fs, err := a.charge.Add(40, nil); fs || err != nil {
		t.Fatalf("a.Add = %v, %v", fs, err)
	}
	if fs, err := b.charge.Add(40, nil); fs || err != nil {
		t.Fatalf("b.Add = %v, %v", fs, err)
	}
	c := &flushableTree{}
	c.charge = g.RegisterComponent("c", c.trySeal)
	if fs, err := c.charge.Add(30, nil); fs || err != nil {
		t.Fatalf("c.Add = %v, %v", fs, err)
	}
	// Pool was 110 > 100: the earliest-dirty tree (a) must have been
	// flushed, and only it.
	if a.flushes != 1 || b.flushes != 0 {
		t.Fatalf("flushes a=%d b=%d, want 1, 0", a.flushes, b.flushes)
	}
	// a's bytes left the pool at the seal and stay in the sealed account
	// until its flush ends.
	if got, sealed := g.ComponentCharged(), g.ComponentSealed(); got != 70 || sealed != 40 {
		t.Fatalf("charged = %d, sealed = %d, want 70, 40", got, sealed)
	}
	check.MustValidate(t, g)
	a.charge.Flushed()
	if sealed := g.ComponentSealed(); sealed != 0 {
		t.Fatalf("sealed = %d after the flush ended, want 0", sealed)
	}
	check.MustValidate(t, g)
	if g.StatsSnapshot().ArbitratedFlushes != 1 {
		t.Fatalf("arbitrated flushes = %d, want 1", g.StatsSnapshot().ArbitratedFlushes)
	}
}

func TestComponentArbitrationSelfAndBusy(t *testing.T) {
	g := testGovernor(1<<20, 100)
	a := &flushableTree{busy: true} // writer lock held elsewhere
	b := &flushableTree{}
	a.charge = g.RegisterComponent("a", a.trySeal)
	b.charge = g.RegisterComponent("b", b.trySeal)
	if fs, err := a.charge.Add(80, nil); fs || err != nil {
		t.Fatalf("a.Add = %v, %v", fs, err)
	}
	// b pushes the pool over; a is earliest but busy, so b is told to
	// flush itself (it holds its own writer lock).
	fs, err := b.charge.Add(80, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fs {
		t.Fatal("want flushSelf=true when the earlier victim is busy")
	}
	if a.flushes != 0 {
		t.Fatal("busy tree must not be flushed")
	}

	// Self earliest: a (no longer busy) adds more; it is the earliest
	// dirty, so it flushes itself rather than deadlocking on its own lock.
	a.busy = false
	b.charge.Seal()
	fs, err = a.charge.Add(30, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fs {
		t.Fatal("want flushSelf=true when self is the earliest dirty tree")
	}
}

func TestConcurrentReserveReleaseRace(t *testing.T) {
	// Room for all eight 4-task jobs at minTaskGrant: none waits.
	g := testGovernor(8*4*minTaskGrant, 1<<20)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				j, err := g.AdmitJob(context.Background(), 4)
				if err != nil {
					t.Errorf("AdmitJob: %v", err)
					return
				}
				gr := j.TaskGrant()
				gr.Grow(GrowChunk)
				gr.ShrinkToMin()
				gr.Release()
				j.Release()
			}
		}()
	}
	wg.Wait()
	if got := g.WorkingGranted(); got != 0 {
		t.Fatalf("granted = %d after all releases, want 0", got)
	}
}
