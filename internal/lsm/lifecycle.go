package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asterix/internal/check"
	"asterix/internal/fault"
	"asterix/internal/mem"
	"asterix/internal/obs"
	"asterix/internal/storage"
)

// memComponent is what the lifecycle needs from an index kind's mutable
// memory component. Implementations guard themselves: readers use them
// outside the lifecycle lock while a writer mutates them in place.
type memComponent interface {
	len() int  // entries; flushing an empty component is a no-op
	size() int // approximate bytes, measured against Options.MemBudget
}

// diskIndex is an index kind's immutable on-disk structure.
type diskIndex interface {
	Count() int64 // entries: the merge policy's size measure
}

// indexKind is everything an index kind decides. The lifecycle does the
// rest — manifest, component sequencing and reference counts, governor
// accounting, flush and merge scheduling, fault points, crash-orphan
// cleanup, metrics — once, for every kind.
type indexKind[M memComponent, D diskIndex] interface {
	// fileTag is the letter before the sequence number in component file
	// names ("name.c000003").
	fileTag() byte
	newMem() M
	// build packs a memory component into the empty file.
	build(bc *storage.BufferCache, file storage.FileID, mem M) (D, error)
	// merge packs victims (newest first, the newest version of an entry
	// winning) into the empty file. Antimatter is dropped only when
	// dropAntimatter is set: otherwise it must survive to cancel entries
	// in components older than the merged range.
	merge(bc *storage.BufferCache, file storage.FileID, victims []D, dropAntimatter bool) (D, error)
	// open loads a component written by build or merge.
	open(bc *storage.BufferCache, file storage.FileID) (D, error)
	// validate deep-checks one component (the kind's half of Validate).
	validate(d D) error
}

// component is one immutable disk component.
type component[D diskIndex] struct {
	seq  int
	file storage.FileID
	idx  D

	// refs counts users of the component: 1 for the index's component
	// list plus 1 per in-flight snapshot. A merge "deletes" a component
	// by dropping the list's reference; the file is destroyed only when
	// the last reader releases (dropped is set then).
	refs    int32
	dropped bool
}

// Options configures an LSM index of any kind.
type Options struct {
	// MemBudget is the memory-component byte budget; exceeding it
	// triggers a flush. Default 4 MiB.
	MemBudget int
	// Policy is the merge policy. Default ConstantPolicy{Components: 4}.
	Policy MergePolicy
	// Metrics, when set, receives flush/merge counters and duration
	// histograms (shared by name across all indexes on the registry).
	Metrics *obs.Registry
	// Gov, when set, charges the memory component to the governor's
	// shared component pool: overflowing the pool flushes the earliest-
	// dirty index across the whole engine, not just this one.
	Gov *mem.Governor
	// Worker runs the index's flushes and merges: the engine's, shared by
	// all its indexes, or when nil the index's own.
	Worker *Worker
}

// lifecycle is the LSM framework: one mutable memory component, at most
// one sealed memory component on its way to disk, and a stack of
// immutable disk components, newest first. Tree and RTreeIndex embed it
// and add only their read and write operations.
type lifecycle[M memComponent, D diskIndex] struct {
	kind      indexKind[M, D]
	bc        *storage.BufferCache
	name      string // file-name prefix ("dataset/p0/primary")
	memBudget int
	policy    MergePolicy

	// wmu serializes mutations and seals. The governor's arbitration hook
	// try-acquires it, so an index mid-write is skipped rather than
	// deadlocked on when another index's ingestion overflows the pool.
	// The worker never takes it.
	wmu sync.Mutex
	// charge is this index's account against the governor's memory-
	// component pool (nil without a governor: per-index budget only).
	charge *mem.ComponentCharge
	// mem takes the writes: mems[0], which writers (holding wmu) read here
	// without l.mu.
	mem    M
	worker *Worker

	mu sync.RWMutex
	// mems is the memory components newest first: mem and, from its seal
	// until its flush ends, the sealed one. Replaced, never edited.
	mems []M
	disk []*component[D] // newest first
	seq  int
	// pending counts this index's jobs on the worker (two when a component
	// is sealed during the merge after the previous flush); done signals a
	// finished one, whose failure stays in bgErr until somebody is told.
	pending int
	bgErr   error
	done    sync.Cond
	flushes int
	merges  int

	// Registry metrics (nil-safe no-ops when Options.Metrics is unset).
	mFlushes  *obs.Counter
	mMerges   *obs.Counter
	mFlushDur *obs.Histogram
	mMergeDur *obs.Histogram
	mSealed   *obs.Gauge
	mStall    *obs.Histogram
}

// ErrMaintenance marks a flush or merge that failed on the worker. What
// it was writing out stays live and readable; the index's next write,
// Flush or Checkpoint returns the error once and a failed flush runs again.
var ErrMaintenance = errors.New("lsm: background maintenance failed")

var errStopped = errors.New("worker stopped")

// Worker runs flushes and merges off the writers' threads. One goroutine,
// alive while there is work, takes the sealed components of the indexes
// that share the worker in the order they were sealed, and runs each
// one's flush and then its index's policy merge.
type Worker struct {
	stopped atomic.Bool

	mu      sync.Mutex
	queue   []func() *obs.Span // a job returns its span
	running chan struct{}      // closed when the goroutine exits; nil while idle
	recent  []*obs.SpanNode    // the newest jobs' spans, for Trace
}

func (w *Worker) submit(j func() *obs.Span) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.queue = append(w.queue, j)
	if w.running == nil {
		w.running = make(chan struct{})
		go w.run(w.running)
	}
}

func (w *Worker) run(exited chan struct{}) {
	w.mu.Lock()
	for len(w.queue) > 0 {
		j := w.queue[0]
		w.queue[0], w.queue = nil, w.queue[1:] // the array must not keep a dropped index's job
		w.mu.Unlock()
		sp := j()
		w.mu.Lock()
		w.recent = append(w.recent[max(0, len(w.recent)-15):], sp.Tree())
	}
	w.running = nil
	w.mu.Unlock()
	close(exited)
}

// Drain returns once the jobs queued so far have run.
func (w *Worker) Drain() {
	w.mu.Lock()
	running := w.running
	w.mu.Unlock()
	if running != nil {
		<-running
	}
}

// Stop abandons the work: jobs queued or in hand give up before making
// anything durable (the write-ahead log covers it), and the goroutine has
// exited when Stop returns.
func (w *Worker) Stop() {
	w.stopped.Store(true)
	w.Drain()
}

// Trace is the spans of the newest jobs under one "maintenance" root:
// what storage was doing while statements ran.
func (w *Worker) Trace() *obs.SpanNode {
	w.mu.Lock()
	defer w.mu.Unlock()
	return &obs.SpanNode{Name: "maintenance", Children: slices.Clone(w.recent)}
}

// open initializes the lifecycle in place (the governor hook binds its
// address) and reloads the disk components recorded in the manifest.
func (l *lifecycle[M, D]) open(kind indexKind[M, D], bc *storage.BufferCache, name string, opts Options) error {
	if opts.MemBudget <= 0 {
		opts.MemBudget = 4 << 20
	}
	if opts.Policy == nil {
		opts.Policy = ConstantPolicy{Components: 4}
	}
	if opts.Worker == nil {
		opts.Worker = &Worker{}
	}
	l.kind, l.bc, l.name, l.worker = kind, bc, name, opts.Worker
	l.memBudget, l.policy = opts.MemBudget, opts.Policy
	l.mem = kind.newMem()
	l.mems = []M{l.mem}
	l.done.L = &l.mu
	l.mFlushes = opts.Metrics.Counter("lsm_flushes_total", "LSM memory-component flushes")
	l.mMerges = opts.Metrics.Counter("lsm_merges_total", "LSM disk-component merges")
	l.mFlushDur = opts.Metrics.Histogram("lsm_flush_duration_seconds", "LSM flush wall time", nil)
	l.mMergeDur = opts.Metrics.Histogram("lsm_merge_duration_seconds", "LSM merge wall time", nil)
	l.mSealed = opts.Metrics.Gauge("lsm_sealed_components", "sealed memory components waiting for or in their flush")
	l.mStall = opts.Metrics.Histogram("lsm_writer_stall_seconds", "time a writer waited for an index's sealed slot to free", nil)
	seqs, err := l.readManifest()
	if err != nil {
		return err
	}
	for _, s := range seqs {
		file, err := bc.FileManager().Open(l.componentFileName(s))
		if err != nil {
			return err
		}
		idx, err := kind.open(bc, file)
		if err != nil {
			return err
		}
		l.disk = append(l.disk, &component[D]{seq: s, file: file, idx: idx, refs: 1})
		l.seq = max(l.seq, s+1)
	}
	l.charge = opts.Gov.RegisterComponent(name, l.trySealForGovernor)
	return nil
}

func (l *lifecycle[M, D]) manifestPath() string {
	return filepath.Join(l.bc.FileManager().Root(), filepath.FromSlash(l.name)+".manifest")
}

// readManifest returns the live component sequence numbers, newest first.
func (l *lifecycle[M, D]) readManifest() ([]int, error) {
	data, err := os.ReadFile(l.manifestPath())
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("lsm: read manifest: %w", err)
	}
	var seqs []int
	for _, line := range strings.Fields(string(data)) {
		var s int
		if _, err := fmt.Sscanf(line, "%d", &s); err != nil {
			return nil, fmt.Errorf("lsm: corrupt manifest %q", line)
		}
		seqs = append(seqs, s)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(seqs)))
	return seqs, nil
}

// writeManifest persists a component list. Only the worker changes the
// list, so it writes outside l.mu and holds up no reader.
func (l *lifecycle[M, D]) writeManifest(disk []*component[D]) error {
	var sb strings.Builder
	for _, c := range disk {
		fmt.Fprintf(&sb, "%d\n", c.seq)
	}
	path := l.manifestPath()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(sb.String()), 0o644); err != nil {
		return fmt.Errorf("lsm: write manifest: %w", err)
	}
	return os.Rename(tmp, path)
}

func (l *lifecycle[M, D]) componentFileName(seq int) string {
	return fmt.Sprintf("%s.%c%06d", l.name, l.kind.fileTag(), seq)
}

// newComponentFile opens an empty file for component seq. A flush or
// merge that crashed before reaching the manifest can leave an orphan
// under this name (the seq counter restarts from the manifest on reopen);
// building over its stale pages would corrupt the component, so any
// leftover is dropped first.
func (l *lifecycle[M, D]) newComponentFile(seq int) (storage.FileID, error) {
	fname := l.componentFileName(seq)
	if err := l.bc.FileManager().Delete(fname); err != nil {
		return 0, err
	}
	return l.bc.FileManager().Open(fname)
}

// afterPut charges a mutation's byte delta to the governor (which may
// seal OTHER indexes' components, or elect this one) and then applies the
// per-index budget. Caller holds l.wmu. An unreported background failure
// goes through seal too, which returns it.
func (l *lifecycle[M, D]) afterPut(delta int, sp *obs.Span) error {
	l.mu.RLock()
	failed := l.bgErr != nil && l.pending == 0
	l.mu.RUnlock()
	sealSelf, err := l.charge.Add(int64(delta), sp)
	if err == nil && (failed || sealSelf || l.mem.size() >= l.memBudget) {
		err = l.seal(sp)
	}
	return err
}

// Unregister removes the index's account from the governor's component
// pool (index or dataset drop) once the worker is done with the index;
// the index keeps working against its own budget only.
func (l *lifecycle[M, D]) Unregister() {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.mu.Lock()
	for l.pending > 0 {
		l.done.Wait()
	}
	l.mu.Unlock()
	l.charge.Unregister()
	l.charge = nil
}

// Drop retires the index (index or dataset drop): Unregister, then its
// manifest goes — an index opened under this name later starts empty,
// whatever type its dataset has then — and its component files follow as
// their last reader lets go of them. What the memory component held is gone
// with the index.
func (l *lifecycle[M, D]) Drop() error {
	l.Unregister()
	l.mu.Lock()
	disk := l.disk
	l.disk = nil
	l.mu.Unlock()
	err := os.Remove(l.manifestPath())
	if os.IsNotExist(err) {
		err = nil
	}
	return errors.Join(err, l.release(disk))
}

// trySealForGovernor is the arbitration hook: seal if the writer lock is
// free, otherwise report busy so the arbiter skips this index.
func (l *lifecycle[M, D]) trySealForGovernor(sp *obs.Span) (bool, error) {
	if !l.wmu.TryLock() {
		return false, nil
	}
	defer l.wmu.Unlock()
	return true, l.seal(sp)
}

// view is what one read sees: referenced disk components (the caller
// releases them) and the memory components, under one lock — the one a
// flush moves its component from mems to disk under, so no view holds it
// twice or not at all.
func (l *lifecycle[M, D]) view() ([]*component[D], []M) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	// One allocation per read, whatever the read visits: the snapshot.
	comps := append([]*component[D](nil), l.disk...)
	for _, c := range comps {
		atomic.AddInt32(&c.refs, 1)
	}
	return comps, l.mems
}

// release drops view references, destroying components whose last
// reference this was (they were merged away while being read).
func (l *lifecycle[M, D]) release(comps []*component[D]) error {
	var firstErr error
	for _, c := range comps {
		if atomic.AddInt32(&c.refs, -1) == 0 {
			if err := l.destroyComponent(c); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// destroyComponent evicts and deletes a fully-released component's file.
func (l *lifecycle[M, D]) destroyComponent(c *component[D]) error {
	if err := l.bc.Evict(c.file); err != nil {
		return err
	}
	return l.bc.FileManager().Delete(l.componentFileName(c.seq))
}

// DiskComponents returns the current number of disk components.
func (l *lifecycle[M, D]) DiskComponents() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.disk)
}

// Stats returns how many flushes and merges the index has completed (the
// merge-policy ablation's metric, experiment E8).
func (l *lifecycle[M, D]) Stats() (flushes, merges int) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.flushes, l.merges
}

// Flush persists the memory component as a new disk component and applies
// the merge policy: it seals and then waits for the worker.
func (l *lifecycle[M, D]) Flush() error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if err := l.seal(nil); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.pending > 0 {
		l.done.Wait()
	}
	return l.takeErr(false)
}

// takeErr hands the caller, once, the failure of a finished job; retry
// queues a failed flush again (a failed merge is the policy's to pick
// again after the next flush). Caller holds l.mu.
func (l *lifecycle[M, D]) takeErr(retry bool) error {
	err := l.bgErr
	l.bgErr = nil
	if err != nil && retry && len(l.mems) == 2 {
		l.submit()
	}
	return err
}

// submit queues the index's maintenance. Caller holds l.mu.
func (l *lifecycle[M, D]) submit() {
	l.pending++
	l.worker.submit(l.maintain)
}

// seal makes the memory component immutable and hands it to the worker;
// a fresh one takes the writes at once. Caller holds l.wmu, so no put
// lands in the old one after the swap. An index has at most one sealed
// component: while the previous one is on its way to disk the caller
// waits, and that wait — the only time a writer stalls on storage — is
// flush wait on sp. Where seals happen depends on the writes alone, never
// on how far the worker is: one history of writes, one set of components.
func (l *lifecycle[M, D]) seal(sp *obs.Span) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pending == 0 { // a failure nobody has been told of
		if err := l.takeErr(true); err != nil {
			return err
		}
	}
	if len(l.mems) == 2 {
		start := time.Now()
		for len(l.mems) == 2 {
			if l.pending == 0 {
				if err := l.takeErr(false); err != nil {
					return err
				}
				l.submit() // the flush failed and that has been reported: run it again
			}
			l.done.Wait()
		}
		l.mStall.Observe(time.Since(start).Seconds())
		sp.AddWait(obs.WaitFlush, time.Since(start))
	}
	if l.mem.len() == 0 {
		return nil
	}
	l.mems = []M{l.kind.newMem(), l.mem}
	l.mem = l.mems[0]
	l.mSealed.Add(1)
	l.charge.Seal()
	l.submit()
	return nil
}

// maintain is the worker's job for one sealed component: build, make
// durable, manifest, validate, then the policy's merge. A panic in it
// belongs to no statement and must not kill the process: it is recovered
// into the same sticky failure as an error, and the writers waiting for
// the job are woken either way.
func (l *lifecycle[M, D]) maintain() (sp *obs.Span) {
	sp = obs.NewSpan(l.name)
	defer sp.End()
	var err error
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
		l.mu.Lock()
		l.pending--
		if err != nil && l.bgErr == nil {
			l.bgErr = fmt.Errorf("%w: %s: %w", ErrMaintenance, l.name, err)
		}
		l.done.Broadcast()
		l.mu.Unlock()
	}()
	if err = l.flushSealed(sp); err == nil {
		err = l.maybeMerge(sp)
	}
	return sp
}

// flushSealed writes the sealed component out as the newest disk
// component; the swap moves readers from the one to the other.
func (l *lifecycle[M, D]) flushSealed(sp *obs.Span) error {
	sp = sp.StartChild("flush")
	defer sp.End()
	flushStart := time.Now()
	l.mu.Lock()
	sealed := l.mems[1]
	seq := l.seq
	l.seq++
	l.mu.Unlock()

	file, err := l.newComponentFile(seq)
	if err != nil {
		return err
	}
	idx, err := l.kind.build(l.bc, file, sealed)
	if err != nil {
		return err
	}
	// Injected flush I/O failure: the component is built in the buffer
	// cache but never made durable or added to the manifest; the sealed
	// component keeps the data, so nothing committed is lost.
	if err := fault.Hit(fault.PointLSMFlush); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	if l.worker.stopped.Load() {
		return errStopped
	}
	if err := l.bc.FlushFile(file); err != nil {
		return err
	}

	l.mu.Lock()
	l.disk = append([]*component[D]{{seq: seq, file: file, idx: idx, refs: 1}}, l.disk...)
	l.mems = []M{l.mems[0]} // a fresh array: the old one would keep the flushed component alive
	l.flushes++
	disk := l.disk
	l.mu.Unlock()
	l.mSealed.Add(-1)
	l.charge.Flushed()
	err = l.writeManifest(disk)
	l.mFlushes.Inc()
	l.mFlushDur.Observe(time.Since(flushStart).Seconds())
	if err != nil {
		return err
	}
	// Component sequencing + manifest walk in invariant builds.
	return check.Run(l)
}

// maybeMerge consults the policy and merges one component range. It runs
// on the worker, the only one to change the component list. The one view
// is both the policy's input and the merge's hold on its victims,
// released on every exit.
func (l *lifecycle[M, D]) maybeMerge(sp *obs.Span) (err error) {
	comps, _ := l.view()
	defer func() { err = errors.Join(err, l.release(comps)) }()
	sizes := make([]int64, len(comps))
	for i, c := range comps {
		sizes[i] = c.idx.Count()
	}
	lo, hi, ok := l.policy.PickMerge(sizes)
	if !ok || lo < 0 || hi >= len(comps) || lo >= hi {
		return nil
	}
	return l.mergeRange(comps, lo, hi, sp)
}

// mergeRange merges comps[lo..hi] (newest-first indexes into the caller's
// view of the whole list) into one component. Antimatter is dropped only
// when the range reaches the oldest component.
func (l *lifecycle[M, D]) mergeRange(comps []*component[D], lo, hi int, sp *obs.Span) error {
	sp = sp.StartChild("merge")
	defer sp.End()
	mergeStart := time.Now()
	victims := comps[lo : hi+1]
	idxs := make([]D, len(victims))
	for i, c := range victims {
		idxs[i] = c.idx
	}
	l.mu.Lock()
	seq := l.seq
	l.seq++
	l.mu.Unlock()

	file, err := l.newComponentFile(seq)
	if err != nil {
		return err
	}
	idx, err := l.kind.merge(l.bc, file, idxs, hi == len(comps)-1)
	if err != nil {
		return err
	}
	// Injected merge I/O failure: the victims stay live and the half-built
	// component never reaches the manifest.
	if err := fault.Hit(fault.PointLSMMerge); err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	if l.worker.stopped.Load() {
		return errStopped
	}
	if err := l.bc.FlushFile(file); err != nil {
		return err
	}

	l.mu.Lock()
	newDisk := append([]*component[D](nil), comps[:lo]...)
	newDisk = append(newDisk, &component[D]{seq: seq, file: file, idx: idx, refs: 1})
	l.disk = append(newDisk, comps[hi+1:]...)
	l.merges++
	for _, c := range victims {
		c.dropped = true
	}
	disk := l.disk
	l.mu.Unlock()
	err = l.writeManifest(disk)
	l.mMerges.Inc()
	l.mMergeDur.Observe(time.Since(mergeStart).Seconds())
	if err != nil {
		return err
	}
	// Drop the list's reference; the files are destroyed when the caller's
	// hold and the last concurrent reader release.
	if err := l.release(victims); err != nil {
		return err
	}
	return check.Run(l)
}

// Validate verifies the component invariants every LSM index shares:
//
//   - disk component sequence numbers are strictly decreasing newest
//     first. Position order is the recency order the merges trust, and
//     the manifest round-trip (readManifest sorts by seq) silently
//     assumes the two agree — a merge policy picking lo > 0 would break
//     this, and this check is what would catch it;
//   - the next sequence number is above every live component's;
//   - every listed component is referenced and not dropped;
//   - each component passes its kind's deep validation;
//   - the on-disk manifest lists exactly the live components.
//
// O(total entries); intended for tests and opt-in check hooks.
func (l *lifecycle[M, D]) Validate() (err error) {
	comps, _ := l.view()
	defer func() {
		// Validation is read-only: releasing the snapshot cannot be the
		// last reference while the components remain in the index's list.
		_ = l.release(comps)
		if err != nil {
			err = fmt.Errorf("lsm %s: %w", l.name, err)
		}
	}()
	l.mu.RLock()
	nextSeq := l.seq
	l.mu.RUnlock()

	for i, c := range comps {
		if i > 0 && comps[i-1].seq <= c.seq {
			return fmt.Errorf("components out of order: position %d has seq %d, position %d has seq %d (newest-first must be strictly decreasing)",
				i-1, comps[i-1].seq, i, c.seq)
		}
		if c.seq >= nextSeq {
			return fmt.Errorf("component seq %d >= next seq %d", c.seq, nextSeq)
		}
		// The list holds one reference and this snapshot another.
		if refs := atomic.LoadInt32(&c.refs); refs < 2 {
			return fmt.Errorf("live component seq %d has %d refs, want >= 2 (list + snapshot)", c.seq, refs)
		}
		if c.dropped {
			return fmt.Errorf("component seq %d is in the list but marked dropped", c.seq)
		}
		if err := l.kind.validate(c.idx); err != nil {
			return fmt.Errorf("component seq %d: %w", c.seq, err)
		}
	}

	manifest, err := l.readManifest()
	if err != nil {
		return err
	}
	// Compare against the current list, which may have advanced past our
	// snapshot under concurrent flushes; in the single-threaded test and
	// hook contexts the two are identical.
	l.mu.RLock()
	live := make([]int, len(l.disk))
	for i, c := range l.disk {
		live[i] = c.seq
	}
	l.mu.RUnlock()
	if !slices.Equal(manifest, live) {
		return fmt.Errorf("manifest lists components %v, index has %v", manifest, live)
	}
	return nil
}
