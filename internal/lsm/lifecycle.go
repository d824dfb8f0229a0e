package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
}

// lifecycle is the LSM framework: one mutable memory component plus a
// stack of immutable disk components, newest first. Tree and RTreeIndex
// embed it and add only their read and write operations.
type lifecycle[M memComponent, D diskIndex] struct {
	kind      indexKind[M, D]
	bc        *storage.BufferCache
	name      string // file-name prefix ("dataset/p0/primary")
	memBudget int
	policy    MergePolicy

	// wmu serializes mutations, flushes and merges. The governor's
	// arbitration hook try-acquires it, so an index mid-write is skipped
	// rather than deadlocked on when another index's ingestion overflows
	// the pool.
	wmu sync.Mutex
	// charge is this index's account against the governor's memory-
	// component pool (nil without a governor: per-index budget only).
	charge *mem.ComponentCharge

	mu      sync.RWMutex
	mem     M
	disk    []*component[D] // newest first
	seq     int
	flushes int
	merges  int

	// Registry metrics (nil-safe no-ops when Options.Metrics is unset).
	mFlushes  *obs.Counter
	mMerges   *obs.Counter
	mFlushDur *obs.Histogram
	mMergeDur *obs.Histogram
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
	l.kind, l.bc, l.name = kind, bc, name
	l.memBudget, l.policy = opts.MemBudget, opts.Policy
	l.mem = kind.newMem()
	l.mFlushes = opts.Metrics.Counter("lsm_flushes_total", "LSM memory-component flushes")
	l.mMerges = opts.Metrics.Counter("lsm_merges_total", "LSM disk-component merges")
	l.mFlushDur = opts.Metrics.Histogram("lsm_flush_duration_seconds", "LSM flush wall time", nil)
	l.mMergeDur = opts.Metrics.Histogram("lsm_merge_duration_seconds", "LSM merge wall time", nil)
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
		if s >= l.seq {
			l.seq = s + 1
		}
	}
	l.charge = opts.Gov.RegisterComponent(name, l.tryFlushForGovernor)
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

// writeManifest persists the current component list (caller holds l.mu).
func (l *lifecycle[M, D]) writeManifest() error {
	var sb strings.Builder
	for _, c := range l.disk {
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

// memRef returns the current memory component. A flush swaps it under
// l.mu, so every other access goes through here.
func (l *lifecycle[M, D]) memRef() M {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.mem
}

// afterPut charges a mutation's byte delta to the governor (which may
// arbitrate flushes of OTHER indexes, or elect this one) and then applies
// the per-index budget. Caller holds l.wmu. Arbitration time — this
// writer stalled flushing other indexes' components — counts as flush
// wait on sp, as does a flush of this index's own component.
func (l *lifecycle[M, D]) afterPut(delta int, sp *obs.Span) error {
	//lint:ignore obs-nil skips time.Now/time.Since on the untraced write hot path, not a call guard
	traced := sp != nil
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	flushSelf, err := l.charge.Add(int64(delta))
	if traced {
		sp.AddWait(obs.WaitFlush, time.Since(t0))
	}
	if err != nil {
		return err
	}
	if flushSelf || l.memRef().size() >= l.memBudget {
		return l.flushLocked(sp)
	}
	return nil
}

// Unregister removes the index's account from the governor's component
// pool (index or dataset drop); the index keeps working against its own
// budget only.
func (l *lifecycle[M, D]) Unregister() {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.charge.Unregister()
	l.charge = nil
}

// tryFlushForGovernor is the arbitration hook: flush if the writer lock
// is free, otherwise report busy so the arbiter skips this index.
func (l *lifecycle[M, D]) tryFlushForGovernor() (bool, error) {
	if !l.wmu.TryLock() {
		return false, nil
	}
	defer l.wmu.Unlock()
	return true, l.flushLocked(nil)
}

// snapshot acquires a reference-counted view of the disk components.
func (l *lifecycle[M, D]) snapshot() []*component[D] {
	l.mu.RLock()
	//lint:ignore hot-alloc per-scan snapshot of the component list: O(components) once per scan, not per entry
	comps := append([]*component[D](nil), l.disk...)
	for _, c := range comps {
		atomic.AddInt32(&c.refs, 1)
	}
	l.mu.RUnlock()
	return comps
}

// release drops snapshot references, destroying components whose last
// reference this was (they were merged away while being read).
func (l *lifecycle[M, D]) release(comps []*component[D]) error {
	var firstErr error
	for _, c := range comps {
		if atomic.AddInt32(&c.refs, -1) == 0 {
			//lint:ignore hot-alloc runs only when the last reference to a merged-away component drops — once per component lifetime, not per scan entry
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

// MemSize returns the memory component's approximate byte size.
func (l *lifecycle[M, D]) MemSize() int { return l.memRef().size() }

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
// the merge policy.
func (l *lifecycle[M, D]) Flush() error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	return l.flushLocked(nil)
}

// flushLocked is Flush with l.wmu held: no put can land in the old memory
// component between the build and the pointer swap, and concurrent
// readers are safe because they take the pointer via memRef. The flush
// (and any merge it triggers) is charged to sp as flush/merge wait; sp is
// nil for flushes no statement waits on.
func (l *lifecycle[M, D]) flushLocked(sp *obs.Span) error {
	flushStart := time.Now()
	l.mu.Lock()
	mem := l.mem
	if mem.len() == 0 {
		l.mu.Unlock()
		return nil
	}
	seq := l.seq
	l.seq++
	l.mu.Unlock()

	file, err := l.newComponentFile(seq)
	if err != nil {
		return err
	}
	idx, err := l.kind.build(l.bc, file, mem)
	if err != nil {
		return err
	}
	// Injected flush I/O failure: the component is built in the buffer
	// cache but never made durable or added to the manifest; the memory
	// component keeps the data, so nothing committed is lost.
	if err := fault.Hit(fault.PointLSMFlush); err != nil {
		return fmt.Errorf("lsm: flush %s: %w", l.name, err)
	}
	if err := l.bc.FlushFile(file); err != nil {
		return err
	}

	l.mu.Lock()
	l.disk = append([]*component[D]{{seq: seq, file: file, idx: idx, refs: 1}}, l.disk...)
	l.mem = l.kind.newMem()
	l.flushes++
	err = l.writeManifest()
	l.mu.Unlock()
	l.charge.Flushed()
	l.mFlushes.Inc()
	l.mFlushDur.Observe(time.Since(flushStart).Seconds())
	sp.AddWait(obs.WaitFlush, time.Since(flushStart))
	if err != nil {
		return err
	}
	// Component sequencing + manifest walk in invariant builds.
	if err := check.Run(l); err != nil {
		return err
	}
	return l.maybeMerge(sp)
}

// maybeMerge consults the policy and merges one component range. Caller
// holds l.wmu, so the component list cannot change underneath. The one
// snapshot is both the policy's input and the merge's hold on its
// victims, released on every exit.
func (l *lifecycle[M, D]) maybeMerge(sp *obs.Span) (err error) {
	comps := l.snapshot()
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
// snapshot of the whole list) into one component. Antimatter is dropped
// only when the range reaches the oldest component. Merge wall time is
// charged to sp as merge wait: merges run on the writer's thread, so the
// triggering statement really does stall for the whole merge.
func (l *lifecycle[M, D]) mergeRange(comps []*component[D], lo, hi int, sp *obs.Span) error {
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
		return fmt.Errorf("lsm: merge %s: %w", l.name, err)
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
	err = l.writeManifest()
	l.mu.Unlock()
	l.mMerges.Inc()
	l.mMergeDur.Observe(time.Since(mergeStart).Seconds())
	sp.AddWait(obs.WaitMerge, time.Since(mergeStart))
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
	comps := l.snapshot()
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
	if len(manifest) != len(live) {
		return fmt.Errorf("manifest lists %d components, index has %d", len(manifest), len(live))
	}
	for i := range live {
		if manifest[i] != live[i] {
			return fmt.Errorf("manifest seq %d at position %d, index has %d", manifest[i], i, live[i])
		}
	}
	return nil
}
