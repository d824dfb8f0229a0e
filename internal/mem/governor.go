// Package mem is the engine's memory governor: one total byte budget
// split into the three pools of the paper's Figure 2 — the buffer cache
// (fixed at open), the LSM memory components, and query working memory —
// with a reservation/grant protocol that every memory consumer draws
// from. The governor is the reason N concurrent queries can no longer
// each believe they own the full working budget: a query's job reserves
// its minimum up front (bounded wait, context cancellation), operators
// grow their grants opportunistically, and a denied Grow means "spill",
// not "wait" — so admitted work always makes progress and total granted
// bytes never exceed the budget.
package mem

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"asterix/internal/obs"
)

// GrowChunk is the increment operators use when growing a working-memory
// grant. Coarse enough to keep governor traffic off the per-tuple path,
// small enough that a denied Grow wastes little headroom.
const GrowChunk = 256 << 10

// ErrAdmissionTimeout is wrapped by reservation failures whose bounded
// wait expired: the pool was full of other queries' grants for the whole
// admission window. Retriable — the server maps it to 503.
var ErrAdmissionTimeout = errors.New("memory admission timed out")

// ErrAdmissionRejected is wrapped by reservations that can never succeed
// because they exceed the whole working pool. Not retriable.
var ErrAdmissionRejected = errors.New("memory reservation exceeds pool")

// The pools' defaults, for an instance configured without a total budget.
const (
	// DefaultComponentBytes is the LSM memory-component pool: four
	// components of DefaultComponentBytes/4.
	DefaultComponentBytes = 16 << 20
	// DefaultWorkingBytes is the query working-memory pool.
	DefaultWorkingBytes = 32 << 20
)

// minTaskGrant is the minimum guaranteed grant per operator task,
// reserved at job admission (clamped to WorkingBytes/tasks so a lone job
// always admits).
const minTaskGrant = 256 << 10

// Config sizes a Governor. Zero fields take defaults.
type Config struct {
	// BufferCacheBytes is the buffer cache's fixed reservation — carved
	// out at open, never granted to anything else (reported, not
	// arbitrated).
	BufferCacheBytes int64
	// ComponentBytes caps the LSM memory-component pool. It is a soft
	// cap: writers are never rejected, but charging past it triggers
	// earliest-flush-first arbitration across all registered trees.
	// Default DefaultComponentBytes.
	ComponentBytes int64
	// WorkingBytes caps query working memory (sorts, joins, group
	// tables). A hard cap: reservations wait, grows are denied. Default
	// DefaultWorkingBytes.
	WorkingBytes int64
	// AdmitTimeout bounds how long a reservation waits for working
	// memory before failing with ErrAdmissionTimeout. Default 10s.
	AdmitTimeout time.Duration
	// Metrics, when set, receives the governor's gauges and counters.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.ComponentBytes <= 0 {
		c.ComponentBytes = DefaultComponentBytes
	}
	if c.WorkingBytes <= 0 {
		c.WorkingBytes = DefaultWorkingBytes
	}
	if c.AdmitTimeout <= 0 {
		c.AdmitTimeout = 10 * time.Second
	}
	return c
}

// waiter is one queued working-memory reservation. FIFO with no bypass,
// so a large reservation cannot be starved by a stream of small ones.
type waiter struct {
	need    int64
	ready   chan struct{}
	granted bool
}

// Governor owns the budget. All methods are safe for concurrent use; a
// nil *Governor is a valid "unbudgeted" governor whose grants are
// unbounded (used by raw test clusters until one is installed).
type Governor struct {
	cfg Config

	mu       sync.Mutex
	workUsed int64
	waiters  []*waiter
	charges  []*ComponentCharge
	compUsed int64
	// sealedUsed is the bytes of sealed memory components whose flush has
	// not ended: outside the pool, at most one component per tree.
	sealedUsed int64
	dirtySeq   int64

	mWaits      *obs.Counter
	mTimeouts   *obs.Counter
	mRejections *obs.Counter
	mGrowDenied *obs.Counter
	mArbFlushes *obs.Counter
}

// NewGovernor creates a governor over cfg's pools and binds its metrics.
func NewGovernor(cfg Config) *Governor {
	cfg = cfg.withDefaults()
	g := &Governor{cfg: cfg}
	reg := cfg.Metrics
	// Real handles keep StatsSnapshot meaningful without a caller's registry.
	if reg == nil {
		reg = obs.NewRegistry()
	}
	g.mWaits = reg.Counter("mem_admission_waits_total", "working-memory reservations that had to wait")
	g.mTimeouts = reg.Counter("mem_admission_timeouts_total", "working-memory reservations that timed out waiting")
	g.mRejections = reg.Counter("mem_admission_rejections_total", "reservations larger than the whole working pool")
	g.mGrowDenied = reg.Counter("mem_grow_denied_total", "grant grows denied (operator spilled instead)")
	g.mArbFlushes = reg.Counter("mem_arbitrated_flushes_total", "LSM flushes triggered by component-pool pressure")
	reg.RegisterFunc("mem_total_budget_bytes", "total governed memory budget", obs.TypeGauge,
		func() float64 {
			return float64(cfg.BufferCacheBytes + cfg.ComponentBytes + cfg.WorkingBytes)
		})
	reg.RegisterFunc("mem_buffercache_reserved_bytes", "fixed buffer-cache reservation", obs.TypeGauge,
		func() float64 { return float64(cfg.BufferCacheBytes) })
	reg.RegisterFunc("mem_working_pool_bytes", "query working-memory pool size", obs.TypeGauge,
		func() float64 { return float64(cfg.WorkingBytes) })
	reg.RegisterFunc("mem_working_granted_bytes", "working-memory bytes currently granted", obs.TypeGauge,
		func() float64 { return float64(g.WorkingGranted()) })
	reg.RegisterFunc("mem_working_waiters", "reservations waiting for working memory", obs.TypeGauge,
		func() float64 { return float64(g.Waiters()) })
	reg.RegisterFunc("mem_component_pool_bytes", "LSM memory-component pool size", obs.TypeGauge,
		func() float64 { return float64(cfg.ComponentBytes) })
	reg.RegisterFunc("mem_component_charged_bytes", "LSM memory-component bytes currently charged", obs.TypeGauge,
		func() float64 { return float64(g.ComponentCharged()) })
	reg.RegisterFunc("mem_component_sealed_bytes", "sealed LSM memory-component bytes waiting for their flush", obs.TypeGauge,
		func() float64 { return float64(g.ComponentSealed()) })
	return g
}

// WorkingCap returns the working pool's size in bytes (0 when nil).
func (g *Governor) WorkingCap() int64 {
	if g == nil {
		return 0
	}
	return g.cfg.WorkingBytes
}

// WorkingGranted returns the bytes currently granted from the working
// pool.
func (g *Governor) WorkingGranted() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.workUsed
}

// Waiters returns the number of reservations queued for working memory.
func (g *Governor) Waiters() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.waiters)
}

// ComponentCharged returns the bytes currently charged to the LSM
// memory-component pool.
func (g *Governor) ComponentCharged() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.compUsed
}

// ComponentSealed returns the bytes of sealed memory components that are
// still in memory because their flush has not ended.
func (g *Governor) ComponentSealed() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sealedUsed
}

// Stats is a point-in-time snapshot of the governor's event counters
// (test and experiment assertions; the registry carries the same data).
type Stats struct {
	Waits, Timeouts, Rejections, GrowDenied, ArbitratedFlushes int64
}

// StatsSnapshot reads the counters.
func (g *Governor) StatsSnapshot() Stats {
	if g == nil {
		return Stats{}
	}
	return Stats{
		Waits:             g.mWaits.Value(),
		Timeouts:          g.mTimeouts.Value(),
		Rejections:        g.mRejections.Value(),
		GrowDenied:        g.mGrowDenied.Value(),
		ArbitratedFlushes: g.mArbFlushes.Value(),
	}
}

// reserve takes n bytes from the working pool, waiting FIFO behind
// earlier reservations up to AdmitTimeout.
func (g *Governor) reserve(ctx context.Context, n int64) error {
	if n > g.cfg.WorkingBytes {
		g.mRejections.Inc()
		return fmt.Errorf("mem: reservation of %d bytes exceeds the %d-byte working pool: %w",
			n, g.cfg.WorkingBytes, ErrAdmissionRejected)
	}
	g.mu.Lock()
	if len(g.waiters) == 0 && g.workUsed+n <= g.cfg.WorkingBytes {
		g.workUsed += n
		g.mu.Unlock()
		return nil
	}
	w := &waiter{need: n, ready: make(chan struct{})}
	g.waiters = append(g.waiters, w)
	g.mu.Unlock()
	g.mWaits.Inc()

	// Attribute the queued time to the query's span (nil-safe): admission
	// waits are the first place a contended instance loses time.
	waitStart := time.Now()
	span := obs.SpanFromContext(ctx)
	defer func() { span.AddWait(obs.WaitAdmission, time.Since(waitStart)) }()

	timer := time.NewTimer(g.cfg.AdmitTimeout)
	defer timer.Stop()
	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		if !g.abandon(w) {
			// Granted concurrently with the cancellation: give it back.
			g.releaseWorking(n)
		}
		return ctx.Err()
	case <-timer.C:
		if !g.abandon(w) {
			// The grant raced the timer and won: keep it.
			return nil
		}
		g.mTimeouts.Inc()
		return fmt.Errorf("mem: waited %v for %d bytes of working memory: %w",
			g.cfg.AdmitTimeout, n, ErrAdmissionTimeout)
	}
}

// abandon removes w from the wait queue; false means it was already
// granted.
func (g *Governor) abandon(w *waiter) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w.granted {
		return false
	}
	for i, q := range g.waiters {
		if q == w {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			break
		}
	}
	return true
}

// releaseWorking returns n bytes to the pool and grants queued waiters.
func (g *Governor) releaseWorking(n int64) {
	g.mu.Lock()
	g.workUsed -= n
	if g.workUsed < 0 {
		g.workUsed = 0
	}
	g.pumpLocked()
	g.mu.Unlock()
}

// pumpLocked grants waiters strictly in FIFO order while they fit.
func (g *Governor) pumpLocked() {
	for len(g.waiters) > 0 {
		w := g.waiters[0]
		if g.workUsed+w.need > g.cfg.WorkingBytes {
			return
		}
		g.workUsed += w.need
		w.granted = true
		close(w.ready)
		g.waiters = g.waiters[1:]
	}
}

// Reserve takes n bytes from the working pool as a standalone grant
// (admission tests, external holds). Nil governor returns an unbounded
// nil grant.
func (g *Governor) Reserve(ctx context.Context, n int64) (*Grant, error) {
	if g == nil {
		return nil, nil
	}
	if err := g.reserve(ctx, n); err != nil {
		return nil, err
	}
	return newGrant(g, nil, n), nil
}

// JobGrant is a job's admission: the sum of its tasks' minimum grants,
// reserved atomically up front so a partially admitted job can never
// deadlock against another (a task holding its grant never blocks on
// memory again — Grow is denial-based, not waiting).
type JobGrant struct {
	g          *Governor
	min        int64 // per-task minimum
	unassigned int64 // reserved bytes not yet carved into task grants
	cur, peak  int64 // live task-granted bytes (guarded by g.mu)
	released   bool
}

// AdmitJob reserves tasks × min(minTaskGrant, WorkingBytes/tasks) from
// the working pool, waiting up to AdmitTimeout. The clamp guarantees a
// lone job always fits regardless of its width. Nil governor admits
// unbudgeted (nil JobGrant).
func (g *Governor) AdmitJob(ctx context.Context, tasks int) (*JobGrant, error) {
	if g == nil {
		return nil, nil
	}
	if tasks < 1 {
		tasks = 1
	}
	min := int64(minTaskGrant)
	if per := g.cfg.WorkingBytes / int64(tasks); min > per {
		min = per
	}
	if min < 1 {
		min = 1
	}
	need := min * int64(tasks)
	if err := g.reserve(ctx, need); err != nil {
		return nil, err
	}
	return &JobGrant{g: g, min: min, unassigned: need}, nil
}

// TaskGrant carves one task's minimum grant out of the job reservation.
func (j *JobGrant) TaskGrant() *Grant {
	if j == nil {
		return nil
	}
	j.g.mu.Lock()
	defer j.g.mu.Unlock()
	n := j.min
	if n > j.unassigned {
		n = j.unassigned
	}
	j.unassigned -= n
	j.cur += n
	if j.cur > j.peak {
		j.peak = j.cur
	}
	return newGrant(j.g, j, n)
}

// Peak returns the job's high-water mark of granted working bytes.
func (j *JobGrant) Peak() int64 {
	if j == nil {
		return 0
	}
	j.g.mu.Lock()
	defer j.g.mu.Unlock()
	return j.peak
}

// Release returns the job's unassigned reservation to the pool (task
// grants release themselves). Idempotent.
func (j *JobGrant) Release() {
	if j == nil {
		return
	}
	j.g.mu.Lock()
	if j.released {
		j.g.mu.Unlock()
		return
	}
	j.released = true
	n := j.unassigned
	j.unassigned = 0
	j.g.workUsed -= n
	if j.g.workUsed < 0 {
		j.g.workUsed = 0
	}
	j.g.pumpLocked()
	j.g.mu.Unlock()
}

// Grant is one task's (or holder's) slice of the working pool. A nil
// Grant is unbounded: Granted reports effectively infinite memory and
// Grow always succeeds — raw clusters without a governor behave as
// before. Not safe for concurrent use by multiple goroutines (each task
// owns its grant).
type Grant struct {
	g   *Governor
	job *JobGrant
	min int64
	// n is written under g.mu (it moves with workUsed) and read without
	// it: operators ask Granted once per buffered tuple.
	n        atomic.Int64
	released bool
}

func newGrant(g *Governor, job *JobGrant, n int64) *Grant {
	gr := &Grant{g: g, job: job, min: n}
	gr.n.Store(n)
	return gr
}

// Granted returns the grant's current size in bytes. It takes no lock.
func (gr *Grant) Granted() int {
	if gr == nil {
		return math.MaxInt
	}
	return int(gr.n.Load())
}

// Grow tries to extend the grant by n bytes. It never waits: the grow is
// denied when the pool lacks headroom or reservations are queued behind
// it (running operators degrade to spilling so waiting queries can
// admit). False means "spill now".
func (gr *Grant) Grow(n int) bool {
	if gr == nil {
		return true
	}
	g := gr.g
	g.mu.Lock()
	if gr.released || len(g.waiters) > 0 || g.workUsed+int64(n) > g.cfg.WorkingBytes {
		g.mu.Unlock()
		g.mGrowDenied.Inc()
		return false
	}
	g.workUsed += int64(n)
	gr.n.Add(int64(n))
	if gr.job != nil {
		gr.job.cur += int64(n)
		if gr.job.cur > gr.job.peak {
			gr.job.peak = gr.job.cur
		}
	}
	g.mu.Unlock()
	return true
}

// Shrink returns n bytes of the grant to the pool, never below the
// task's minimum.
func (gr *Grant) Shrink(n int) {
	if gr == nil {
		return
	}
	gr.shrinkTo(gr.g, gr.n.Load()-int64(n))
}

// ShrinkToMin returns everything above the task's minimum grant —
// operators call it after a spill empties their buffers.
func (gr *Grant) ShrinkToMin() {
	if gr == nil {
		return
	}
	gr.shrinkTo(gr.g, gr.min)
}

func (gr *Grant) shrinkTo(g *Governor, target int64) {
	g.mu.Lock()
	if target < gr.min {
		target = gr.min
	}
	if gr.released || gr.n.Load() <= target {
		g.mu.Unlock()
		return
	}
	back := gr.n.Load() - target
	gr.n.Store(target)
	g.workUsed -= back
	if g.workUsed < 0 {
		g.workUsed = 0
	}
	if gr.job != nil {
		gr.job.cur -= back
	}
	g.pumpLocked()
	g.mu.Unlock()
}

// Release returns the whole grant to the pool. Idempotent.
func (gr *Grant) Release() {
	if gr == nil {
		return
	}
	g := gr.g
	g.mu.Lock()
	if gr.released {
		g.mu.Unlock()
		return
	}
	gr.released = true
	n := gr.n.Swap(0)
	g.workUsed -= n
	if g.workUsed < 0 {
		g.workUsed = 0
	}
	if gr.job != nil {
		gr.job.cur -= n
	}
	g.pumpLocked()
	g.mu.Unlock()
}
