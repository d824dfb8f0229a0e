package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// WaitKind classifies time a query spent blocked rather than computing:
// the categories of attributed wait threaded through the governor, the lock
// manager, the LSM, and the executor. A span accumulates nanoseconds per
// kind, so a slow query's trace answers "where did the time go" — was it
// queued for memory admission, stuck behind a record lock, or grinding
// through spill I/O or waiting for a flush.
type WaitKind int32

// Wait categories.
const (
	// WaitAdmission is time queued in the memory governor waiting for a
	// working-memory reservation (job admission, standalone reserves).
	WaitAdmission WaitKind = iota
	// WaitLock is time blocked on a record lock in the transaction
	// manager (including waits that ended in ErrLockTimeout).
	WaitLock
	// WaitSpill is run-file spill I/O in memory-governed operators
	// (sort, join, group-by) — writing and re-reading spilled runs.
	WaitSpill
	// WaitFlush is time a writer whose put had to seal a memory
	// component (its own index's, or one the governor's arbitration
	// picked) waited for that index's previous sealed component to reach
	// disk. Flushes and merges themselves run on the maintenance worker
	// and stall no statement.
	WaitFlush
	// WaitExchange is time a task spent stalled on frame exchange —
	// blocked sends into a full downstream connector channel (recorded
	// only under detailed profiling: it is a per-frame hot path).
	WaitExchange

	numWaitKinds
)

var waitKindNames = [numWaitKinds]string{
	"admission", "lock", "spill", "flush", "exchange",
}

// String names the category as it appears in logs and span counters.
func (k WaitKind) String() string {
	if k < 0 || k >= numWaitKinds {
		return "unknown"
	}
	return waitKindNames[k]
}

// WaitProfile is a per-category wait-time rollup (one Duration per
// WaitKind).
type WaitProfile [numWaitKinds]time.Duration

// Total sums all categories.
func (p WaitProfile) Total() time.Duration {
	var t time.Duration
	for _, d := range p {
		t += d
	}
	return t
}

// TopN renders the n largest nonzero categories as
// "admission=120ms lock=40ms spill=8ms" (empty string when all zero).
func (p WaitProfile) TopN(n int) string {
	type kv struct {
		k WaitKind
		d time.Duration
	}
	var top []kv
	for k, d := range p {
		if d > 0 {
			top = append(top, kv{WaitKind(k), d})
		}
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].d != top[j].d {
			return top[i].d > top[j].d
		}
		return top[i].k < top[j].k
	})
	if n > 0 && len(top) > n {
		top = top[:n]
	}
	parts := make([]string, len(top))
	for i, e := range top {
		parts[i] = fmt.Sprintf("%s=%s", e.k, e.d.Round(time.Microsecond))
	}
	return strings.Join(parts, " ")
}

// Span is one timed node in a per-query trace tree: the statement
// lifecycle (parse → compile → execute) down to per-operator,
// per-partition tasks inside the Hyracks executor.
//
// All methods are nil-safe no-ops, so code paths instrument
// unconditionally and pay one nil check when tracing is off. The hot
// executor counters (tuples, spills) are dedicated atomic fields rather
// than map entries so per-tuple accounting never takes a lock.
type Span struct {
	name     string
	start    time.Time
	durNanos int64 // set by End (atomic); 0 = still running
	detailed int32 // propagate per-operator tracing (atomic bool)

	// Hot executor counters (atomic).
	tuplesIn  int64
	tuplesOut int64
	rowsRead  int64
	spills    int64

	// Wait-time attribution in nanoseconds per category (atomic).
	waits [numWaitKinds]int64

	mu       sync.Mutex
	counters map[string]int64
	children []*Span
}

// NewSpan starts a root span.
func NewSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// StartChild starts and attaches a child span, inheriting the detailed
// flag. Nil-safe: returns nil on a nil span.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	atomic.StoreInt32(&c.detailed, atomic.LoadInt32(&s.detailed))
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End marks the span finished. Ending twice keeps the first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	atomic.CompareAndSwapInt64(&s.durNanos, 0, int64(time.Since(s.start))|1)
}

// Duration returns the span's duration (time so far if still running).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	if d := atomic.LoadInt64(&s.durNanos); d != 0 {
		return time.Duration(d)
	}
	return time.Since(s.start)
}

// SetDetailed turns per-operator tracing on or off for this span and
// children started afterwards.
func (s *Span) SetDetailed(on bool) {
	if s == nil {
		return
	}
	v := int32(0)
	if on {
		v = 1
	}
	atomic.StoreInt32(&s.detailed, v)
}

// Detailed reports whether per-operator tracing is requested. Nil-safe
// (false), so the executor's check is `span.Detailed()` with no nil test.
func (s *Span) Detailed() bool {
	return s != nil && atomic.LoadInt32(&s.detailed) != 0
}

// Add accumulates a named counter on the span (cold path: takes a lock).
func (s *Span) Add(key string, n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = map[string]int64{}
	}
	s.counters[key] += n
	s.mu.Unlock()
}

// AddTuplesIn counts tuples received by this span's task.
func (s *Span) AddTuplesIn(n int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.tuplesIn, n)
}

// AddTuplesOut counts tuples emitted by this span's task.
func (s *Span) AddTuplesOut(n int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.tuplesOut, n)
}

// AddRowsRead counts stored records visited by this span's leaf task,
// whether or not its filter let them out.
func (s *Span) AddRowsRead(n int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.rowsRead, n)
}

// AddSpill counts one run-file spill in this span's task.
func (s *Span) AddSpill() {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.spills, 1)
}

// AddWait attributes blocked time to a wait category. Nil-safe and
// atomic: governor, lock-manager, LSM, and operator code call it
// unconditionally from any goroutine.
func (s *Span) AddWait(k WaitKind, d time.Duration) {
	if s == nil || d <= 0 || k < 0 || k >= numWaitKinds {
		return
	}
	atomic.AddInt64(&s.waits[k], int64(d))
}

// Waits snapshots this span's own wait times (no descendants).
func (s *Span) Waits() WaitProfile {
	var p WaitProfile
	if s == nil {
		return p
	}
	for k := range p {
		p[k] = time.Duration(atomic.LoadInt64(&s.waits[k]))
	}
	return p
}

// WaitRollup sums wait times over the span and all descendants — the
// per-query "where did the blocked time go" profile the slow-query log
// prints.
func (s *Span) WaitRollup() WaitProfile {
	var p WaitProfile
	if s == nil {
		return p
	}
	for k := range p {
		p[k] = time.Duration(atomic.LoadInt64(&s.waits[k]))
	}
	s.mu.Lock()
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range kids {
		cp := c.WaitRollup()
		for k := range p {
			p[k] += cp[k]
		}
	}
	return p
}

// TotalFor sums the durations of all descendant spans (including s) with
// the exact name — e.g. TotalFor("parse") over a request tree.
func (s *Span) TotalFor(name string) time.Duration {
	if s == nil {
		return 0
	}
	var total time.Duration
	if s.name == name {
		total += s.Duration()
	}
	s.mu.Lock()
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range kids {
		total += c.TotalFor(name)
	}
	return total
}

// SpanNode is the exported, JSON-friendly form of a span tree.
type SpanNode struct {
	Name       string           `json:"name"`
	DurationUS int64            `json:"durationUs"`
	Duration   string           `json:"duration"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	Children   []*SpanNode      `json:"children,omitempty"`
}

// Tree snapshots the span and its descendants. Running spans report time
// elapsed so far. Nil-safe: returns nil.
func (s *Span) Tree() *SpanNode {
	if s == nil {
		return nil
	}
	d := s.Duration()
	n := &SpanNode{
		Name:       s.name,
		DurationUS: d.Microseconds(),
		Duration:   d.String(),
	}
	var counters map[string]int64
	add := func(k string, v int64) {
		if v == 0 {
			return
		}
		if counters == nil {
			counters = map[string]int64{}
		}
		counters[k] += v
	}
	add("tuplesIn", atomic.LoadInt64(&s.tuplesIn))
	add("tuplesOut", atomic.LoadInt64(&s.tuplesOut))
	add("rowsRead", atomic.LoadInt64(&s.rowsRead))
	add("spills", atomic.LoadInt64(&s.spills))
	for k := WaitKind(0); k < numWaitKinds; k++ {
		if ns := atomic.LoadInt64(&s.waits[k]); ns > 0 {
			// Round up so a recorded sub-microsecond wait still shows.
			add("wait."+k.String()+".us", (ns+999)/1000)
		}
	}
	s.mu.Lock()
	for k, v := range s.counters {
		add(k, v)
	}
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	n.Counters = counters
	for _, c := range kids {
		n.Children = append(n.Children, c.Tree())
	}
	return n
}

type spanCtxKey struct{}

// ContextWithSpan attaches a span to the context.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the context's span, or nil — and nil composes
// with every nil-safe Span method, so callers never branch.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}
