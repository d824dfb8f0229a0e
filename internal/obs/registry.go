// Package obs is the dependency-free observability layer shared by every
// subsystem: a concurrent metrics registry (counters, gauges, fixed-bucket
// histograms, scrape-time callbacks) with Prometheus-text and JSON
// exposition, plus a lightweight per-query span tracer (trace.go).
//
// Metric naming convention: <subsystem>_<name>_<unit>, e.g.
// storage_buffercache_hits_total, lsm_flush_duration_seconds.
//
// Every handle type is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, or *Registry are no-ops, so instrumented code needs no
// "is observability enabled?" branches — an unwired subsystem pays one
// predictable nil check per event.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// MetricType classifies a metric for exposition.
type MetricType string

// Metric types (Prometheus TYPE names).
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (d must be >= 0 for Prometheus semantics).
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.v, d)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	atomic.StoreInt64(&g.v, v)
}

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	atomic.AddInt64(&g.v, d)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return atomic.LoadInt64(&g.v)
}

// DefBuckets are the default histogram bucket upper bounds, tuned for
// durations in seconds from 100µs to 10s.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket cumulative histogram. Observations are
// lock-free atomic adds.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf implicit
	counts  []int64   // len(bounds)+1, last is +Inf
	count   int64
	sumBits uint64 // float64 bits, CAS-updated
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	b := append([]float64(nil), buckets...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	atomic.AddInt64(&h.counts[i], 1)
	atomic.AddInt64(&h.count, 1)
	for {
		old := atomic.LoadUint64(&h.sumBits)
		new := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&h.sumBits, old, new) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.count)
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&h.sumBits))
}

// metric is one registered entry.
type metric struct {
	name string
	help string
	typ  MetricType

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // scrape-time callback (counter or gauge)
}

// Registry is a concurrent, name-keyed metric registry. The zero value is
// not usable; create one with NewRegistry. All methods are safe for
// concurrent use, and get-or-create lookups are idempotent so independent
// subsystems may share a metric by name.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

func (r *Registry) lookup(name string) (*metric, bool) {
	r.mu.RLock()
	m, ok := r.metrics[name]
	r.mu.RUnlock()
	return m, ok
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a no-op handle) on a nil registry or a name already registered as a
// different type.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	if m, ok := r.lookup(name); ok {
		return m.counter
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m.counter
	}
	c := &Counter{}
	r.metrics[name] = &metric{name: name, help: help, typ: TypeCounter, counter: c}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	if m, ok := r.lookup(name); ok {
		return m.gauge
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m.gauge
	}
	g := &Gauge{}
	r.metrics[name] = &metric{name: name, help: help, typ: TypeGauge, gauge: g}
	return g
}

// Histogram returns the named histogram, creating it with the bucket upper
// bounds on first use (nil buckets = DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if m, ok := r.lookup(name); ok {
		return m.hist
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m.hist
	}
	h := newHistogram(buckets)
	r.metrics[name] = &metric{name: name, help: help, typ: TypeHistogram, hist: h}
	return h
}

// RegisterFunc registers a scrape-time callback exposed as typ (counter or
// gauge). Subsystems with existing private counters publish them this way
// without double accounting; fn must be safe for concurrent use.
// Re-registering a name replaces the callback.
func (r *Registry) RegisterFunc(name, help string, typ MetricType, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = &metric{name: name, help: help, typ: typ, fn: fn}
}

// sorted returns metrics in name order (stable exposition).
func (r *Registry) sorted() []*metric {
	r.mu.RLock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the registry in Prometheus text exposition format
// (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, m := range r.sorted() {
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ); err != nil {
			return err
		}
		var err error
		switch {
		case m.fn != nil:
			_, err = fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(m.fn()))
		case m.counter != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.counter.Value())
		case m.gauge != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.gauge.Value())
		case m.hist != nil:
			cum := int64(0)
			for i, b := range m.hist.bounds {
				cum += atomic.LoadInt64(&m.hist.counts[i])
				if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.name, formatFloat(b), cum); err != nil {
					return err
				}
			}
			if _, err = fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", m.name, m.hist.Count()); err != nil {
				return err
			}
			if _, err = fmt.Fprintf(w, "%s_sum %s\n", m.name, formatFloat(m.hist.Sum())); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s_count %d\n", m.name, m.hist.Count())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// HistogramSnapshot is a histogram's JSON form.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Buckets map[string]int64 `json:"buckets"` // upper bound → cumulative count
}

// Snapshot returns a point-in-time JSON-friendly view: metric name →
// number (counters, gauges, callbacks) or HistogramSnapshot.
func (r *Registry) Snapshot() map[string]interface{} {
	out := map[string]interface{}{}
	if r == nil {
		return out
	}
	for _, m := range r.sorted() {
		switch {
		case m.fn != nil:
			out[m.name] = m.fn()
		case m.counter != nil:
			out[m.name] = m.counter.Value()
		case m.gauge != nil:
			out[m.name] = m.gauge.Value()
		case m.hist != nil:
			hs := HistogramSnapshot{
				Count:   m.hist.Count(),
				Sum:     m.hist.Sum(),
				Buckets: map[string]int64{},
			}
			cum := int64(0)
			for i, b := range m.hist.bounds {
				cum += atomic.LoadInt64(&m.hist.counts[i])
				hs.Buckets[formatFloat(b)] = cum
			}
			hs.Buckets["+Inf"] = hs.Count
			out[m.name] = hs
		}
	}
	return out
}
