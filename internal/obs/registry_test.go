package obs

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Get-or-create returns the same counter.
	if r.Counter("x_ops_total", "ops").Value() != 5 {
		t.Fatal("re-lookup lost the counter")
	}
	g := r.Gauge("x_depth", "depth")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "")
	c.Inc() // must not panic
	r.Gauge("b", "").Set(1)
	r.Histogram("c", "", nil).Observe(1)
	r.RegisterFunc("d", "", TypeGauge, func() float64 { return 0 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var s *Span
	s.End()
	s.Add("k", 1)
	s.AddTuplesIn(1)
	s.AddSpill()
	if s.StartChild("x") != nil || s.Tree() != nil || s.Detailed() {
		t.Fatal("nil span not inert")
	}
}

// Instrumented code calls handles unconditionally, so every exported
// method of every handle type must be a no-op on a nil receiver. The
// methods are enumerated by reflection: a new one is covered without
// editing this test.
func TestNilHandlesAreInert(t *testing.T) {
	handles := []any{(*Span)(nil), (*Counter)(nil), (*Gauge)(nil), (*Histogram)(nil), (*Registry)(nil)}
	for _, h := range handles {
		v := reflect.ValueOf(h)
		for i := 0; i < v.NumMethod(); i++ {
			m := v.Type().Method(i)
			args := make([]reflect.Value, m.Type.NumIn()-1) // In(0) is the receiver
			for j := range args {
				args[j] = reflect.Zero(m.Type.In(j + 1))
			}
			t.Run(v.Type().Elem().Name()+"."+m.Name, func(t *testing.T) {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("panics on a nil receiver: %v", p)
					}
				}()
				v.Method(i).Call(args)
			})
		}
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_duration_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() < 5.5 || h.Sum() > 5.6 {
		t.Fatalf("sum = %v", h.Sum())
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`q_duration_seconds_bucket{le="0.01"} 1`,
		`q_duration_seconds_bucket{le="0.1"} 2`,
		`q_duration_seconds_bucket{le="1"} 3`,
		`q_duration_seconds_bucket{le="+Inf"} 4`,
		`q_duration_seconds_count 4`,
		`# TYPE q_duration_seconds histogram`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegisterFuncAndExposition(t *testing.T) {
	r := NewRegistry()
	n := 42.0
	r.RegisterFunc("sub_thing_total", "callback counter", TypeCounter, func() float64 { return n })
	r.Counter("a_ops_total", "first alphabetically").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# HELP sub_thing_total callback counter\n# TYPE sub_thing_total counter\nsub_thing_total 42\n") {
		t.Errorf("callback exposition wrong:\n%s", out)
	}
	// Output is name-sorted.
	if strings.Index(out, "a_ops_total") > strings.Index(out, "sub_thing_total") {
		t.Error("exposition not sorted by name")
	}
	snap := r.Snapshot()
	if snap["sub_thing_total"] != 42.0 {
		t.Errorf("snapshot callback = %v", snap["sub_thing_total"])
	}
	if snap["a_ops_total"] != int64(1) {
		t.Errorf("snapshot counter = %v", snap["a_ops_total"])
	}
}

// TestConcurrentRegistry hammers get-or-create, updates, and scrapes from
// many goroutines (run under -race by the verify target).
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared_total", "").Inc()
				r.Gauge("shared_gauge", "").Add(1)
				r.Histogram("shared_hist", "", nil).Observe(float64(j) / 1000)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 100; j++ {
			var sb strings.Builder
			r.WritePrometheus(&sb)
			r.Snapshot()
		}
	}()
	wg.Wait()
	if got := r.Counter("shared_total", "").Value(); got != 8000 {
		t.Fatalf("lost counter updates: %d", got)
	}
	if got := r.Histogram("shared_hist", "", nil).Count(); got != 8000 {
		t.Fatalf("lost observations: %d", got)
	}
}
