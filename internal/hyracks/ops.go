package hyracks

import (
	"fmt"
	"sync"
)

// NewScan builds a source operator: scan is called once per partition and
// emits tuples.
func NewScan(name string, parallelism int, scan func(tc *TaskContext, emit func(Tuple) error) error) *Operator {
	return &Operator{
		Name:        name,
		Parallelism: parallelism,
		New: func(int) Runner {
			return RunnerFunc(func(tc *TaskContext, in []*Input, out []*Output) error {
				return scan(tc, out[0].Write)
			})
		},
	}
}

// NewMap builds a flat-map operator: fn returns zero or more output tuples
// per input tuple (covering project, assign, filter, and unnest).
func NewMap(name string, parallelism int, fn func(tc *TaskContext, t Tuple, emit func(Tuple) error) error) *Operator {
	return &Operator{
		Name:        name,
		Parallelism: parallelism,
		New: func(int) Runner {
			return RunnerFunc(func(tc *TaskContext, in []*Input, out []*Output) error {
				return in[0].ForEach(func(t Tuple) error {
					return fn(tc, t, out[0].Write)
				})
			})
		},
	}
}

// Collector accumulates a job's result tuples (thread-safe).
type Collector struct {
	mu     sync.Mutex
	tuples []Tuple
}

// Add appends a tuple.
func (c *Collector) Add(t Tuple) {
	c.mu.Lock()
	c.tuples = append(c.tuples, t.Clone())
	c.mu.Unlock()
}

// Tuples returns the collected tuples.
func (c *Collector) Tuples() []Tuple {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tuples
}

// Len returns the number of collected tuples.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.tuples)
}

// NewSink builds a terminal operator that feeds a Collector.
func NewSink(name string, parallelism int, coll *Collector) *Operator {
	return &Operator{
		Name:        name,
		Parallelism: parallelism,
		New: func(int) Runner {
			return RunnerFunc(func(tc *TaskContext, in []*Input, out []*Output) error {
				return in[0].ForEach(func(t Tuple) error {
					coll.Add(t)
					return nil
				})
			})
		},
	}
}

// NewOrderedSink collects tuples preserving arrival order in a single
// partition (used below a merge connector for ORDER BY results).
func NewOrderedSink(name string, coll *Collector) *Operator {
	return NewSink(name, 1, coll)
}

// NewFuncSink builds a terminal operator calling fn per tuple.
func NewFuncSink(name string, parallelism int, fn func(partition int, t Tuple) error) *Operator {
	return &Operator{
		Name:        name,
		Parallelism: parallelism,
		New: func(p int) Runner {
			return RunnerFunc(func(tc *TaskContext, in []*Input, out []*Output) error {
				return in[0].ForEach(func(t Tuple) error {
					return fn(p, t)
				})
			})
		},
	}
}

// NewUnionAll concatenates its inputs (all ports) into one stream.
func NewUnionAll(name string, parallelism int, inputs int) *Operator {
	if inputs < 1 {
		inputs = 1
	}
	return &Operator{
		Name:        name,
		Parallelism: parallelism,
		New: func(int) Runner {
			return RunnerFunc(func(tc *TaskContext, in []*Input, out []*Output) error {
				if len(in) != inputs {
					return fmt.Errorf("union: expected %d inputs, got %d", inputs, len(in))
				}
				for _, i := range in {
					if err := i.ForEach(out[0].Write); err != nil {
						return err
					}
				}
				return nil
			})
		},
	}
}
