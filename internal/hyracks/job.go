package hyracks

import (
	"context"
	"fmt"
	"time"

	"asterix/internal/mem"
	"asterix/internal/obs"
)

// TaskContext is handed to each (operator, partition) task.
type TaskContext struct {
	Ctx           context.Context
	Partition     int
	NumPartitions int
	Node          *NodeController
	// Mem is this task's working-memory grant (sorts, joins,
	// aggregation), drawn from the cluster's governor per Figure 2. The
	// task's minimum was reserved at job admission; operators Grow it as
	// their buffers fill and spill when a Grow is denied. Nil for tasks
	// of operators that declared no memory need (unbounded no-op).
	Mem *mem.Grant
	// Span is this task's trace span when the job runs under detailed
	// profiling; nil otherwise (all span methods are nil-safe).
	Span *obs.Span
	// JobSpan is the enclosing statement's span (the server's request
	// span), present even without detailed profiling so wait-time
	// attribution reaches the slow-query log; nil outside traced
	// requests.
	JobSpan *obs.Span
	// RowsRead counts the stored records a leaf task has visited, emitted or
	// not. The task adds to it, unshared; the executor publishes it with the
	// tuple counts, at every frame sent and at task end (see publishRead).
	RowsRead  int64
	published int64 // RowsRead as of the last publishRead
}

// publishRead brings the node's and the span's rows-read counters up to
// RowsRead. Only the task's own goroutine calls it.
func (tc *TaskContext) publishRead() {
	if d := tc.RowsRead - tc.published; d > 0 {
		tc.Node.addRead(d)
		tc.Span.AddRowsRead(d)
		tc.published = tc.RowsRead
	}
}

// AddWait attributes blocked time (spill I/O, exchange stalls) to the
// task span when detailed profiling is on, otherwise to the job span —
// both nil-safe, so untraced jobs pay only the time.Since call at each
// (rare) wait event.
func (tc *TaskContext) AddWait(k obs.WaitKind, d time.Duration) {
	// Two sinks: the detailed task span wins over the job span.
	if tc.Span != nil {
		tc.Span.AddWait(k, d)
		return
	}
	tc.JobSpan.AddWait(k, d)
}

// TempDir returns the node-local spill directory.
func (tc *TaskContext) TempDir() string { return tc.Node.TempDir }

// Spill accounts one run-file spill on the node and, when profiling, the
// task span.
func (tc *TaskContext) Spill() {
	tc.Node.AddSpill()
	tc.Span.AddSpill()
}

// Input is a pull endpoint delivering frames from an upstream connector.
// A frame belongs to the consumer once delivered.
type Input struct {
	recv func() ([]Tuple, bool, error)
}

// NextFrame returns the next frame, ok=false at end of stream.
func (in *Input) NextFrame() ([]Tuple, bool, error) { return in.recv() }

// ForEach drains the input, calling fn per tuple.
func (in *Input) ForEach(fn func(Tuple) error) error {
	for {
		frame, ok, err := in.recv()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		for _, t := range frame {
			if err := fn(t); err != nil {
				return err
			}
		}
	}
}

// Output is a push endpoint into a downstream connector.
type Output struct {
	write func(Tuple) error
	close func() error
}

// Write emits one tuple.
func (o *Output) Write(t Tuple) error { return o.write(t) }

// Runner is one partition's executable logic for an operator.
type Runner interface {
	Run(tc *TaskContext, in []*Input, out []*Output) error
}

// RunnerFunc adapts a function to Runner.
type RunnerFunc func(tc *TaskContext, in []*Input, out []*Output) error

// Run implements Runner.
func (f RunnerFunc) Run(tc *TaskContext, in []*Input, out []*Output) error { return f(tc, in, out) }

// Operator describes a logical operator: a factory of per-partition
// runners plus its parallelism.
type Operator struct {
	Name        string
	Parallelism int
	New         func(partition int) Runner
	// Memory marks operators that buffer tuples against the working-
	// memory budget (sort, join, group-by). Each of their tasks gets a
	// minimum grant reserved at job admission; tasks of other operators
	// run with a nil grant.
	Memory bool

	id     int
	inEnds []*edge // ordered by input port
	outs   []*edge
}

// ConnectorKind selects the data-movement pattern of an edge.
type ConnectorKind int

// Connector kinds.
const (
	// ConnOneToOne pipes partition i to partition i (parallelism must match).
	ConnOneToOne ConnectorKind = iota
	// ConnHashPartition routes each tuple by the hash of key columns.
	ConnHashPartition
	// ConnBroadcast sends every tuple to all consumer partitions.
	ConnBroadcast
	// ConnMerge concentrates all producer partitions into consumer
	// partition 0, merging by a comparator if one is given (otherwise
	// arbitrary interleave). Consumer parallelism must be 1.
	ConnMerge
	// ConnRoundRobin scatters tuples round-robin (load balancing).
	ConnRoundRobin
)

// Connector configures an edge.
type Connector struct {
	Kind     ConnectorKind
	HashCols []int      // ConnHashPartition
	Cmp      Comparator // ConnMerge: ordered merge when Columns non-empty
}

// OneToOne returns a one-to-one connector.
func OneToOne() Connector { return Connector{Kind: ConnOneToOne} }

// HashPartition returns a hash-partitioning connector on the columns.
func HashPartition(cols ...int) Connector {
	return Connector{Kind: ConnHashPartition, HashCols: cols}
}

// Broadcast returns a broadcast connector.
func Broadcast() Connector { return Connector{Kind: ConnBroadcast} }

// MergeUnordered concentrates producers into one consumer partition.
func MergeUnordered() Connector { return Connector{Kind: ConnMerge} }

// MergeOrdered concentrates producers into one consumer partition,
// merge-sorting by cmp (producers must emit in cmp order).
func MergeOrdered(cmp Comparator) Connector { return Connector{Kind: ConnMerge, Cmp: cmp} }

// RoundRobin returns a round-robin scatter connector.
func RoundRobin() Connector { return Connector{Kind: ConnRoundRobin} }

type edge struct {
	from, to *Operator
	toPort   int
	conn     Connector
}

// Job is a dataflow DAG under construction.
type Job struct {
	ops   []*Operator
	edges []*edge

	// placement, when set, makes Run execute only this process's share
	// of the DAG and route cross-process edges through the transport.
	// Nil is the single-process mode: every task local.
	placement *Placement

	// peakWorking records the job's high-water mark of granted working
	// memory, set by Run when the job completes.
	peakWorking int64
}

// SetPlacement attaches a multi-process placement to the job (see
// Placement). Call before Run; a nil placement restores single-process
// execution.
func (j *Job) SetPlacement(p *Placement) { j.placement = p }

// PeakWorkingBytes returns the high-water mark of working memory granted
// to the job's tasks during its last Run (0 before the job ran or when
// no operator drew memory).
func (j *Job) PeakWorkingBytes() int64 { return j.peakWorking }

// NewJob creates an empty job.
func NewJob() *Job { return &Job{} }

// Add registers an operator and returns it.
func (j *Job) Add(op *Operator) *Operator {
	if op.Parallelism < 1 {
		op.Parallelism = 1
	}
	op.id = len(j.ops)
	j.ops = append(j.ops, op)
	return op
}

// Connect wires from → to at the consumer's input port.
func (j *Job) Connect(from, to *Operator, port int, conn Connector) error {
	if conn.Kind == ConnOneToOne && from.Parallelism != to.Parallelism {
		return fmt.Errorf("hyracks: one-to-one between parallelism %d and %d", from.Parallelism, to.Parallelism)
	}
	if conn.Kind == ConnMerge && to.Parallelism != 1 {
		return fmt.Errorf("hyracks: merge connector requires consumer parallelism 1, got %d", to.Parallelism)
	}
	e := &edge{from: from, to: to, toPort: port, conn: conn}
	for len(to.inEnds) <= port {
		to.inEnds = append(to.inEnds, nil)
	}
	if to.inEnds[port] != nil {
		return fmt.Errorf("hyracks: input port %d of %s already connected", port, to.Name)
	}
	to.inEnds[port] = e
	from.outs = append(from.outs, e)
	j.edges = append(j.edges, e)
	return nil
}

// MustConnect is Connect that panics on miswiring (plan-construction bug).
func (j *Job) MustConnect(from, to *Operator, port int, conn Connector) {
	if err := j.Connect(from, to, port, conn); err != nil {
		panic(err)
	}
}
