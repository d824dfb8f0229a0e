package hyracks

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"asterix/internal/fault"
	"asterix/internal/mem"
	"asterix/internal/obs"
)

// Run executes a job on the cluster, blocking until completion. The first
// task error cancels the whole job. A task whose operator panics fails the
// job with a *TaskPanic.
//
// Before any task starts, the job is admitted through the cluster's
// memory governor (see admit).
func (c *Cluster) Run(ctx context.Context, j *Job) error {
	atomic.AddInt64(&c.jobAttempts, 1)
	grant, err := c.admit(ctx, j)
	if err != nil {
		return err
	}
	defer grant.Release()
	return c.countFailure(c.run(ctx, j, grant))
}

// admit reserves the minimum grants of ALL the job's memory tasks, on
// every node, in one atomic step (bounded wait, typed timeout); nil when
// the job has no memory task. Because a running task only ever Grows
// non-blockingly — a denial means spill — admitted jobs can never
// deadlock on memory against each other.
func (c *Cluster) admit(ctx context.Context, j *Job) (*mem.JobGrant, error) {
	memTasks := 0
	for _, op := range j.ops {
		if op.Memory {
			memTasks += op.Parallelism
		}
	}
	if memTasks == 0 {
		return nil, nil
	}
	g, err := c.governor().AdmitJob(ctx, memTasks)
	if err != nil {
		return nil, fmt.Errorf("hyracks: job admission: %w", err)
	}
	return g, nil
}

// countFailure counts a job that failed with a *TaskPanic.
func (c *Cluster) countFailure(err error) error {
	var tp *TaskPanic
	if errors.As(err, &tp) {
		atomic.AddInt64(&c.taskPanics, 1)
	}
	return err
}

// run is Run without the attempt counter and the admission, under the
// job's admitted grant.
func (c *Cluster) run(ctx context.Context, j *Job, jobGrant *mem.JobGrant) error {
	// When the caller's span requests detailed profiling, every
	// (operator, partition) task gets its own child span recording wall
	// time, tuple counts, and spills. With no span (or detail off) every
	// task span is nil and all span calls are nil-check no-ops.
	jobSpan := obs.SpanFromContext(ctx)
	traceTasks := jobSpan.Detailed()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Validate wiring.
	for _, op := range j.ops {
		for port, e := range op.inEnds {
			if e == nil {
				return fmt.Errorf("hyracks: %s input port %d unconnected", op.Name, port)
			}
		}
	}

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	// Build the per-edge fabric: one frame channel per consumer slot.
	type edgeRT struct {
		chans   []chan []Tuple
		pending int32 // undone producers
	}
	// producerDone counts one producer of the edge finished. The last one
	// closes the channels, unless the run has died first (error or
	// cancellation): then they are abandoned, and every consumer recv
	// selects on the run's context, so nothing blocks on an unclosed
	// channel.
	producerDone := func(rt *edgeRT) {
		if atomic.AddInt32(&rt.pending, -1) == 0 && ctx.Err() == nil {
			for _, ch := range rt.chans {
				close(ch)
			}
		}
	}
	rts := make(map[*edge]*edgeRT, len(j.edges))
	for _, e := range j.edges {
		rt := &edgeRT{}
		n := e.to.Parallelism
		if e.conn.Kind == ConnMerge {
			if len(e.conn.Cmp.Columns) > 0 {
				// Ordered merge needs one stream per producer; the
				// consumer-side merging input buffers them unboundedly to
				// avoid exchange deadlocks (it must be able to wait on a
				// specific stream while others keep producing).
				n = e.from.Parallelism
			} else {
				// Unordered concentration: one shared MPSC channel, so no
				// producer is ever left unread while another is drained.
				n = 1
			}
		}
		rt.chans = make([]chan []Tuple, n)
		for i := range rt.chans {
			rt.chans[i] = make(chan []Tuple, 8)
		}
		rt.pending = int32(e.from.Parallelism)
		rts[e] = rt
	}

	for _, op := range j.ops {
		for p := 0; p < op.Parallelism; p++ {
			op, p := op, p
			node := c.Nodes[p%len(c.Nodes)]
			var ts *obs.Span
			if traceTasks {
				ts = jobSpan.StartChild(fmt.Sprintf("%s[%d]", op.Name, p))
			}
			var taskMem *mem.Grant
			if op.Memory {
				taskMem = jobGrant.TaskGrant()
			}
			tc := &TaskContext{
				Ctx:           ctx,
				Partition:     p,
				NumPartitions: op.Parallelism,
				Node:          node,
				Mem:           taskMem,
				Span:          ts,
				JobSpan:       jobSpan,
			}
			send := func(rt *edgeRT, dst int, frame []Tuple) error {
				if err := fault.Hit(fault.PointFrameDelay); err != nil {
					return err
				}
				ch := rt.chans[dst]
				// Fast path: a non-blocking send costs nothing extra.
				select {
				case ch <- frame:
					return nil
				default:
				}
				// The downstream channel is full — under detailed
				// profiling, attribute the stall to the task's
				// frame-exchange wait (per-frame timing only on the slow
				// path, and only when a task span exists).
				// Untraced jobs have no task span: skip the per-frame time.Now.
				if ts != nil {
					t0 := time.Now()
					defer func() { ts.AddWait(obs.WaitExchange, time.Since(t0)) }()
				}
				select {
				case ch <- frame:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			}

			// Inputs, ordered by port.
			ins := make([]*Input, len(op.inEnds))
			for port, e := range op.inEnds {
				rt := rts[e]
				switch e.conn.Kind {
				case ConnMerge:
					if len(e.conn.Cmp.Columns) > 0 {
						buffered := make([]chan []Tuple, len(rt.chans))
						for i, ch := range rt.chans {
							buffered[i] = unboundedBuffer(ctx, ch)
						}
						ins[port] = newMergingInput(ctx, buffered, e.conn.Cmp, node, ts)
					} else {
						ins[port] = newConcatInput(ctx, rt.chans, node, ts)
					}
				default:
					ch := rt.chans[p]
					ins[port] = &Input{recv: func() ([]Tuple, bool, error) {
						select {
						case f, ok := <-ch:
							if !ok {
								return nil, false, nil
							}
							node.addIn(int64(len(f)))
							ts.AddTuplesIn(int64(len(f)))
							return f, true, nil
						case <-ctx.Done():
							return nil, false, ctx.Err()
						}
					}}
				}
			}

			// Outputs, one per out edge in connection order.
			outs := make([]*Output, len(op.outs))
			writers := make([]*connWriter, len(op.outs))
			for i, e := range op.outs {
				rt := rts[e]
				w := &connWriter{
					conn:     e.conn,
					nch:      len(rt.chans),
					producer: p,
					send:     func(dst int, frame []Tuple) error { return send(rt, dst, frame) },
					tc:       tc,
				}
				if e.conn.Kind == ConnMerge {
					if len(e.conn.Cmp.Columns) > 0 {
						w.mergeDst = p
					} else {
						w.mergeDst = 0
					}
				}
				w.buffers = make([][]Tuple, w.nch)
				writers[i] = w
				outs[i] = &Output{write: w.Write, close: w.Close}
			}

			wg.Add(1)
			go func() {
				defer wg.Done()
				defer taskMem.Release() // returns this task's working memory
				// Label the task's CPU samples so /debug/pprof/profile
				// attributes time to (operator, partition) — combined with
				// the server's query label, a profile reads as "query 42
				// spent 60% in join[1]".
				var err error
				pprof.Do(ctx, pprof.Labels(
					"hyracks_op", op.Name,
					"partition", strconv.Itoa(p),
				), func(context.Context) {
					err = runTask(op, p, tc, ins, outs)
				})
				// The task wrote its last tuple, failed or not: publish what
				// the writers still count privately before the span ends.
				for _, w := range writers {
					w.flushCount()
				}
				tc.publishRead()
				ts.End()
				if err == nil {
					for _, w := range writers {
						if e := w.Close(); e != nil {
							err = e
							break
						}
					}
				}
				if err != nil && !errors.Is(err, context.Canceled) {
					fail(fmt.Errorf("hyracks: %s[%d]: %w", op.Name, p, err))
				} else if err != nil {
					fail(err)
				}
				// After fail: a failed producer's edges are abandoned.
				for _, e := range op.outs {
					producerDone(rts[e])
				}
			}()
		}
	}
	wg.Wait()
	j.peakWorking = jobGrant.Peak()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// runTask runs one (operator, partition) task and contains a panic in it:
// the panic becomes the *TaskPanic the job fails with, once the operator's
// own defers have released its pins, grants and run files on the way out.
// The hyracks.task.fail fault point fires under the same recover, so an
// injected panic takes the path an operator's own does.
func runTask(op *Operator, p int, tc *TaskContext, ins []*Input, outs []*Output) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &TaskPanic{Op: op.Name, Partition: p, Value: v, Stack: debug.Stack()}
		}
	}()
	if err := fault.Hit(fault.PointTaskFail); err != nil {
		return err
	}
	return op.New(p).Run(tc, ins, outs)
}

// firstFrameCap is the capacity a connWriter's frames start with until one
// of them has filled.
const firstFrameCap = 8

// connWriter routes a producer partition's output tuples into the edge's
// channels with frame batching. A frame is an ordinary slice: once sent it
// belongs to whoever received it.
type connWriter struct {
	conn    Connector
	nch     int
	buffers [][]Tuple
	// filled: one of this writer's frames has reached frameSize, so new
	// ones are allocated at that size. Until then a frame starts at
	// firstFrameCap and grows by append — a point lookup's answer is a
	// handful of rows per edge, not a frame's worth.
	filled   bool
	producer int
	mergeDst int // ConnMerge: the one channel this producer feeds
	send     func(dst int, frame []Tuple) error
	tc       *TaskContext // whose node and span the counts go to
	// written counts tuples since the last flushCount. The node's and the
	// span's counters are shared by every task of the partition, so a
	// write per tuple bounces their cache line between cores; they are
	// brought up to date whenever a frame is sent and when the task ends,
	// which keeps them exact at every frame boundary.
	written int64
	closed  bool
}

func (w *connWriter) flushCount() {
	w.tc.publishRead()
	if w.written > 0 {
		w.tc.Node.addOut(w.written)
		w.tc.Span.AddTuplesOut(w.written)
		w.written = 0
	}
}

// sendFrame publishes the tuple count, then hands a full or final frame to
// the edge.
func (w *connWriter) sendFrame(dst int, frame []Tuple) error {
	w.flushCount()
	return w.send(dst, frame)
}

func (w *connWriter) Write(t Tuple) error {
	w.written++
	switch w.conn.Kind {
	case ConnOneToOne:
		return w.buffered(w.producer, t)
	case ConnHashPartition:
		dst := int(HashColumns(t, w.conn.HashCols) % uint64(w.nch))
		return w.buffered(dst, t)
	case ConnBroadcast:
		for i := 0; i < w.nch; i++ {
			if err := w.buffered(i, t); err != nil {
				return err
			}
		}
		return nil
	case ConnMerge:
		return w.buffered(w.mergeDst, t)
	}
	return fmt.Errorf("hyracks: unknown connector kind %d", w.conn.Kind)
}

func (w *connWriter) buffered(dst int, t Tuple) error {
	if w.buffers[dst] == nil {
		size := firstFrameCap
		if w.filled {
			size = frameSize
		}
		w.buffers[dst] = make([]Tuple, 0, size)
	}
	w.buffers[dst] = append(w.buffers[dst], t)
	if len(w.buffers[dst]) >= frameSize {
		f := w.buffers[dst]
		w.buffers[dst] = nil
		w.filled = true
		return w.sendFrame(dst, f)
	}
	return nil
}

// Close flushes all partial frames. The task has published its tuple count
// by then (it does so when Run returns, whether or not Close follows).
func (w *connWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	for i, buf := range w.buffers {
		if len(buf) > 0 {
			if err := w.send(i, buf); err != nil {
				return err
			}
			w.buffers[i] = nil
		}
	}
	return nil
}

// unboundedBuffer decouples a producer channel from its consumer with an
// unbounded in-memory queue: the producer is never blocked by a merge
// consumer that is waiting on a different stream (exchange-deadlock
// avoidance for ordered merges; real Hyracks spills here instead).
func unboundedBuffer(ctx context.Context, in chan []Tuple) chan []Tuple {
	out := make(chan []Tuple, 8)
	go func() {
		defer close(out)
		var queue [][]Tuple
		// A nil channel is never ready: in goes nil once the producer has
		// closed it, send stays nil while there is nothing to deliver.
		for in != nil || len(queue) > 0 {
			var send chan []Tuple
			var head []Tuple
			if len(queue) > 0 {
				send, head = out, queue[0]
			}
			select {
			case f, ok := <-in:
				if !ok {
					in = nil
				} else {
					queue = append(queue, f)
				}
			case send <- head:
				queue[0] = nil // or the backing array keeps a delivered frame reachable
				queue = queue[1:]
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

// newConcatInput drains k producer channels sequentially (unordered
// concentrator).
func newConcatInput(ctx context.Context, chans []chan []Tuple, node *NodeController, span *obs.Span) *Input {
	idx := 0
	return &Input{recv: func() ([]Tuple, bool, error) {
		for idx < len(chans) {
			select {
			case f, ok := <-chans[idx]:
				if !ok {
					idx++
					continue
				}
				node.addIn(int64(len(f)))
				span.AddTuplesIn(int64(len(f)))
				return f, true, nil
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		return nil, false, nil
	}}
}

// newMergingInput merge-sorts k already-sorted producer channels into
// frames of at most frameSize tuples.
func newMergingInput(ctx context.Context, chans []chan []Tuple, cmp Comparator, node *NodeController, span *obs.Span) *Input {
	type cursor struct {
		frame []Tuple
		pos   int
		done  bool
	}
	curs := make([]cursor, len(chans))
	fill := func(i int) error {
		for !curs[i].done && curs[i].pos >= len(curs[i].frame) {
			select {
			case f, ok := <-chans[i]:
				if !ok {
					curs[i] = cursor{done: true}
					return nil
				}
				node.addIn(int64(len(f)))
				span.AddTuplesIn(int64(len(f)))
				curs[i].frame = f
				curs[i].pos = 0
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}
	primed := false
	return &Input{recv: func() ([]Tuple, bool, error) {
		if !primed {
			for i := range curs {
				if err := fill(i); err != nil {
					return nil, false, err
				}
			}
			primed = true
		}
		// The tuples waiting in the cursors size the output: a short answer
		// gets a short frame, and append grows it if refills bring more.
		waiting := 0
		for i := range curs {
			waiting += len(curs[i].frame) - curs[i].pos
		}
		if waiting == 0 {
			return nil, false, nil
		}
		out := make([]Tuple, 0, min(waiting, frameSize))
		for len(out) < frameSize {
			best := -1
			for i := range curs {
				if curs[i].done || curs[i].pos >= len(curs[i].frame) {
					continue
				}
				if best == -1 || cmp.Compare(curs[i].frame[curs[i].pos], curs[best].frame[curs[best].pos]) < 0 {
					best = i
				}
			}
			if best == -1 {
				break
			}
			out = append(out, curs[best].frame[curs[best].pos])
			curs[best].pos++
			if err := fill(best); err != nil {
				return nil, false, err
			}
		}
		return out, true, nil
	}}
}
