package hyracks

import (
	"context"
	"errors"
	"fmt"
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
// task error cancels the whole job. Partitions are placed on the nodes
// alive when the run starts; a node killed mid-run cancels its tasks,
// which surface as a *NodeFailure (retriable via RunWithRetry).
//
// With a Placement attached (SetPlacement), Run executes only this
// process's share of the DAG: channels consumed here stay on the
// in-process fabric, channels consumed elsewhere are routed through the
// placement's Transport, and a remote node's death — reported by
// heartbeat failure detection through NodeController.Kill — fails the
// run with the same *NodeFailure an in-process kill produces. A broken
// frame stream without a dead node surfaces as *LinkFailure, equally
// retriable.
//
// Before any task starts, the job is admitted through the cluster's
// memory governor: the minimum grants of ALL its memory operators'
// tasks are reserved atomically (bounded wait, typed timeout). Because
// a running task only ever Grows non-blockingly — a denial means spill
// — admitted jobs can never deadlock on memory against each other.
func (c *Cluster) Run(ctx context.Context, j *Job) error {
	atomic.AddInt64(&c.jobAttempts, 1)
	alive := c.AliveNodes()
	if len(alive) == 0 {
		return fmt.Errorf("hyracks: no alive nodes in the cluster")
	}
	pl := j.placement
	var localNC *NodeController
	if pl != nil {
		var err error
		if localNC, err = pl.localNode(c); err != nil {
			return err
		}
		if localNC.Dead() {
			return &NodeFailure{Node: localNC.ID, Op: "(startup)"}
		}
	}
	// isLocal reports whether (op, partition) runs in this process.
	isLocal := func(op *Operator, p int) bool {
		return pl == nil || pl.Assign(op.Name, p) == pl.Node
	}
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

	// Admit the job: one atomic reservation covering every LOCAL memory
	// task's minimum grant (each process admits against its own
	// governor).
	memTasks := 0
	for _, op := range j.ops {
		if !op.Memory {
			continue
		}
		for p := 0; p < op.Parallelism; p++ {
			if isLocal(op, p) {
				memTasks++
			}
		}
	}
	var jobGrant *mem.JobGrant
	if memTasks > 0 {
		jg, err := c.governor().AdmitJob(ctx, memTasks)
		if err != nil {
			return fmt.Errorf("hyracks: job admission: %w", err)
		}
		jobGrant = jg
		// Nil-safe and idempotent: the admission is given back on every
		// exit, the early returns below included.
		defer jobGrant.Release()
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

	// Build the per-edge fabric. Each edge has one frame channel per
	// consumer-owned slot: channels consumed in this process are real Go
	// channels; channels consumed elsewhere stay nil and sends to them go
	// through the transport. The channels close when every producer —
	// local task or remote peer EOS — has finished, or are abandoned (and
	// drained by task-context cancellation) when the run dies first.
	type edgeRT struct {
		chans   []chan []Tuple
		owners  []string // per-channel consumer node; "" = local
		remote  bool     // any remote-owned channel
		handle  EdgeHandle
		pending int32 // undone producers, local + remote
		done    chan struct{}
	}
	rts := make(map[*edge]*edgeRT, len(j.edges))
	var transport Transport = LocalTransport{}
	if pl != nil && pl.Transport != nil {
		transport = pl.Transport
	}
	jobID := ""
	if pl != nil {
		jobID = pl.JobID
	}
	defer transport.CloseJob(jobID)
	for ei, e := range j.edges {
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
		rt.owners = make([]string, n)
		for i := range rt.chans {
			// The consumer partition owning channel i: merge connectors
			// concentrate every stream onto consumer partition 0.
			part := i
			if e.conn.Kind == ConnMerge {
				part = 0
			}
			if pl != nil {
				if owner := pl.Assign(e.to.Name, part); owner != pl.Node {
					rt.owners[i] = owner
					rt.remote = true
					continue
				}
			}
			rt.chans[i] = make(chan []Tuple, 8)
		}
		rt.pending = int32(e.from.Parallelism)
		rt.done = make(chan struct{})
		rts[e] = rt
		decr := func() {
			if atomic.AddInt32(&rt.pending, -1) == 0 {
				close(rt.done)
			}
		}
		if pl != nil {
			senders := map[string]bool{}
			for pp := 0; pp < e.from.Parallelism; pp++ {
				if id := pl.Assign(e.from.Name, pp); id != pl.Node {
					senders[id] = true
				}
			}
			h, err := transport.OpenEdge(ctx, EdgeDesc{
				JobID:     pl.JobID,
				Edge:      ei,
				Owners:    rt.owners,
				Recv:      rt.chans,
				Producers: e.from.Parallelism,
				Senders:   len(senders),
				EOS:       decr,
				Fail:      fail,
			})
			if err != nil {
				return fmt.Errorf("hyracks: open edge %d: %w", ei, err)
			}
			rt.handle = h
		}
		go func(rt *edgeRT) {
			// Close the local channels once all producers finished. A run
			// that dies first (error, cancellation, a peer that will never
			// EOS) abandons them instead: every consumer recv selects on
			// its task context, so nothing blocks on an unclosed channel.
			select {
			case <-rt.done:
				for _, ch := range rt.chans {
					if ch != nil {
						close(ch)
					}
				}
			case <-ctx.Done():
			}
		}(rt)
	}

	// Control-plane hooks. The remote-node watchers and the abort
	// listener install BEFORE the START barrier: a process whose
	// coordinator (or any depended-on peer) dies while it is parked at
	// the barrier must still fail with the typed retriable error rather
	// than wait forever.
	if pl != nil {
		// Watch every remote node this attempt depends on: a heartbeat
		// timeout Kills its controller, and the watcher converts that
		// into the same retriable NodeFailure an in-process kill raises.
		watched := map[string]bool{pl.Node: true}
		for _, op := range j.ops {
			for p := 0; p < op.Parallelism; p++ {
				id := pl.Assign(op.Name, p)
				if watched[id] {
					continue
				}
				watched[id] = true
				nc := c.NodeByID(id)
				if nc == nil {
					return fmt.Errorf("hyracks: placement assigns %s[%d] to unknown node %q", op.Name, p, id)
				}
				go func(nc *NodeController) {
					select {
					case <-nc.killedCh():
						fail(&NodeFailure{Node: nc.ID, Op: "(remote)"})
					case <-ctx.Done():
					}
				}(nc)
			}
		}
		if pl.Abort != nil {
			go func() {
				select {
				case err := <-pl.Abort:
					if err != nil {
						fail(err)
					}
				case <-ctx.Done():
				}
			}()
		}
		if pl.Ready != nil {
			pl.Ready()
		}
		if pl.Start != nil {
			select {
			case <-pl.Start:
			case <-ctx.Done():
				// A watcher or the abort listener may have cancelled the
				// run with a typed retriable failure; fail-then-read
				// synchronizes on the errOnce, so that error wins over a
				// bare context.Canceled.
				fail(ctx.Err())
				return firstErr
			}
		}
	}

	for _, op := range j.ops {
		for p := 0; p < op.Parallelism; p++ {
			if !isLocal(op, p) {
				continue
			}
			op, p := op, p
			node := localNC
			if node == nil {
				node = alive[p%len(alive)]
			}
			var ts *obs.Span
			if traceTasks {
				ts = jobSpan.StartChild(fmt.Sprintf("%s[%d]", op.Name, p))
			}
			// Every blocking construct of this task selects on tctx, which
			// the watcher cancels the instant the task's node is killed —
			// the whole job then tears down via the usual error path.
			tctx, tcancel := context.WithCancel(ctx)
			go func() {
				select {
				case <-node.killedCh():
					tcancel()
				case <-tctx.Done():
				}
			}()
			var taskMem *mem.Grant
			if op.Memory {
				taskMem = jobGrant.TaskGrant()
			}
			tc := &TaskContext{
				Ctx:           tctx,
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
				if rt.owners[dst] != "" {
					// Remote consumer: the transport serializes the frame
					// and blocks under the consumer's credit window. Wire
					// stalls are always attributed (the per-frame clock is
					// noise next to a network round trip).
					t0 := time.Now()
					err := rt.handle.Send(tctx, dst, frame)
					tc.AddWait(obs.WaitNet, time.Since(t0))
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
				case <-tctx.Done():
					return tctx.Err()
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
							buffered[i] = unboundedBuffer(tctx, ch)
						}
						ins[port] = newMergingInput(tctx, buffered, e.conn.Cmp, c.FrameSize, node, ts)
					} else {
						ins[port] = newConcatInput(tctx, rt.chans, node, ts)
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
						case <-tctx.Done():
							return nil, false, tctx.Err()
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
					conn:      e.conn,
					nch:       len(rt.chans),
					frameSize: c.FrameSize,
					producer:  p,
					send:      func(dst int, frame []Tuple) error { return send(rt, dst, frame) },
					tc:        tc,
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
				defer tcancel()         // releases the kill watcher
				defer taskMem.Release() // returns this task's working memory
				runner := op.New(p)
				err := fault.Hit(fault.PointNodeCrash)
				if err != nil {
					// The injected crash takes down the whole node, not
					// just this task.
					node.Kill()
				} else {
					// Label the task's CPU samples so /debug/pprof/profile
					// attributes time to (operator, partition) — combined
					// with the server's query label, a profile reads as
					// "query 42 spent 60% in join[1]".
					pprof.Do(tctx, pprof.Labels(
						"hyracks_op", op.Name,
						"partition", strconv.Itoa(p),
					), func(context.Context) {
						err = runner.Run(tc, ins, outs)
					})
				}
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
				// Producers must be marked done even on error so channel
				// closers terminate. The wire end-of-stream, though, is a
				// success claim — "every frame I owed this edge arrived
				// before this" — so a FAILED producer must not send it: a
				// reconnect would carry the EOS past the break and the
				// consumer would complete on silently truncated data. Its
				// consumers instead block until the failure status aborts
				// the attempt and the retry supersedes the job id.
				for _, e := range op.outs {
					rt := rts[e]
					if rt.remote && rt.handle != nil && err == nil {
						if pdErr := rt.handle.ProducerDone(); pdErr != nil {
							err = pdErr
						}
					}
					if atomic.AddInt32(&rt.pending, -1) == 0 {
						close(rt.done)
					}
				}
				// A task that failed on a dead node failed BECAUSE the node
				// died (its tctx was cancelled by the watcher); a task that
				// finished before the kill landed keeps its success.
				if err != nil && node.Dead() {
					err = &NodeFailure{Node: node.ID, Op: op.Name}
				}
				if err != nil && !errors.Is(err, context.Canceled) {
					fail(fmt.Errorf("hyracks: %s[%d]: %w", op.Name, p, err))
				} else if err != nil {
					fail(err)
				}
			}()
		}
	}
	wg.Wait()
	j.peakWorking = jobGrant.Peak()
	// The remote-node watchers and the abort listener stop on the
	// deferred cancel, so one can be inside fail() right now. An empty
	// Do synchronizes with it — Do returns only after the first call's
	// write to firstErr completed — and consumes the Once, so a watcher
	// firing later can no longer write while firstErr is read.
	errOnce.Do(func() {})
	if firstErr != nil {
		var nf *NodeFailure
		var lf *LinkFailure
		if errors.As(firstErr, &nf) {
			atomic.AddInt64(&c.nodeFailures, 1)
		} else if errors.As(firstErr, &lf) {
			atomic.AddInt64(&c.linkFailures, 1)
		}
		return firstErr
	}
	return ctx.Err()
}

// firstFrameCap is the capacity a connWriter's frames start with until one
// of them has filled.
const firstFrameCap = 8

// connWriter routes a producer partition's output tuples into the edge's
// channels with frame batching. A frame is an ordinary slice: once sent it
// belongs to whoever received it.
type connWriter struct {
	conn      Connector
	nch       int
	buffers   [][]Tuple
	frameSize int
	// filled: one of this writer's frames has reached frameSize, so new
	// ones are allocated at that size. Until then a frame starts at
	// firstFrameCap and grows by append — a point lookup's answer is a
	// handful of rows per edge, not a frame's worth.
	filled   bool
	producer int
	rr       int
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
	case ConnRoundRobin:
		dst := w.rr % w.nch
		w.rr++
		return w.buffered(dst, t)
	case ConnMerge:
		return w.buffered(w.mergeDst, t)
	}
	return fmt.Errorf("hyracks: unknown connector kind %d", w.conn.Kind)
}

func (w *connWriter) buffered(dst int, t Tuple) error {
	if w.buffers[dst] == nil {
		size := firstFrameCap
		if w.filled {
			size = w.frameSize
		}
		w.buffers[dst] = make([]Tuple, 0, size)
	}
	w.buffers[dst] = append(w.buffers[dst], t)
	if len(w.buffers[dst]) >= w.frameSize {
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
func newMergingInput(ctx context.Context, chans []chan []Tuple, cmp Comparator, frameSize int, node *NodeController, span *obs.Span) *Input {
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
