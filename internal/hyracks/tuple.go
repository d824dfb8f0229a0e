// Package hyracks implements the dataflow runtime of the stack (Figure 4):
// jobs are DAGs of operators and connectors executed with partitioned
// parallelism — one goroutine per (operator, partition) standing in for
// the per-node tasks of a shared-nothing cluster. Data moves in frames
// (tuple batches) through connectors (one-to-one, hash-partitioning,
// broadcast, ordered-merge). Memory-intensive operators (sort, join,
// group-by) honor a working-memory budget and spill to run files, per the
// paper's founding assumption that data and intermediate results exceed
// main memory.
package hyracks

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"asterix/internal/adm"
	"asterix/internal/obs"
)

// Tuple is one row: a fixed-width array of ADM values whose layout is
// defined by the plan that produces it. A value is never modified once it
// is in a tuple: a Broadcast edge hands the same values to every consumer
// task, and a compiled constant (algebricks' fold) is one value in every
// tuple of every partition. Operators build new values instead.
type Tuple []adm.Value

// Clone copies the tuple (values are immutable and shared).
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// EstimateSize approximates the tuple's in-memory footprint in bytes, used
// for working-memory accounting.
func (t Tuple) EstimateSize() int {
	sz := 24
	for _, v := range t {
		sz += estimateValueSize(v)
	}
	return sz
}

// EstimateSizeShallow approximates the tuple's incremental footprint when
// its pointer-typed values are shared with another live tuple — the
// post-Clone case: Clone copies the value slice but *adm.Object columns
// still point at the originals, so deep-counting them double-charges
// memory the table does not own. Pointer-shared values are charged at
// pointer cost; everything else matches EstimateSize.
func (t Tuple) EstimateSizeShallow() int {
	sz := 24
	for _, v := range t {
		sz += estimateValueShallow(v)
	}
	return sz
}

func estimateValueShallow(v adm.Value) int {
	switch x := v.(type) {
	case *adm.Object:
		return 16 // one shared pointer; the object is charged to its owner
	case adm.Array:
		sz := 24
		for _, e := range x {
			sz += estimateValueShallow(e)
		}
		return sz
	case adm.Multiset:
		sz := 24
		for _, e := range x {
			sz += estimateValueShallow(e)
		}
		return sz
	default:
		return estimateValueSize(v)
	}
}

func estimateValueSize(v adm.Value) int {
	switch x := v.(type) {
	case adm.String:
		return 16 + len(x)
	case adm.Binary:
		return 16 + len(x)
	case adm.Array:
		sz := 24
		for _, e := range x {
			sz += estimateValueSize(e)
		}
		return sz
	case adm.Multiset:
		sz := 24
		for _, e := range x {
			sz += estimateValueSize(e)
		}
		return sz
	case *adm.Object:
		sz := 32
		for _, f := range x.Fields() {
			sz += 16 + len(f.Name) + estimateValueSize(f.Value)
		}
		return sz
	default:
		return 16
	}
}

// Comparator orders tuples by a column list with per-column direction.
type Comparator struct {
	Columns []int
	Desc    []bool // parallel to Columns; nil = all ascending
}

// Compare returns the order of a vs b under the comparator.
func (c Comparator) Compare(a, b Tuple) int {
	for i, col := range c.Columns {
		r := adm.Compare(a[col], b[col])
		if r != 0 {
			if c.Desc != nil && c.Desc[i] {
				return -r
			}
			return r
		}
	}
	return 0
}

// HashColumns hashes the listed columns of a tuple (for hash partitioning
// and hash joins).
func HashColumns(t Tuple, cols []int) uint64 {
	var h uint64 = 14695981039346656037
	for _, c := range cols {
		h = h*1099511628211 ^ adm.Hash64(t[c])
	}
	return h
}

// --- Run files: spilled tuple streams for sort/join/group-by. ---

// runFilePattern names run files, for os.CreateTemp and for the start-up
// sweep of a node's spill directory alike.
const runFilePattern = "run-*.tmp"

// runBufSize is how many bytes of a run file are written, and read back,
// at a time.
const runBufSize = 1 << 16

// RunWriter writes tuples to a spill file, runBufSize bytes at a time. The
// time a write takes is the task's WaitSpill.
type RunWriter struct {
	f   *os.File
	tc  *TaskContext
	n   int
	buf []byte // one tuple's encoding
	out []byte // tuples encoded and not yet written
}

// NewRunWriter creates a spill file in dir for a task. Operators do not
// call this: they spill through a runSet, which deletes its files on every
// exit.
func NewRunWriter(dir string, tc *TaskContext) (*RunWriter, error) {
	f, err := os.CreateTemp(dir, runFilePattern)
	if err != nil {
		return nil, fmt.Errorf("hyracks: create run file: %w", err)
	}
	return &RunWriter{f: f, tc: tc, out: make([]byte, 0, runBufSize)}, nil
}

// Write appends one tuple.
func (rw *RunWriter) Write(t Tuple) error {
	rw.buf = rw.buf[:0]
	rw.buf = binary.AppendUvarint(rw.buf, uint64(len(t)))
	for _, v := range t {
		rw.buf = adm.Encode(rw.buf, v)
	}
	if len(rw.out)+binary.MaxVarintLen64+len(rw.buf) > cap(rw.out) && len(rw.out) > 0 {
		if err := rw.flush(); err != nil {
			return err
		}
	}
	rw.out = binary.AppendUvarint(rw.out, uint64(len(rw.buf)))
	rw.out = append(rw.out, rw.buf...)
	rw.n++
	return nil
}

// flush writes the buffered tuples to the file.
func (rw *RunWriter) flush() error {
	t0 := time.Now()
	_, err := rw.f.Write(rw.out)
	rw.tc.AddWait(obs.WaitSpill, time.Since(t0))
	rw.out = rw.out[:0]
	return err
}

// Finish flushes and returns a reader positioned at the start. The file is
// unlinked once the reader is closed. The reader reads into the buffer the
// writer wrote from. A failed Finish aborts the run: the writer is disposed
// of either way.
func (rw *RunWriter) Finish() (*RunReader, error) {
	err := rw.flush()
	if err == nil {
		_, err = rw.f.Seek(0, io.SeekStart)
	}
	if err != nil {
		rw.Abort()
		return nil, fmt.Errorf("hyracks: finish run file: %w", err)
	}
	return &RunReader{f: rw.f, tc: rw.tc, remaining: rw.n, buf: rw.out}, nil
}

// Abort discards the run file without reading it.
func (rw *RunWriter) Abort() {
	name := rw.f.Name()
	//lint:ignore err-discard best-effort cleanup of a spill file that is being thrown away
	rw.f.Close()
	//lint:ignore err-discard best-effort cleanup of a spill file that is being thrown away
	os.Remove(name)
}

// errCorruptRun reports a run file that does not hold what RunWriter wrote.
var errCorruptRun = errors.New("hyracks: corrupt run file")

// RunReader reads back a spilled tuple stream, a buffer of the file at a
// time. The time a read takes is the task's WaitSpill.
type RunReader struct {
	f         *os.File
	tc        *TaskContext
	remaining int
	buf       []byte // bytes of the file read ahead; buf[pos:] is not decoded yet
	pos       int

	// reuse makes Next decode every tuple into the one container scratch:
	// a tuple is then valid until the next call, and only the values read
	// out of it may be kept. Leave it false when read-back tuples are kept
	// or flow downstream — build side, sort merge output, semi-join probe.
	reuse   bool
	scratch Tuple
}

// fill reads the file ahead until n bytes are waiting to be decoded, or to
// its end: the caller finds fewer there.
func (rr *RunReader) fill(n int) error {
	if len(rr.buf)-rr.pos >= n {
		return nil
	}
	rest := rr.buf[rr.pos:]
	if n > cap(rr.buf) { // a tuple longer than the buffer
		rr.buf = make([]byte, n)
	}
	rr.buf = rr.buf[:cap(rr.buf)]
	have := copy(rr.buf, rest)
	rr.pos = 0
	t0 := time.Now()
	m, err := io.ReadAtLeast(rr.f, rr.buf[have:], n-have)
	rr.tc.AddWait(obs.WaitSpill, time.Since(t0))
	rr.buf = rr.buf[:have+m]
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil
	}
	return err
}

// Next returns the next tuple, or ok=false at end.
func (rr *RunReader) Next() (Tuple, bool, error) {
	if rr.remaining == 0 {
		return nil, false, nil
	}
	if err := rr.fill(binary.MaxVarintLen64); err != nil {
		return nil, false, fmt.Errorf("hyracks: run read: %w", err)
	}
	sz, m := binary.Uvarint(rr.buf[rr.pos:])
	if m <= 0 || sz > math.MaxInt32 {
		return nil, false, errCorruptRun
	}
	if err := rr.fill(m + int(sz)); err != nil {
		return nil, false, fmt.Errorf("hyracks: run read: %w", err)
	}
	if len(rr.buf)-rr.pos < m+int(sz) {
		return nil, false, fmt.Errorf("%w: %v", errCorruptRun, io.ErrUnexpectedEOF)
	}
	rec := rr.buf[rr.pos+m : rr.pos+m+int(sz)]
	rr.pos += m + int(sz)
	// Every value is at least one byte, which bounds the column count by
	// the bytes left in the record before it sizes anything.
	n, pos := binary.Uvarint(rec)
	if pos <= 0 || n > uint64(len(rec)-pos) {
		return nil, false, errCorruptRun
	}
	t := rr.scratch[:0]
	if !rr.reuse || cap(t) < int(n) {
		t = make(Tuple, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		v, used, err := adm.Decode(rec[pos:])
		if err != nil {
			return nil, false, fmt.Errorf("%w: %v", errCorruptRun, err)
		}
		t = append(t, v)
		pos += used
	}
	if rr.reuse {
		rr.scratch = t
	}
	rr.remaining--
	return t, true, nil
}

// Close closes and removes the run file.
func (rr *RunReader) Close() error {
	name := rr.f.Name()
	err := rr.f.Close()
	if rerr := os.Remove(name); err == nil {
		err = rerr
	}
	rr.buf = nil
	return err
}
