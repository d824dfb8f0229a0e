package hyracks

import (
	"time"

	"asterix/internal/fault"
	"asterix/internal/mem"
	"asterix/internal/obs"
)

// This file is the spill protocol of the memory-governed operators. Sort,
// group-by and hash join differ in WHAT they spill (sorted runs, partial
// aggregates by key hash, build and probe partitions) but not in how: they
// buffer against the task's grant, grow it while the governor allows, and
// on the first denial move the buffer to run files that are read back
// later. growOrSpill is that decision; runSet owns the files.

// growOrSpill keeps the task's grant covering the size bytes its operator
// has buffered. It grows the grant a chunk at a time; when the governor
// denies a grow it calls spill — which must move the buffered data to run
// files and reset the caller's size — and hands everything above the
// task's minimum back to the pool.
func growOrSpill(tc *TaskContext, size int, spill func() error) error {
	for size > tc.Mem.Granted() {
		if tc.Mem.Grow(mem.GrowChunk) {
			continue
		}
		if err := spill(); err != nil {
			return err
		}
		tc.Mem.ShrinkToMin()
		return nil
	}
	return nil
}

// runSet owns the run files one task spills, addressed by a small index:
// the run number of a sort, the hash partition of a group-by or grace
// join. A file is created by the first write to its index, read back at
// most once, and deleted when its read-back ends. The operator defers
// close once, right after newRunSet, so whatever is still on disk when the
// task exits — by error, cancellation, injected fault or a failing
// downstream write — is deleted and its descriptor released. The files'
// writers and readers attribute the time their I/O takes to the task as
// WaitSpill: a buffer of tuples at a time, not a tuple.
type runSet struct {
	tc *TaskContext
	// counted: each file the set creates is reported as one spill
	// (tc.Spill). The probe side of a grace join is not counted — its
	// build side already was.
	counted bool
	runs    []run
}

// run is one run file: w while it is being written, r while it is being
// read back, both nil before the first write and after the file is gone.
type run struct {
	w *RunWriter
	r *RunReader
}

func newRunSet(tc *TaskContext, counted bool) *runSet {
	return &runSet{tc: tc, counted: counted}
}

// len is one past the highest index written: the number of runs of a
// sort, non-zero once a partitioning operator has spilled.
func (s *runSet) len() int { return len(s.runs) }

// write appends t to run p, creating the file on first use.
func (s *runSet) write(p int, t Tuple) error {
	w, err := s.writer(p)
	if err != nil {
		return err
	}
	return w.Write(t)
}

func (s *runSet) writer(p int) (*RunWriter, error) {
	for p >= len(s.runs) {
		s.runs = append(s.runs, run{})
	}
	if s.runs[p].w == nil {
		t0 := time.Now() // creating the file, and an injected delay, are spill I/O too
		err := fault.Hit(fault.PointSpillIO)
		var w *RunWriter
		if err == nil {
			w, err = NewRunWriter(s.tc.TempDir(), s.tc)
		}
		s.tc.AddWait(obs.WaitSpill, time.Since(t0))
		if err != nil {
			return nil, err
		}
		s.runs[p].w = w
		if s.counted {
			s.tc.Spill()
		}
	}
	return s.runs[p].w, nil
}

// open ends the writing of run p and positions it for next. With reuse,
// a tuple next returns is valid until the following call (see
// RunReader.reuse). It reports false for an index nothing was written to.
func (s *runSet) open(p int, reuse bool) (bool, error) {
	if p >= len(s.runs) || s.runs[p].w == nil {
		return false, nil
	}
	r, err := s.runs[p].w.Finish()
	s.runs[p].w = nil // Finish disposed of the writer, failed or not
	if err != nil {
		return false, err
	}
	r.reuse = reuse
	s.runs[p].r = r
	return true, nil
}

// next reads the next tuple of an opened run; ok is false at its end.
func (s *runSet) next(p int) (Tuple, bool, error) {
	return s.runs[p].r.Next()
}

// each reads run p back through fn and deletes it. With reuse, fn gets
// the reader's one container and must not retain it (the values in it
// may be); a tuple that is kept or flows on downstream needs reuse false.
func (s *runSet) each(p int, reuse bool, fn func(Tuple) error) error {
	if ok, err := s.open(p, reuse); !ok {
		return err
	}
	for {
		t, ok, err := s.next(p)
		if err != nil {
			return err
		}
		if !ok {
			s.drop(p)
			return nil
		}
		if err := fn(t); err != nil {
			return err
		}
	}
}

// drop deletes run p in whatever state it is in.
func (s *runSet) drop(p int) {
	if w := s.runs[p].w; w != nil {
		w.Abort()
	}
	if r := s.runs[p].r; r != nil {
		// The file was only read and is being deleted; there is nothing
		// useful to do with a failure to close or unlink it.
		_ = r.Close()
	}
	s.runs[p] = run{}
}

// close deletes every run file the set still holds.
func (s *runSet) close() {
	for p := range s.runs {
		s.drop(p)
	}
}
