package hyracks

import "sort"

// NewSort builds a memory-governed external sort: each partition
// accumulates tuples in its working-memory grant, growing it as the
// buffer fills; a denied Grow spills a sorted run, and runs are merged
// on output. With a single run everything stays in memory (the crossover
// E5 measures).
func NewSort(name string, parallelism int, cmp Comparator) *Operator {
	return &Operator{
		Name:        name,
		Parallelism: parallelism,
		Memory:      true,
		New: func(int) Runner {
			return RunnerFunc(func(tc *TaskContext, in []*Input, out []*Output) error {
				return runSort(tc, in[0], out[0], cmp)
			})
		},
	}
}

func runSort(tc *TaskContext, in *Input, out *Output, cmp Comparator) error {
	runs := newRunSet(tc, true)
	defer runs.close()
	var (
		buf     []Tuple
		bufSize int
	)
	sortBuf := func() {
		sort.SliceStable(buf, func(i, j int) bool { return cmp.Compare(buf[i], buf[j]) < 0 })
	}
	// spill writes the buffer out as the next sorted run.
	spill := func() error {
		sortBuf()
		run := runs.len()
		for _, t := range buf {
			if err := runs.write(run, t); err != nil {
				return err
			}
		}
		buf, bufSize = buf[:0], 0
		return nil
	}
	err := in.ForEach(func(t Tuple) error {
		buf = append(buf, t)
		bufSize += t.EstimateSize()
		return growOrSpill(tc, bufSize, spill)
	})
	if err != nil {
		return err
	}
	sortBuf()

	// K-way merge: sources 0..k-1 are the spilled runs, source k the
	// in-memory tail — the whole input when nothing spilled. Ties go to the
	// lowest source, which keeps the sort stable (runs were written in
	// arrival order, the tail arrived last).
	k := runs.len()
	for p := 0; p < k; p++ {
		if _, err := runs.open(p, nil); err != nil {
			return err
		}
	}
	memPos := 0
	pull := func(src int) (Tuple, error) { // nil at the source's end
		if src < k {
			t, _, err := runs.next(src)
			return t, err
		}
		if memPos == len(buf) {
			return nil, nil
		}
		memPos++
		return buf[memPos-1], nil
	}
	heads := make([]Tuple, k+1)
	for src := range heads {
		if heads[src], err = pull(src); err != nil {
			return err
		}
	}
	for {
		best := -1
		for src, h := range heads {
			if h != nil && (best == -1 || cmp.Compare(h, heads[best]) < 0) {
				best = src
			}
		}
		if best == -1 {
			return nil
		}
		if err := out.Write(heads[best]); err != nil {
			return err
		}
		if heads[best], err = pull(best); err != nil {
			return err
		}
	}
}
