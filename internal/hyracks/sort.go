package hyracks

import "slices"

// NewSort builds a memory-governed external sort: each partition
// accumulates tuples in its working-memory grant, growing it as the
// buffer fills; a denied Grow spills a sorted run, and runs are merged
// on output. With a single run everything stays in memory (the crossover
// E5 measures).
func NewSort(name string, parallelism int, cmp Comparator) *Operator {
	return NewTopK(name, parallelism, cmp, 0)
}

// NewTopK is NewSort bounded to the first k tuples of each partition's
// sorted output (k = 0: all of them). A bounded sort retains, charges and
// spills only tuples that can still be among those k, so ORDER BY … LIMIT
// costs memory for the limit, not for the input.
func NewTopK(name string, parallelism int, cmp Comparator, k int) *Operator {
	return &Operator{
		Name:        name,
		Parallelism: parallelism,
		Memory:      true,
		New: func(int) Runner {
			return RunnerFunc(func(tc *TaskContext, in []*Input, out []*Output) error {
				return runSort(tc, in[0], out[0], cmp, k)
			})
		},
	}
}

// runSort emits the input in cmp order, stably (equal tuples in arrival
// order); with limit > 0, only the first limit tuples of that order.
func runSort(tc *TaskContext, in *Input, out *Output, cmp Comparator, limit int) error {
	runs := newRunSet(tc, true)
	defer runs.close()
	var (
		buf     []Tuple
		bufSize int
		// kth, once set, is a tuple that limit earlier arrivals sort at or
		// before: a later arrival that does not sort strictly before it can
		// never be among the first limit, in this run or any other.
		kth Tuple
	)
	// sortBuf orders the buffer and, in a bounded sort, cuts it back to the
	// limit tuples that can still be output. The buffer holds tuples in
	// arrival order among equals (survivors of the last cut, then newer
	// arrivals), so the stable sort keeps the earliest.
	sortBuf := func() {
		slices.SortStableFunc(buf, cmp.Compare)
		if limit <= 0 || len(buf) < limit {
			return
		}
		clear(buf[limit:])
		buf, bufSize = buf[:limit], 0
		for _, t := range buf {
			bufSize += t.EstimateSize()
		}
		kth = buf[limit-1]
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
		if kth != nil && cmp.Compare(t, kth) >= 0 {
			return nil
		}
		buf = append(buf, t)
		bufSize += t.EstimateSize()
		// Cutting back at twice the limit keeps the cost of a retained
		// tuple at one amortized sort step (written without doubling the
		// limit, which may be near the integer maximum).
		if limit > 0 && len(buf)-limit >= limit {
			sortBuf()
		}
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
		if _, err := runs.open(p, false); err != nil {
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
	for emitted := 0; limit <= 0 || emitted < limit; emitted++ {
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
	return nil
}
