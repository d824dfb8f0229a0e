package hyracks

import (
	"asterix/internal/adm"
	"asterix/internal/mem"
)

// JoinKind selects inner or left-outer semantics.
type JoinKind int

// Join kinds.
const (
	InnerJoin JoinKind = iota
	LeftOuterJoin
	// LeftSemiJoin emits each left tuple at most once if any match exists
	// (used by the quantified-expression rewrite).
	LeftSemiJoin
)

// NewHashJoin builds an equi-join: port 0 is the left (probe/outer) input,
// port 1 the right (build/inner) input. Output tuples are left ++ right
// (for semi joins, just left). If the build side outgrows what the task's
// working-memory grant can be grown to cover, the operator degrades to a
// grace hash join: both sides are partitioned to spill files and joined
// partition-wise.
//
// residual, if non-nil, is an extra ON predicate checked on each
// key-matching pair — only pairs passing it count as matches (the join
// semantics needed for outer and semi joins whose conditions mix
// equalities with other predicates).
func NewHashJoin(name string, parallelism int, leftCols, rightCols []int, kind JoinKind, rightWidth int, residual func(l, r Tuple) (bool, error)) *Operator {
	return hashJoinOp(name, parallelism, leftCols, rightCols, kind, rightWidth, residual, nil)
}

// NewAggregatingHashJoin is an inner hash join that aggregates its matches (a
// groupjoin): every matching probe tuple steps the build row's partial
// states, one per aggregate (non-empty aggs, columns of the probe tuple),
// and each build row that matched is emitted once as row ++ states. Build,
// memory accounting and the grace path are NewHashJoin's.
func NewAggregatingHashJoin(name string, parallelism int, leftCols, rightCols []int, aggs []AggSpec, residual func(l, r Tuple) (bool, error)) *Operator {
	return hashJoinOp(name, parallelism, leftCols, rightCols, InnerJoin, 0, residual, aggs)
}

func hashJoinOp(name string, parallelism int, leftCols, rightCols []int, kind JoinKind, rightWidth int, residual func(l, r Tuple) (bool, error), aggs []AggSpec) *Operator {
	return &Operator{
		Name:        name,
		Parallelism: parallelism,
		Memory:      true,
		New: func(int) Runner {
			return RunnerFunc(func(tc *TaskContext, in []*Input, out []*Output) error {
				return runHashJoin(tc, in[0], in[1], out[0], leftCols, rightCols, kind, rightWidth, residual, aggs)
			})
		},
	}
}

// keysEqual compares join keys. Neither side ever holds a null or missing
// key here: the build drops such tuples and the probe answers them without
// a lookup (SQL join semantics: null/missing never match).
func keysEqual(a Tuple, aCols []int, b Tuple, bCols []int) bool {
	for i := range aCols {
		if adm.Compare(a[aCols[i]], b[bCols[i]]) != 0 {
			return false
		}
	}
	return true
}

func hasNullKey(t Tuple, cols []int) bool {
	for _, c := range cols {
		if t[c].Kind() <= adm.KindNull {
			return true
		}
	}
	return false
}

// joinProbe returns the routine that joins one left tuple against its
// candidate right tuples — the bucket of a hash table, or the whole build
// side of a nested-loop join — and emits what the join kind calls for:
// left ++ right per matching pair, the left tuple once for a semi join,
// left ++ MISSING padding for an unmatched left tuple of an outer join.
func joinProbe(out *Output, kind JoinKind, rightWidth int, match func(l, r Tuple) (bool, error)) func(l Tuple, cands []Tuple) error {
	return func(l Tuple, cands []Tuple) error {
		matched := false
		for _, r := range cands {
			ok, err := match(l, r)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			if kind == LeftSemiJoin {
				return out.Write(l)
			}
			matched = true
			combined := make(Tuple, 0, len(l)+len(r))
			combined = append(combined, l...)
			combined = append(combined, r...)
			if err := out.Write(combined); err != nil {
				return err
			}
		}
		if matched || kind != LeftOuterJoin {
			return nil
		}
		combined := make(Tuple, 0, len(l)+rightWidth)
		combined = append(combined, l...)
		for i := 0; i < rightWidth; i++ {
			combined = append(combined, adm.Missing)
		}
		return out.Write(combined)
	}
}

// aggregateProbe is joinProbe for the aggregating join: a match steps the
// partial states at the tail of the build entry, made on its first match.
func aggregateProbe(aggs []AggSpec, match func(l, r Tuple) (bool, error)) func(l Tuple, cands []Tuple) error {
	return func(l Tuple, cands []Tuple) error {
		for _, r := range cands {
			ok, err := match(l, r)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			states := r[len(r)-len(aggs):]
			if states[0] == nil {
				initStates(states, aggs)
			}
			for i := range aggs {
				var err error
				if states[i], err = aggs[i].step(states[i], l); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

func runHashJoin(tc *TaskContext, left, right *Input, out *Output, leftCols, rightCols []int, kind JoinKind, rightWidth int, residual func(l, r Tuple) (bool, error), aggs []AggSpec) error {
	const graceFanout = 16
	// Grace partitions of both sides. The build files are the spills the
	// counters report; the probe files follow from them.
	build, probe := newRunSet(tc, true), newRunSet(tc, false)
	defer build.close()
	defer probe.close()

	// A table entry is the build row, plus — for the aggregating join — one
	// slot per partial state, nil until the row's first match. The states
	// are charged with the row.
	entry, stateSize := func(t Tuple) Tuple { return t }, 0
	if len(aggs) > 0 {
		stateSize = 24 // the entry's own slice, as in EstimateSize
		for _, a := range aggs {
			stateSize += estimateValueSize(a.Init())
		}
		entry = func(t Tuple) Tuple { return append(t[:len(t):len(t)], make(Tuple, len(aggs))...) }
	}

	// Build phase: read the right side into a hash table; when the grant
	// cannot cover it, move the table to the build partitions and send the
	// rest of the input straight after it. A tuple with a null or missing key
	// never matches, and no join here keeps unmatched build rows: it is dropped.
	var (
		table     = map[uint64][]Tuple{}
		tableSize = 0
	)
	spillTable := func() error {
		for h, bucket := range table {
			for _, e := range bucket {
				if err := build.write(int(h%graceFanout), e[:len(e)-len(aggs)]); err != nil {
					return err
				}
			}
		}
		table, tableSize = nil, 0
		return nil
	}
	err := right.ForEach(func(t Tuple) error {
		if hasNullKey(t, rightCols) {
			return nil
		}
		h := HashColumns(t, rightCols)
		if build.len() > 0 {
			return build.write(int(h%graceFanout), t)
		}
		table[h] = append(table[h], entry(t))
		tableSize += t.EstimateSize() + stateSize
		return growOrSpill(tc, tableSize, spillTable)
	})
	if err != nil {
		return err
	}

	match := func(l, r Tuple) (bool, error) {
		if !keysEqual(l, leftCols, r, rightCols) {
			return false, nil
		}
		if residual == nil {
			return true, nil
		}
		return residual(l, r)
	}
	probeOne := joinProbe(out, kind, rightWidth, match)
	if len(aggs) > 0 {
		probeOne = aggregateProbe(aggs, match)
	}
	// probeTable joins l against its bucket (none for a null key: SQL join
	// semantics, null/missing never match).
	probeTable := func(table map[uint64][]Tuple, l Tuple) error {
		if hasNullKey(l, leftCols) {
			return probeOne(l, nil)
		}
		return probeOne(l, table[HashColumns(l, leftCols)])
	}
	// emitMatched ends a probe pass of the aggregating join.
	emitMatched := func(table map[uint64][]Tuple) error {
		if len(aggs) == 0 {
			return nil
		}
		for _, bucket := range table {
			for _, e := range bucket {
				if e[len(e)-len(aggs)] == nil {
					continue
				}
				if err := out.Write(e); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if build.len() == 0 {
		if err := left.ForEach(func(l Tuple) error { return probeTable(table, l) }); err != nil {
			return err
		}
		return emitMatched(table)
	}

	// Grace: partition the probe side the same way, then join each
	// partition pair in memory. A probe tuple with a null key is answered at
	// once, as it would be against any partition.
	err = left.ForEach(func(l Tuple) error {
		if hasNullKey(l, leftCols) {
			return probeOne(l, nil)
		}
		return probe.write(int(HashColumns(l, leftCols)%graceFanout), l)
	})
	if err != nil {
		return err
	}
	// Inner and outer probes copy the probe tuple into every emitted row,
	// and the aggregating probe keeps only values of it, so one read-back
	// container serves them all. A semi join writes the probe tuple itself
	// downstream and must read fresh ones.
	reuseProbe := kind != LeftSemiJoin
	for p := 0; p < graceFanout; p++ {
		part := map[uint64][]Tuple{}
		err := build.each(p, false, func(r Tuple) error {
			h := HashColumns(r, rightCols)
			part[h] = append(part[h], entry(r))
			return nil
		})
		if err != nil {
			return err
		}
		err = probe.each(p, reuseProbe, func(l Tuple) error { return probeTable(part, l) })
		if err != nil {
			return err
		}
		if err := emitMatched(part); err != nil {
			return err
		}
	}
	return nil
}

// NewNestedLoopJoin joins with an arbitrary predicate: port 0 left
// (streamed), port 1 right (materialized in memory). Used for non-equi
// join conditions; the optimizer prefers hash joins when it can. The
// materialized side has no spill path, so its footprint is accounted
// against the task grant best-effort: Grow denials are tolerated (the
// governor's grow-denied counter still records the overrun).
func NewNestedLoopJoin(name string, parallelism int, pred func(l, r Tuple) (bool, error), kind JoinKind, rightWidth int) *Operator {
	return &Operator{
		Name:        name,
		Parallelism: parallelism,
		Memory:      true,
		New: func(int) Runner {
			return RunnerFunc(func(tc *TaskContext, in []*Input, out []*Output) error {
				var build []Tuple
				buildSize := 0
				growOK := true
				if err := in[1].ForEach(func(t Tuple) error {
					build = append(build, t)
					buildSize += t.EstimateSize()
					for growOK && buildSize > tc.Mem.Granted() {
						growOK = tc.Mem.Grow(mem.GrowChunk)
					}
					return nil
				}); err != nil {
					return err
				}
				probeOne := joinProbe(out[0], kind, rightWidth, pred)
				return in[0].ForEach(func(l Tuple) error { return probeOne(l, build) })
			})
		},
	}
}
