package hyracks

import (
	"fmt"

	"asterix/internal/adm"
)

// AggSpec is a mergeable aggregate function over tuples. Partial states
// are ADM values so overflowing group tables can spill partial aggregates
// to run files and re-merge them later (hybrid hash aggregation).
type AggSpec struct {
	Name string
	// Init returns the initial partial state.
	Init func() adm.Value
	// Step folds one input tuple into the state.
	Step func(state adm.Value, t Tuple) adm.Value
	// Merge combines two partial states.
	Merge func(a, b adm.Value) adm.Value
	// Finish converts the state to the final value.
	Finish func(state adm.Value) adm.Value
}

// NewGroupBy builds a memory-governed hash aggregation. Input is grouped
// on groupCols; output tuples are the group columns followed by one value
// per aggregate. An upstream hash-partition connector on the group columns
// makes the aggregation partition-parallel.
func NewGroupBy(name string, parallelism int, groupCols []int, aggs []AggSpec) *Operator {
	return &Operator{
		Name:        name,
		Parallelism: parallelism,
		Memory:      true,
		New: func(int) Runner {
			return RunnerFunc(func(tc *TaskContext, in []*Input, out []*Output) error {
				return runGroupBy(tc, in[0], out[0], groupCols, aggs)
			})
		},
	}
}

type group struct {
	key    Tuple // group column values
	states []adm.Value
}

// groupTable is the hash table of a hash aggregation. Its probe path
// runs once per input tuple, so it works out of preallocated scratch —
// an identity column list for hashing extracted keys and a reusable key
// buffer — and must never allocate (TestKernelAllocations holds it to 0).
type groupTable struct {
	groupCols []int
	idCols    []int // 0..len(groupCols)-1: the extracted key's own columns
	buckets   map[uint64][]*group
	scratch   Tuple
}

func newGroupTable(groupCols []int) *groupTable {
	idCols := make([]int, len(groupCols))
	for i := range idCols {
		idCols[i] = i
	}
	return &groupTable{
		groupCols: groupCols,
		idCols:    idCols,
		buckets:   map[uint64][]*group{},
		scratch:   make(Tuple, len(groupCols)),
	}
}

// key extracts t's group columns into the scratch buffer; the result is
// valid only until the next key or probe call, and must be Cloned to be
// retained.
func (gt *groupTable) key(t Tuple) Tuple {
	for i, c := range gt.groupCols {
		gt.scratch[i] = t[c]
	}
	return gt.scratch
}

func (gt *groupTable) hash(k Tuple) uint64 { return HashColumns(k, gt.idCols) }

// probe finds the group holding t's key. The group is nil for an unseen
// key; the returned hash addresses the bucket an insert must go to.
func (gt *groupTable) probe(t Tuple) (*group, uint64) {
	k := gt.key(t)
	h := gt.hash(k)
	for _, cand := range gt.buckets[h] {
		if groupKeyEq(cand.key, k) {
			return cand, h
		}
	}
	return nil, h
}

// insert adds a group for t's key under bucket h. The scratch key is
// cloned here — the one allocation of the insert path, paid per distinct
// group rather than per tuple.
func (gt *groupTable) insert(h uint64, t Tuple, states []adm.Value) *group {
	g := &group{key: gt.key(t).Clone(), states: states}
	gt.buckets[h] = append(gt.buckets[h], g)
	return g
}

func (gt *groupTable) reset() { gt.buckets = map[uint64][]*group{} }

func groupKeyEq(a, b Tuple) bool {
	for i := range a {
		if adm.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

func runGroupBy(tc *TaskContext, in *Input, out *Output, groupCols []int, aggs []AggSpec) error {
	const spillFanout = 8
	partials := newRunSet(tc, true)
	defer partials.close()
	gt := newGroupTable(groupCols)
	size := 0
	// spillTable moves every group to the partition of its key hash as a
	// partial-aggregate record, key ++ states, and empties the table. One
	// record container serves every group: write encodes it before returning.
	var rec Tuple
	spillTable := func() error {
		for _, bucket := range gt.buckets {
			for _, g := range bucket {
				rec = append(append(rec[:0], g.key...), g.states...)
				if err := partials.write(int(gt.hash(g.key)%spillFanout), rec); err != nil {
					return err
				}
			}
		}
		gt.reset()
		size = 0
		return nil
	}

	err := in.ForEach(func(t Tuple) error {
		g, h := gt.probe(t)
		if g == nil {
			// The key is cloned by insert, so its *adm.Object columns are
			// shared with the source tuple: account them shallowly.
			states := make([]adm.Value, len(aggs))
			for i, a := range aggs {
				states[i] = a.Init()
			}
			g = gt.insert(h, t, states)
			size += g.key.EstimateSizeShallow() + 64
		}
		for i, a := range aggs {
			g.states[i] = a.Step(g.states[i], t)
		}
		return growOrSpill(tc, size, spillTable)
	})
	if err != nil {
		return err
	}

	emit := func(gt *groupTable) error {
		for _, bucket := range gt.buckets {
			for _, g := range bucket {
				rec := make(Tuple, 0, len(g.key)+len(aggs))
				rec = append(rec, g.key...)
				for i, a := range aggs {
					rec = append(rec, a.Finish(g.states[i]))
				}
				if err := out.Write(rec); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if partials.len() == 0 {
		return emit(gt)
	}

	// Spill the residual table too, then merge the partials one partition
	// at a time. Spilled records carry the key already extracted up front,
	// so the merge table's group columns are the identity list. Read-back
	// records share one container: insert clones the key and the states are
	// copied (or their values retained, which reuse permits).
	if err := spillTable(); err != nil {
		return err
	}
	for p := 0; p < partials.len(); p++ {
		mt := newGroupTable(gt.idCols)
		err := partials.each(p, true, func(rec Tuple) error {
			if len(rec) != len(groupCols)+len(aggs) {
				return fmt.Errorf("groupby: corrupt partial record")
			}
			k, states := rec[:len(groupCols)], rec[len(groupCols):]
			g, h := mt.probe(k)
			if g == nil {
				mt.insert(h, k, append([]adm.Value(nil), states...))
				return nil
			}
			for i, a := range aggs {
				g.states[i] = a.Merge(g.states[i], states[i])
			}
			return nil
		})
		if err != nil {
			return err
		}
		if err := emit(mt); err != nil {
			return err
		}
	}
	return nil
}

// --- Standard aggregate specs. ---

// CountAgg counts tuples (COUNT(*)) or non-null/missing values of a
// column (COUNT(col), col >= 0).
func CountAgg(col int) AggSpec {
	return AggSpec{
		Name: "count",
		Init: func() adm.Value { return adm.Int64(0) },
		Step: func(s adm.Value, t Tuple) adm.Value {
			if col >= 0 && t[col].Kind() <= adm.KindNull {
				return s
			}
			return s.(adm.Int64) + 1
		},
		Merge:  func(a, b adm.Value) adm.Value { return a.(adm.Int64) + b.(adm.Int64) },
		Finish: func(s adm.Value) adm.Value { return s },
	}
}

// SumAgg sums a numeric column (null result when no numeric input seen).
func SumAgg(col int) AggSpec {
	return AggSpec{
		Name: "sum",
		Init: func() adm.Value { return adm.Null },
		Step: func(s adm.Value, t Tuple) adm.Value {
			return numericAdd(s, t[col])
		},
		Merge:  numericAdd,
		Finish: func(s adm.Value) adm.Value { return s },
	}
}

func numericAdd(a, b adm.Value) adm.Value {
	if b.Kind() <= adm.KindNull {
		return a
	}
	if a.Kind() <= adm.KindNull {
		return b
	}
	if ai, ok := a.(adm.Int64); ok {
		if bi, ok := b.(adm.Int64); ok {
			return ai + bi
		}
	}
	af, _ := adm.AsFloat(a)
	bf, _ := adm.AsFloat(b)
	return adm.Double(af + bf)
}

// MinAgg / MaxAgg track extremes of a column.
func MinAgg(col int) AggSpec { return extremeAgg("min", col, -1) }

// MaxAgg tracks the maximum of a column.
func MaxAgg(col int) AggSpec { return extremeAgg("max", col, 1) }

func extremeAgg(name string, col int, sign int) AggSpec {
	pick := func(a, b adm.Value) adm.Value {
		if b.Kind() <= adm.KindNull {
			return a
		}
		if a.Kind() <= adm.KindNull {
			return b
		}
		if adm.Compare(b, a)*sign > 0 {
			return b
		}
		return a
	}
	return AggSpec{
		Name:   name,
		Init:   func() adm.Value { return adm.Null },
		Step:   func(s adm.Value, t Tuple) adm.Value { return pick(s, t[col]) },
		Merge:  pick,
		Finish: func(s adm.Value) adm.Value { return s },
	}
}

// AvgAgg averages a numeric column; its partial state is [sum, count].
func AvgAgg(col int) AggSpec {
	return AggSpec{
		Name: "avg",
		Init: func() adm.Value { return adm.Array{adm.Null, adm.Int64(0)} },
		Step: func(s adm.Value, t Tuple) adm.Value {
			st := s.(adm.Array)
			v := t[col]
			if v.Kind() <= adm.KindNull {
				return st
			}
			return adm.Array{numericAdd(st[0], v), st[1].(adm.Int64) + 1}
		},
		Merge: func(a, b adm.Value) adm.Value {
			as, bs := a.(adm.Array), b.(adm.Array)
			return adm.Array{numericAdd(as[0], bs[0]), as[1].(adm.Int64) + bs[1].(adm.Int64)}
		},
		Finish: func(s adm.Value) adm.Value {
			st := s.(adm.Array)
			n := int64(st[1].(adm.Int64))
			if n == 0 || st[0].Kind() <= adm.KindNull {
				return adm.Null
			}
			f, _ := adm.AsFloat(st[0])
			return adm.Double(f / float64(n))
		},
	}
}

// CollectAgg gathers a column's values into an array (ARRAY_AGG / the
// nested results of GROUP AS).
func CollectAgg(col int) AggSpec {
	return AggSpec{
		Name: "collect",
		Init: func() adm.Value { return adm.Array{} },
		Step: func(s adm.Value, t Tuple) adm.Value {
			return append(s.(adm.Array), t[col])
		},
		Merge: func(a, b adm.Value) adm.Value {
			return append(append(adm.Array{}, a.(adm.Array)...), b.(adm.Array)...)
		},
		Finish: func(s adm.Value) adm.Value { return s },
	}
}

// NewDistinct removes duplicate tuples (a group-by on all columns with no
// aggregates).
func NewDistinct(name string, parallelism int, width int) *Operator {
	cols := make([]int, width)
	for i := range cols {
		cols[i] = i
	}
	return NewGroupBy(name, parallelism, cols, nil)
}
