package hyracks

import (
	"fmt"

	"asterix/internal/adm"
)

// AggSpec is a mergeable aggregate function, the one definition of a SQL++
// aggregate: the operators step it with column Col of each tuple, and Fold
// with each value of a list. Partial states are ADM values so overflowing
// group tables can spill partial aggregates to run files and re-merge them
// later (hybrid hash aggregation); Finish(Merge(a, b)) answers what one fold
// over both inputs answers.
type AggSpec struct {
	Name string
	// Col is the argument's column; COUNT(*)'s is -1, and it is stepped
	// with nil.
	Col int
	// Init returns the initial partial state.
	Init func() adm.Value
	// Step folds one argument value into the state.
	Step func(state, v adm.Value) (adm.Value, error)
	// Merge combines two partial states.
	Merge func(a, b adm.Value) adm.Value
	// Finish converts the state to the final value.
	Finish func(state adm.Value) (adm.Value, error)
}

// step folds tuple t's argument into state.
func (a *AggSpec) step(state adm.Value, t Tuple) (adm.Value, error) {
	if a.Col < 0 {
		return a.Step(state, nil)
	}
	return a.Step(state, t[a.Col])
}

// Fold applies spec to a list of argument values, as an operator does to
// one group's.
func Fold(spec AggSpec, values []adm.Value) (adm.Value, error) {
	s := spec.Init()
	for _, v := range values {
		var err error
		if s, err = spec.Step(s, v); err != nil {
			return nil, err
		}
	}
	return spec.Finish(s)
}

// NewGroupBy builds a memory-governed hash aggregation. Input is grouped
// on groupCols; output tuples are the group columns followed by one value
// per aggregate. An upstream hash-partition connector on the group columns
// makes the aggregation partition-parallel. Without group columns it is a
// global aggregation, to run on one partition: its one group is there over
// empty input too (COUNT(*) is 0).
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
			g = gt.insert(h, t, initStates(make([]adm.Value, len(aggs)), aggs))
			size += g.key.EstimateSizeShallow() + 64
		}
		for i := range aggs {
			var err error
			if g.states[i], err = aggs[i].step(g.states[i], t); err != nil {
				return err
			}
		}
		return growOrSpill(tc, size, spillTable)
	})
	if err != nil {
		return err
	}

	if len(groupCols) == 0 && len(gt.buckets) == 0 && partials.len() == 0 {
		_, h := gt.probe(nil)
		gt.insert(h, nil, initStates(make([]adm.Value, len(aggs)), aggs))
	}

	emit := func(gt *groupTable) error {
		for _, bucket := range gt.buckets {
			for _, g := range bucket {
				rec := make(Tuple, 0, len(g.key)+len(aggs))
				rec = append(rec, g.key...)
				for i, a := range aggs {
					v, err := a.Finish(g.states[i])
					if err != nil {
						return err
					}
					rec = append(rec, v)
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

// initStates sets states to the aggregates' initial states.
func initStates(states []adm.Value, aggs []AggSpec) []adm.Value {
	for i, a := range aggs {
		states[i] = a.Init()
	}
	return states
}

// --- The aggregates. ---

// Aggregates is the one definition of each SQL++ aggregate: the constructor
// of its spec over an argument column, by Name. sqlpp.Aggregates lists the
// same names.
var Aggregates = map[string]func(col int) AggSpec{}

func init() {
	for _, agg := range []func(col int) AggSpec{CountAgg, SumAgg, MinAgg, MaxAgg, AvgAgg, CollectAgg} {
		Aggregates[agg(0).Name] = agg
	}
}

// CountAgg counts tuples (COUNT(*), col < 0) or non-null/missing values of a
// column (COUNT(col)).
func CountAgg(col int) AggSpec {
	return AggSpec{
		Name: "count",
		Col:  col,
		Init: func() adm.Value { return adm.Int64(0) },
		Step: func(s, v adm.Value) (adm.Value, error) {
			if col >= 0 && v.Kind() <= adm.KindNull {
				return s, nil
			}
			return s.(adm.Int64) + 1, nil
		},
		Merge:  func(a, b adm.Value) adm.Value { return a.(adm.Int64) + b.(adm.Int64) },
		Finish: done,
	}
}

func done(s adm.Value) (adm.Value, error) { return s, nil }

// SumAgg sums a numeric column, null when it holds no number. Integers add
// as + does, wrapping on overflow; the sum is a double once any item is.
func SumAgg(col int) AggSpec {
	spec := AggSpec{
		Name:   "sum",
		Col:    col,
		Init:   func() adm.Value { return adm.Null },
		Merge:  func(a, b adm.Value) adm.Value { return addSums(a, b, false) },
		Finish: func(s adm.Value) (adm.Value, error) { return sumValue(s), nil },
	}
	spec.Step = numberStep(spec.Name, spec.Merge) // a number is itself a sum
	return spec
}

// AvgAgg averages a numeric column. Its partial state is [sum, count], the
// sum's integer part becoming a double where an add would overflow.
func AvgAgg(col int) AggSpec {
	spec := AggSpec{
		Name: "avg",
		Col:  col,
		Init: func() adm.Value { return adm.Array{adm.Null, adm.Int64(0)} },
		Merge: func(a, b adm.Value) adm.Value {
			as, bs := a.(adm.Array), b.(adm.Array)
			return adm.Array{addSums(as[0], bs[0], true), as[1].(adm.Int64) + bs[1].(adm.Int64)}
		},
		Finish: func(s adm.Value) (adm.Value, error) {
			st := s.(adm.Array)
			f, ok := adm.AsFloat(sumValue(st[0]))
			if !ok {
				return adm.Null, nil
			}
			return adm.Double(f / float64(st[1].(adm.Int64))), nil
		},
	}
	spec.Step = numberStep(spec.Name, func(s, v adm.Value) adm.Value {
		st := s.(adm.Array)
		return adm.Array{addSums(st[0], v, true), st[1].(adm.Int64) + 1}
	})
	return spec
}

// numberStep is the Step of SUM and AVG: null and missing are skipped, a
// number is added, and anything else fails the aggregate.
func numberStep(name string, add func(s, v adm.Value) adm.Value) func(s, v adm.Value) (adm.Value, error) {
	return func(s, v adm.Value) (adm.Value, error) {
		switch k := v.Kind(); {
		case k <= adm.KindNull:
			return s, nil
		case !k.IsNumeric():
			return nil, fmt.Errorf("%s over non-numeric %s", name, k)
		}
		return add(s, v), nil
	}
}

// A sum is null (no item yet), an int64 (integers only), a double (doubles,
// and integers summing to 0) or [int64, double]. Integers and doubles are
// summed apart, so the integer part, and where it wraps, does not depend on
// the order the items are added or merged in. A number is itself a sum.

// addSums adds two sums. widen (AVG) carries an integer sum that would
// overflow into the double part instead of wrapping.
func addSums(a, b adm.Value, widen bool) adm.Value {
	if b.Kind() == adm.KindNull {
		return a
	}
	if a.Kind() == adm.KindNull {
		return b
	}
	ai, ad := sumParts(a)
	bi, bd := sumParts(b)
	i := ai + bi
	if widen && (ai^i)&(bi^i) < 0 {
		ad, i = addDoubles(ad, adm.Double(float64(ai)+float64(bi))), 0
	}
	switch d := addDoubles(ad, bd); {
	case d.Kind() == adm.KindNull:
		return i
	case i == 0:
		return d
	default:
		return adm.Array{i, d}
	}
}

// sumParts splits a sum into its integer and double parts (null: none).
func sumParts(s adm.Value) (adm.Int64, adm.Value) {
	switch x := s.(type) {
	case adm.Int64:
		return x, adm.Null
	case adm.Double:
		return 0, x
	}
	st := s.(adm.Array)
	return st[0].(adm.Int64), st[1]
}

func addDoubles(a, b adm.Value) adm.Value {
	switch {
	case a.Kind() == adm.KindNull:
		return b
	case b.Kind() == adm.KindNull:
		return a
	}
	return a.(adm.Double) + b.(adm.Double)
}

// sumValue is the number a sum stands for.
func sumValue(s adm.Value) adm.Value {
	if st, ok := s.(adm.Array); ok {
		return adm.Double(st[0].(adm.Int64)) + st[1].(adm.Double)
	}
	return s
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
		Col:    col,
		Init:   func() adm.Value { return adm.Null },
		Step:   func(s, v adm.Value) (adm.Value, error) { return pick(s, v), nil },
		Merge:  pick,
		Finish: done,
	}
}

// CollectAgg gathers a column's values into an array (ARRAY_AGG / the
// nested results of GROUP AS).
func CollectAgg(col int) AggSpec {
	return AggSpec{
		Name: "array_agg",
		Col:  col,
		Init: func() adm.Value { return adm.Array{} },
		Step: func(s, v adm.Value) (adm.Value, error) {
			return append(s.(adm.Array), v), nil
		},
		Merge: func(a, b adm.Value) adm.Value {
			return append(append(adm.Array{}, a.(adm.Array)...), b.(adm.Array)...)
		},
		Finish: done,
	}
}
