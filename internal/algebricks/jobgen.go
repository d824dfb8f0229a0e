package algebricks

import (
	"fmt"

	"asterix/internal/adm"
	"asterix/internal/hyracks"
	"asterix/internal/sqlpp"
)

// JobGen lowers an optimized logical plan to a Hyracks job.
type JobGen struct {
	Cluster *hyracks.Cluster
	Catalog Catalog
	Ev      *Evaluator
	// Parallelism for compute operators (joins, group-bys); scans use
	// the dataset's partition count.
	Parallelism int
}

// built tracks a lowered subplan: its last operator and the layout of the
// tuples that operator emits.
type built struct {
	op     *hyracks.Operator
	schema schema
	par    int
	// ordered is non-nil when the stream is globally ordered (single
	// partition) by this comparator.
	ordered *hyracks.Comparator
}

// Build lowers plan into a job whose results land in coll as single-value
// tuples (the $result column).
func (g *JobGen) Build(plan Op, coll *hyracks.Collector) (*hyracks.Job, error) {
	if g.Parallelism < 1 {
		g.Parallelism = len(g.Cluster.Nodes)
	}
	j := hyracks.NewJob()
	b, err := g.buildOp(j, plan)
	if err != nil {
		return nil, err
	}
	// Project down to the result column.
	col := b.schema.indexOf(ResultVar)
	if col < 0 {
		return nil, fmt.Errorf("jobgen: plan produces no %s column", ResultVar)
	}
	proj := j.Add(hyracks.NewMap("project-result", b.par, func(tc *hyracks.TaskContext, t hyracks.Tuple, emit func(hyracks.Tuple) error) error {
		return emit(hyracks.Tuple{t[col]})
	}))
	j.MustConnect(b.op, proj, 0, hyracks.OneToOne())
	sinkPar := b.par
	conn := hyracks.OneToOne()
	if b.ordered != nil || b.par == 1 {
		sinkPar = 1
	} else {
		sinkPar = 1
		conn = hyracks.MergeUnordered()
	}
	sink := j.Add(hyracks.NewSink("sink", sinkPar, coll))
	j.MustConnect(proj, sink, 0, conn)
	return j, nil
}

func indexOf(schema []string, name string) int {
	for i, s := range schema {
		if s == name {
			return i
		}
	}
	return -1
}

func (g *JobGen) buildOp(j *hyracks.Job, plan Op) (built, error) {
	switch o := plan.(type) {
	case *EtsOp:
		op := j.Add(hyracks.NewScan("ets", 1, func(tc *hyracks.TaskContext, emit func(hyracks.Tuple) error) error {
			return emit(hyracks.Tuple{})
		}))
		return built{op: op, par: 1}, nil

	case *ScanOp:
		ds, ok := g.Catalog.Resolve(o.Dataset)
		if !ok {
			return built{}, fmt.Errorf("jobgen: unknown dataset %q", o.Dataset)
		}
		par := ds.Partitions()
		lf := g.Ev.newLeaf(o.Var, o.Fields, o.Filter, o.MaxTuples)
		op := j.Add(hyracks.NewScan("scan-"+o.Dataset, par, func(tc *hyracks.TaskContext, emit func(hyracks.Tuple) error) error {
			return lf.run(tc, emit, func(visit func(Record) error) error { return ds.Scan(tc.Partition, visit) })
		}))
		return built{op: op, schema: lf.out, par: par}, nil

	case *IndexSearchOp:
		idx, ok := g.Catalog.ResolveIndex(o.Dataset, o.Field)
		if !ok {
			return built{}, fmt.Errorf("jobgen: no index on %s.%s", o.Dataset, o.Field)
		}
		ds, ok := g.Catalog.Resolve(o.Dataset)
		if !ok {
			return built{}, fmt.Errorf("jobgen: unknown dataset %q", o.Dataset)
		}
		par := ds.Partitions()
		// Evaluate the constant search arguments now.
		env := NewEnv(nil, nil, nil)
		var lo, hi adm.Value
		var rect adm.Rectangle
		var token string
		var err error
		if o.Lo != nil {
			if lo, err = g.Ev.Eval(o.Lo, env); err != nil {
				return built{}, err
			}
		}
		if o.Hi != nil {
			if hi, err = g.Ev.Eval(o.Hi, env); err != nil {
				return built{}, err
			}
		}
		if o.Rect != nil {
			rv, err := g.Ev.Eval(o.Rect, env)
			if err != nil {
				return built{}, err
			}
			switch r := rv.(type) {
			case adm.Rectangle:
				rect = r
			case adm.Point:
				rect = adm.Rectangle{MinX: r.X, MinY: r.Y, MaxX: r.X, MaxY: r.Y}
			default:
				return built{}, fmt.Errorf("jobgen: rtree search requires a rectangle")
			}
		}
		if o.Token != nil {
			tv, err := g.Ev.Eval(o.Token, env)
			if err != nil {
				return built{}, err
			}
			s, ok := tv.(adm.String)
			if !ok {
				return built{}, fmt.Errorf("jobgen: keyword search requires a string")
			}
			token = string(s)
		}
		// An equality search the index can pin to one partition runs
		// there alone: the leaf, and everything pipelined above it, has
		// parallelism 1.
		owner := -1
		if lo != nil && hi != nil && o.LoInc && o.HiInc && adm.Equal(lo, hi) {
			if p, ok := idx.OwnerPartition(lo); ok {
				owner, par = p, 1
			}
		}
		kind := o.Kind
		lf := g.Ev.newLeaf(o.Var, o.Fields, o.Filter, o.MaxTuples)
		op := j.Add(hyracks.NewScan("idx-"+o.Dataset+"."+o.Field, par, func(tc *hyracks.TaskContext, emit func(hyracks.Tuple) error) error {
			part := tc.Partition
			if owner >= 0 {
				part = owner
			}
			return lf.run(tc, emit, func(visit func(Record) error) error {
				switch kind {
				case "PRIMARY", "BTREE":
					return idx.SearchRange(part, lo, hi, o.LoInc, o.HiInc, visit)
				case "RTREE", "ZORDER", "HILBERT", "GRID":
					return idx.SearchSpatial(part, rect, visit)
				case "KEYWORD":
					return idx.SearchKeyword(part, token, visit)
				}
				return fmt.Errorf("jobgen: unknown index kind %s", kind)
			})
		}))
		return built{op: op, schema: lf.out, par: par}, nil

	case *SelectOp:
		in, err := g.buildOp(j, o.In)
		if err != nil {
			return built{}, err
		}
		cond := g.Ev.compilePred(o.Cond, in.schema, schema{})
		op := j.Add(hyracks.NewMap("select", in.par, func(tc *hyracks.TaskContext, t hyracks.Tuple, emit func(hyracks.Tuple) error) error {
			ok, err := cond(t, nil)
			if err != nil {
				return err
			}
			if ok {
				return emit(t)
			}
			return nil
		}))
		j.MustConnect(in.op, op, 0, hyracks.OneToOne())
		return built{op: op, schema: in.schema, par: in.par, ordered: in.ordered}, nil

	case *AssignOp:
		in, err := g.buildOp(j, o.In)
		if err != nil {
			return built{}, err
		}
		// v.f of a leaf that emits its fields is there already: the assign
		// names the column, no operator copies it.
		if fa, ok := o.Expr.(*sqlpp.FieldAccess); ok {
			if v, ok := fa.Base.(*sqlpp.VarRef); ok {
				if col, ok := in.schema.find(v.Name, fa.Field, true); ok && col.field {
					in.schema = in.schema.bind(o.Var, col.idx)
					return in, nil
				}
			}
		}
		expr := g.Ev.compile(o.Expr, in.schema)
		op := j.Add(hyracks.NewMap("assign-"+o.Var, in.par, func(tc *hyracks.TaskContext, t hyracks.Tuple, emit func(hyracks.Tuple) error) error {
			v, err := expr(t, nil)
			if err != nil {
				return err
			}
			out := make(hyracks.Tuple, 0, len(t)+1)
			out = append(out, t...)
			out = append(out, v)
			return emit(out)
		}))
		j.MustConnect(in.op, op, 0, hyracks.OneToOne())
		return built{op: op, schema: in.schema.bind(o.Var, in.schema.width), par: in.par, ordered: in.ordered}, nil

	case *UnnestOp:
		in, err := g.buildOp(j, o.In)
		if err != nil {
			return built{}, err
		}
		expr := g.Ev.compile(o.Expr, in.schema)
		op := j.Add(hyracks.NewMap("unnest-"+o.Var, in.par, func(tc *hyracks.TaskContext, t hyracks.Tuple, emit func(hyracks.Tuple) error) error {
			v, err := expr(t, nil)
			if err != nil {
				return err
			}
			elems, _ := asCollection(v)
			for _, el := range elems {
				out := make(hyracks.Tuple, 0, len(t)+1)
				out = append(out, t...)
				out = append(out, el)
				if err := emit(out); err != nil {
					return err
				}
			}
			return nil
		}))
		j.MustConnect(in.op, op, 0, hyracks.OneToOne())
		return built{op: op, schema: in.schema.bind(o.Var, in.schema.width), par: in.par}, nil

	case *ProjectOp:
		in, err := g.buildOp(j, o.In)
		if err != nil {
			return built{}, err
		}
		// A variable of which no field is read has no column to keep.
		out, cols := in.schema.project(o.Cols)
		if cols == nil { // the input is laid out as asked: only names go
			in.schema = out
			return in, nil
		}
		op := j.Add(hyracks.NewMap("project", in.par, func(tc *hyracks.TaskContext, t hyracks.Tuple, emit func(hyracks.Tuple) error) error {
			out := make(hyracks.Tuple, len(cols))
			for i, ci := range cols {
				out[i] = t[ci]
			}
			return emit(out)
		}))
		j.MustConnect(in.op, op, 0, hyracks.OneToOne())
		return built{op: op, schema: out, par: in.par, ordered: in.ordered}, nil

	case *JoinOp:
		return g.buildJoin(j, o)

	case *GroupOp:
		return g.buildGroup(j, o)

	case *ResultOp:
		in, err := g.buildOp(j, o.In)
		if err != nil {
			return built{}, err
		}
		expr := g.Ev.compile(o.Expr, in.schema)
		op := j.Add(hyracks.NewMap("result", in.par, func(tc *hyracks.TaskContext, t hyracks.Tuple, emit func(hyracks.Tuple) error) error {
			v, err := expr(t, nil)
			if err != nil {
				return err
			}
			out := make(hyracks.Tuple, 0, len(t)+1)
			out = append(out, t...)
			out = append(out, v)
			return emit(out)
		}))
		j.MustConnect(in.op, op, 0, hyracks.OneToOne())
		return built{op: op, schema: in.schema.bind(ResultVar, in.schema.width), par: in.par, ordered: in.ordered}, nil

	case *DistinctOp:
		in, err := g.buildOp(j, o.In)
		if err != nil {
			return built{}, err
		}
		col := in.schema.indexOf(ResultVar)
		if col < 0 {
			return built{}, fmt.Errorf("jobgen: distinct without result column")
		}
		par := g.Parallelism
		proj := j.Add(hyracks.NewMap("distinct-project", in.par, func(tc *hyracks.TaskContext, t hyracks.Tuple, emit func(hyracks.Tuple) error) error {
			return emit(hyracks.Tuple{t[col]})
		}))
		j.MustConnect(in.op, proj, 0, hyracks.OneToOne())
		d := j.Add(hyracks.NewGroupBy("distinct", par, []int{0}, nil))
		j.MustConnect(proj, d, 0, hyracks.HashPartition(0))
		return built{op: d, schema: schemaOf(ResultVar), par: par}, nil

	case *OrderOp:
		in, err := g.buildOp(j, o.In)
		if err != nil {
			return built{}, err
		}
		width := in.schema.width
		// Append sort-key columns.
		items := o.Items
		keys := make([]valueFn, len(items))
		for i, it := range items {
			keys[i] = g.Ev.compile(it.Expr, in.schema)
		}
		keyed := j.Add(hyracks.NewMap("order-keys", in.par, func(tc *hyracks.TaskContext, t hyracks.Tuple, emit func(hyracks.Tuple) error) error {
			out := make(hyracks.Tuple, 0, len(t)+len(keys))
			out = append(out, t...)
			for _, key := range keys {
				v, err := key(t, nil)
				if err != nil {
					return err
				}
				out = append(out, v)
			}
			return emit(out)
		}))
		j.MustConnect(in.op, keyed, 0, hyracks.OneToOne())
		cmp := hyracks.Comparator{}
		for i, it := range items {
			cmp.Columns = append(cmp.Columns, width+i)
			cmp.Desc = append(cmp.Desc, it.Desc)
		}
		sorter := j.Add(hyracks.NewTopK("order", in.par, cmp, int(o.Limit)))
		j.MustConnect(keyed, sorter, 0, hyracks.OneToOne())
		// Concentrate to a single ordered stream and drop key columns.
		strip := j.Add(hyracks.NewMap("order-strip", 1, func(tc *hyracks.TaskContext, t hyracks.Tuple, emit func(hyracks.Tuple) error) error {
			return emit(t[:width])
		}))
		j.MustConnect(sorter, strip, 0, hyracks.MergeOrdered(cmp))
		return built{op: strip, schema: in.schema, par: 1, ordered: &cmp}, nil

	case *UnionAllOp:
		union := j.Add(hyracks.NewUnionAll("union-all", 1, len(o.Ins)))
		for port, inPlan := range o.Ins {
			in, err := g.buildOp(j, inPlan)
			if err != nil {
				return built{}, err
			}
			col := in.schema.indexOf(ResultVar)
			if col < 0 {
				return built{}, fmt.Errorf("jobgen: union branch lacks %s", ResultVar)
			}
			proj := j.Add(hyracks.NewMap("union-project", in.par, func(tc *hyracks.TaskContext, t hyracks.Tuple, emit func(hyracks.Tuple) error) error {
				return emit(hyracks.Tuple{t[col]})
			}))
			j.MustConnect(in.op, proj, 0, hyracks.OneToOne())
			j.MustConnect(proj, union, port, hyracks.MergeUnordered())
		}
		return built{op: union, schema: schemaOf(ResultVar), par: 1}, nil

	case *LimitOp:
		in, err := g.buildOp(j, o.In)
		if err != nil {
			return built{}, err
		}
		limit := o.Limit
		offset := o.Offset
		if limit < 0 {
			limit = 1<<62 - 1
		}
		// Limit runs single-partition (after a merge when parallel).
		var upstream built = in
		if in.par > 1 {
			pass := j.Add(hyracks.NewMap("limit-merge", 1, func(tc *hyracks.TaskContext, t hyracks.Tuple, emit func(hyracks.Tuple) error) error {
				return emit(t)
			}))
			j.MustConnect(in.op, pass, 0, hyracks.MergeUnordered())
			upstream = built{op: pass, schema: in.schema, par: 1}
		}
		var seen int64
		op := j.Add(hyracks.NewMap("limit", 1, func(tc *hyracks.TaskContext, t hyracks.Tuple, emit func(hyracks.Tuple) error) error {
			seen++
			if seen <= offset || seen-offset > limit { // offset+limit may overflow
				return nil
			}
			return emit(t)
		}))
		j.MustConnect(upstream.op, op, 0, hyracks.OneToOne())
		return built{op: op, schema: in.schema, par: 1, ordered: in.ordered}, nil
	}
	return built{}, fmt.Errorf("jobgen: unsupported operator %T", plan)
}

func (g *JobGen) buildJoin(j *hyracks.Job, o *JoinOp) (built, error) {
	l, err := g.buildOp(j, o.L)
	if err != nil {
		return built{}, err
	}
	r, err := g.buildOp(j, o.R)
	if err != nil {
		return built{}, err
	}
	par := g.Parallelism

	if len(o.LeftKeys) > 0 {
		// Hash join on key columns.
		var lCols, rCols []int
		for i := range o.LeftKeys {
			lc := l.schema.indexOf(o.LeftKeys[i])
			rc := r.schema.indexOf(o.RightKeys[i])
			if lc < 0 || rc < 0 {
				return built{}, fmt.Errorf("jobgen: join key columns missing")
			}
			lCols = append(lCols, lc)
			rCols = append(rCols, rc)
		}
		kind := hyracks.InnerJoin
		switch o.Kind {
		case JoinLeftOuter:
			kind = hyracks.LeftOuterJoin
		case JoinSemi:
			kind = hyracks.LeftSemiJoin
		}
		// Residual ON conjuncts are checked per key-matching pair inside
		// the join, preserving outer/semi match semantics.
		var residual func(lt, rt hyracks.Tuple) (bool, error)
		if o.On != nil {
			residual = g.Ev.compilePred(o.On, l.schema, r.schema)
		}
		join := hyracks.NewHashJoin("hash-join", par, lCols, rCols, kind, r.schema.width, residual)
		if o.Aggs != nil {
			// The rule made every argument a probe-side column.
			specs := make([]hyracks.AggSpec, len(o.Aggs))
			for i, a := range o.Aggs {
				col := -1
				if !a.Star {
					if col = l.schema.indexOf(a.Arg.(*sqlpp.VarRef).Name); col < 0 {
						return built{}, fmt.Errorf("jobgen: aggregate column missing")
					}
				}
				if specs[i], err = aggSpecFor(a, col); err != nil {
					return built{}, err
				}
			}
			join = hyracks.NewAggregatingHashJoin("hash-join", par, lCols, rCols, specs, residual)
		}
		j.Add(join)
		j.MustConnect(l.op, join, 0, hyracks.HashPartition(lCols...))
		j.MustConnect(r.op, join, 1, hyracks.HashPartition(rCols...))
		return built{op: join, schema: joinOutSchema(o, l.schema, r.schema), par: par}, nil
	}

	// Nested-loop join (cross product or non-equi condition).
	kind := hyracks.InnerJoin
	switch o.Kind {
	case JoinLeftOuter:
		kind = hyracks.LeftOuterJoin
	case JoinSemi:
		kind = hyracks.LeftSemiJoin
	}
	pred := func(lt, rt hyracks.Tuple) (bool, error) { return true, nil }
	if o.On != nil {
		pred = g.Ev.compilePred(o.On, l.schema, r.schema)
	}
	join := j.Add(hyracks.NewNestedLoopJoin("nl-join", l.par, pred, kind, r.schema.width))
	j.MustConnect(l.op, join, 0, hyracks.OneToOne())
	j.MustConnect(r.op, join, 1, hyracks.Broadcast())
	return built{op: join, schema: joinOutSchema(o, l.schema, r.schema), par: l.par}, nil
}

func joinOutSchema(o *JoinOp, l, r schema) schema {
	switch {
	case o.Kind == JoinSemi:
		return l
	case o.Aggs != nil: // the build row, then one partial per aggregate
		for _, a := range o.Aggs {
			r = r.bind(a.Var, r.width)
		}
		return r
	}
	return l.concat(r)
}

func (g *JobGen) buildGroup(j *hyracks.Job, o *GroupOp) (built, error) {
	in, err := g.buildOp(j, o.In)
	if err != nil {
		return built{}, err
	}
	nKeys := len(o.Keys)
	nAggs := len(o.Aggs)
	hasGroupAs := o.GroupAs != ""
	rowVars := o.RowVars
	// RowVars was captured at translate time; optimizer rules (join
	// reordering, projection pruning) may have changed the input column
	// order since, so resolve positions by name.
	rowCols := make([]int, len(rowVars))
	for i, name := range rowVars {
		rowCols[i] = in.schema.indexOf(name)
	}

	// Pre-compute one column per key, one per aggregate argument
	// (COUNT(*) counts a constant), and the GROUP AS object column.
	cols := make([]valueFn, 0, nKeys+nAggs)
	for _, k := range o.Keys {
		cols = append(cols, g.Ev.compile(k.Expr, in.schema))
	}
	for _, a := range o.Aggs {
		if a.Star {
			cols = append(cols, code{lit: adm.Int64(1)}.run())
			continue
		}
		cols = append(cols, g.Ev.compile(a.Arg, in.schema))
	}
	prep := j.Add(hyracks.NewMap("group-prep", in.par, func(tc *hyracks.TaskContext, t hyracks.Tuple, emit func(hyracks.Tuple) error) error {
		out := make(hyracks.Tuple, 0, nKeys+nAggs+1)
		for _, col := range cols {
			v, err := col(t, nil)
			if err != nil {
				return err
			}
			out = append(out, v)
		}
		if hasGroupAs {
			obj := adm.NewObject()
			for i, name := range rowVars {
				if ci := rowCols[i]; ci >= 0 && ci < len(t) {
					obj.Set(userName(name), t[ci])
				}
			}
			out = append(out, obj)
		}
		return emit(out)
	}))
	j.MustConnect(in.op, prep, 0, hyracks.OneToOne())

	groupCols := make([]int, nKeys)
	for i := range groupCols {
		groupCols[i] = i
	}
	var specs []hyracks.AggSpec
	for i, a := range o.Aggs {
		col := nKeys + i
		spec, err := aggSpecFor(a, col)
		if err != nil {
			return built{}, err
		}
		if o.Merge { // the column holds a partial state
			merge := spec.Merge
			spec.Step = func(s, v adm.Value) (adm.Value, error) { return merge(s, v), nil }
		}
		specs = append(specs, spec)
	}
	if hasGroupAs {
		specs = append(specs, hyracks.CollectAgg(nKeys+nAggs))
	}

	par, conn := g.Parallelism, hyracks.HashPartition(groupCols...)
	if nKeys == 0 { // global aggregation: one group, on one partition
		par, conn = 1, hyracks.MergeUnordered()
	}
	gb := j.Add(hyracks.NewGroupBy("group-by", par, groupCols, specs))
	j.MustConnect(prep, gb, 0, conn)
	return built{op: gb, schema: schemaOf(o.Schema()...), par: par}, nil
}

// aggSpecFor maps an extracted aggregate to its runtime spec over argument
// column col. COUNT(*) — any aggregate without an argument — counts: col is
// -1, or holds a constant.
func aggSpecFor(a AggRef, col int) (hyracks.AggSpec, error) {
	agg, ok := hyracks.Aggregates[a.Fn]
	if a.Star {
		agg, ok = hyracks.CountAgg, true
	}
	if !ok {
		return hyracks.AggSpec{}, fmt.Errorf("jobgen: unsupported aggregate %q", a.Fn)
	}
	spec := agg(col)
	if !a.Distinct {
		return spec, nil
	}
	// Collect, then dedupe and fold at finish (exact, memory-proportional
	// to the group's distinct cardinality).
	distinct := hyracks.CollectAgg(col)
	distinct.Finish = func(s adm.Value) (adm.Value, error) {
		return hyracks.Fold(spec, dedupe(s.(adm.Array)))
	}
	return distinct, nil
}
