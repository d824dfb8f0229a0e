package algebricks

import (
	"asterix/internal/sqlpp"
)

// Statistics-free greedy join ordering. An N-way (N >= 3) cluster of
// inner, unkeyed joins — plus the filter directly above it, if any — is
// flattened into leaf relations and predicates, then rebuilt left-deep:
// start from the leaf with the strongest local filters, then repeatedly
// append the leaf with the best connection to what is already joined.
// Candidates are scored by predicate selectivity class (equality beats
// range beats anything else), so equi-connected relations join early and
// cross products sink to the end. No cardinality statistics are consulted:
// connectivity plus selectivity classes is enough to avoid the
// pathological orders, at planning cost linear in N per greedy step.

// predClass ranks a predicate's expected selectivity: equality (3) >
// range (2) > anything else (1).
func predClass(e sqlpp.Expr) int {
	switch x := e.(type) {
	case *sqlpp.Binary:
		switch x.Op {
		case "=":
			return 3
		case "<", "<=", ">", ">=":
			return 2
		}
	case *sqlpp.Between:
		return 2
	}
	return 1
}

// filterScore sums the classes of a filter's conjuncts (nil: no filter).
func filterScore(cond sqlpp.Expr) int {
	score := 0
	if cond != nil {
		for _, c := range conjuncts(cond) {
			score += predClass(c)
		}
	}
	return score
}

// localScore estimates how constrained a leaf subtree already is: residual
// filters — above a leaf or inside it — score by class, and an index search
// is the strongest signal.
func localScore(op Op) int {
	score := 0
	var walk func(Op)
	walk = func(o Op) {
		switch x := o.(type) {
		case *SelectOp:
			score += filterScore(x.Cond)
		case *ScanOp:
			score += filterScore(x.Filter)
		case *IndexSearchOp:
			score += 4 + filterScore(x.Filter)
		}
		for _, in := range o.Inputs() {
			walk(in)
		}
	}
	walk(op)
	return score
}

// eligibleClusterJoin reports whether j can be flattened into a reorder
// cluster: inner, no hash keys extracted yet.
func eligibleClusterJoin(j *JoinOp) bool {
	return j.Kind == JoinInner && len(j.LeftKeys) == 0
}

// flattenJoinCluster collects the leaves and join predicates of the
// maximal cluster rooted at op, noting whether any member join is still
// unordered. Filters sitting between member joins (left there by select
// pushthrough) are absorbed into the predicate pool and redistributed by
// the rebuild.
func flattenJoinCluster(op Op, leaves *[]Op, preds *[]sqlpp.Expr, anyUnordered *bool) {
	if s, ok := op.(*SelectOp); ok {
		if j, ok := s.In.(*JoinOp); ok && eligibleClusterJoin(j) {
			*preds = append(*preds, conjuncts(s.Cond)...)
			flattenJoinCluster(j, leaves, preds, anyUnordered)
			return
		}
	}
	if j, ok := op.(*JoinOp); ok && eligibleClusterJoin(j) {
		if !j.ordered {
			*anyUnordered = true
		}
		if j.On != nil {
			*preds = append(*preds, conjuncts(j.On)...)
		}
		flattenJoinCluster(j.L, leaves, preds, anyUnordered)
		flattenJoinCluster(j.R, leaves, preds, anyUnordered)
		return
	}
	*leaves = append(*leaves, op)
}

// ruleOrderJoinsGreedily finds clusters of three or more inner-join leaves
// and rebuilds them left-deep in greedy order. Rebuilt joins are marked
// ordered so each cluster is restructured at most once.
func ruleOrderJoinsGreedily(tr *Translator, plan Op) (Op, int) {
	hits := 0
	var walk func(Op) Op
	walk = func(op Op) Op {
		switch o := op.(type) {
		case *SelectOp:
			if j, ok := o.In.(*JoinOp); ok && eligibleClusterJoin(j) {
				if out, changed := tr.orderCluster(o, j); changed {
					hits++
					op = out
				}
			}
		case *JoinOp:
			if eligibleClusterJoin(o) {
				if out, changed := tr.orderCluster(nil, o); changed {
					hits++
					op = out
				}
			}
		}
		for i, in := range op.Inputs() {
			nin := walk(in)
			if nin != in {
				setInput(op, i, nin)
			}
		}
		return op
	}
	return walk(plan), hits
}

// orderCluster flattens the cluster rooted at j (consuming the filter sel
// directly above it, when given) and rebuilds it left-deep in greedy
// order. Returns (replacement, true) when it fired.
func (tr *Translator) orderCluster(sel *SelectOp, j *JoinOp) (Op, bool) {
	var leaves []Op
	var preds []sqlpp.Expr
	anyUnordered := false
	flattenJoinCluster(j, &leaves, &preds, &anyUnordered)
	if len(leaves) < 3 || !anyUnordered {
		return nil, false
	}
	if sel != nil {
		preds = append(preds, conjuncts(sel.Cond)...)
	}

	// Which leaves does each predicate touch?
	leafVars := make([]map[string]bool, len(leaves))
	for i, lf := range leaves {
		leafVars[i] = map[string]bool{}
		for _, v := range lf.Schema() {
			leafVars[i][v] = true
		}
	}
	type joinPred struct {
		e       sqlpp.Expr
		touched []int
		class   int
	}
	var joinPreds []joinPred
	local := make([][]sqlpp.Expr, len(leaves))
	var leftovers []sqlpp.Expr
	for _, p := range preds {
		free := map[string]bool{}
		FreeVars(p, free)
		var touched []int
		for i := range leaves {
			for v := range free {
				if leafVars[i][v] {
					touched = append(touched, i)
					break
				}
			}
		}
		switch len(touched) {
		case 0:
			leftovers = append(leftovers, p)
		case 1:
			local[touched[0]] = append(local[touched[0]], p)
		default:
			joinPreds = append(joinPreds, joinPred{e: p, touched: touched, class: predClass(p)})
		}
	}

	// Local selectivity per leaf: filters being distributed now plus
	// whatever already sits inside the subtree.
	locScore := make([]int, len(leaves))
	for i, lf := range leaves {
		locScore[i] = localScore(lf)
		for _, p := range local[i] {
			locScore[i] += predClass(p)
		}
	}

	// Greedy: start at the most locally constrained leaf, then repeatedly
	// take the leaf with the strongest connection to the joined set
	// (connection class sum, then local score, then original position for
	// determinism).
	chosen := make([]bool, len(leaves))
	order := make([]int, 0, len(leaves))
	start := 0
	for i := 1; i < len(leaves); i++ {
		if locScore[i] > locScore[start] {
			start = i
		}
	}
	order = append(order, start)
	chosen[start] = true
	for len(order) < len(leaves) {
		best, bestConn, bestLoc := -1, -1, -1
		for i := range leaves {
			if chosen[i] {
				continue
			}
			conn := 0
			for _, jp := range joinPreds {
				// The predicate connects i to the joined set when every
				// leaf it touches is either i or already joined.
				touchesI, allIn := false, true
				for _, t := range jp.touched {
					if t == i {
						touchesI = true
					} else if !chosen[t] {
						allIn = false
					}
				}
				if touchesI && allIn {
					conn += jp.class
				}
			}
			if conn > bestConn || (conn == bestConn && locScore[i] > bestLoc) {
				best, bestConn, bestLoc = i, conn, locScore[i]
			}
		}
		order = append(order, best)
		chosen[best] = true
	}

	// Rebuild left-deep, attaching each join predicate at the first join
	// that binds all its variables and local filters directly on their
	// leaf.
	wrapLocal := func(i int) Op {
		lf := leaves[i]
		if len(local[i]) > 0 {
			return &SelectOp{In: lf, Cond: conjoin(local[i])}
		}
		return lf
	}
	used := make([]bool, len(joinPreds))
	cur := wrapLocal(order[0])
	curLeaves := map[int]bool{order[0]: true}
	for _, li := range order[1:] {
		curLeaves[li] = true
		var on []sqlpp.Expr
		for k, jp := range joinPreds {
			if used[k] {
				continue
			}
			all := true
			for _, t := range jp.touched {
				if !curLeaves[t] {
					all = false
					break
				}
			}
			if all {
				on = append(on, jp.e)
				used[k] = true
			}
		}
		cur = &JoinOp{L: cur, R: wrapLocal(li), Kind: JoinInner, On: conjoin(on), ordered: true}
	}
	if len(leftovers) > 0 {
		cur = &SelectOp{In: cur, Cond: conjoin(leftovers)}
	}
	return cur, true
}
