package algebricks

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"asterix/internal/adm"
	"asterix/internal/obs"
	"asterix/internal/sqlpp"
)

// testCatalog3 extends testCatalog with a third dataset (for join-order
// clusters), a dataset with a composite primary key, and secondary
// indexes (for access-path selection).
func testCatalog3() *memCatalog {
	cat := testCatalog()
	checkins := &memSource{name: "Checkins", par: 2, pk: []string{"uid", "day"}}
	for i := 0; i < 40; i++ {
		checkins.recs = append(checkins.recs, adm.NewObject(
			adm.Field{Name: "uid", Value: adm.Int64(i / 4)},
			adm.Field{Name: "day", Value: adm.Int64(i % 4)},
			adm.Field{Name: "place", Value: adm.String(fmt.Sprintf("p%d", i%7))},
		))
	}
	cat.sources["Checkins"] = checkins
	likes := &memSource{name: "Likes", par: 2}
	for i := 0; i < 100; i++ {
		likes.recs = append(likes.recs, adm.NewObject(
			adm.Field{Name: "lid", Value: adm.Int64(i)},
			adm.Field{Name: "mid", Value: adm.Int64(i % 50)},
			adm.Field{Name: "uid", Value: adm.Int64(i % 20)},
		))
	}
	cat.sources["Likes"] = likes
	cat.indexes = map[string]IndexAccessor{
		"Users.age": &memIndex{src: cat.sources["Users"], field: "age", kind: "BTREE"},
	}
	return cat
}

// optimize translates src and runs the full default pipeline, returning
// the plan and the optimizer report.
func optimizeQuery(t *testing.T, cat Catalog, src string) (Op, OptReport) {
	t.Helper()
	q := parseBound(t, cat, src+";")
	tr := &Translator{Ev: newEval(cat), Catalog: cat}
	plan, err := tr.Translate(q.Body.(*sqlpp.SelectExpr))
	if err != nil {
		t.Fatal(err)
	}
	out, rep := NewOptimizer(nil).Optimize(tr, plan)
	return out, rep
}

// Hand-built plans whose shape translation does not produce today: a LIMIT
// separated from its ORDER by another operator.
func orderedUsers() *OrderOp {
	age := &sqlpp.FieldAccess{Base: &sqlpp.VarRef{Name: "u"}, Field: "age"}
	return &OrderOp{In: &ScanOp{Dataset: "Users", Var: "u"}, Items: []OrderDef{{Expr: age, Desc: true}}}
}

func fieldOfVar(v, f string) sqlpp.Expr {
	return &sqlpp.FieldAccess{Base: &sqlpp.VarRef{Name: v}, Field: f}
}

// limitOver is LIMIT 4 over the projection of rec.name from in.
func limitOver(in Op, rec string) Op {
	name := &sqlpp.FieldAccess{Base: &sqlpp.VarRef{Name: rec}, Field: "name"}
	return &LimitOp{In: &ResultOp{In: in, Expr: name}, Limit: 4}
}

// --- Golden plan tests ---
//
// Each case's optimized plan text is compared against
// testdata/plans/<name>.golden; regenerate with
//
//	ASTERIX_UPDATE_GOLDEN=1 go test ./internal/algebricks -run TestGoldenPlans

func TestGoldenPlans(t *testing.T) {
	update := os.Getenv("ASTERIX_UPDATE_GOLDEN") != ""
	cat := testCatalog3()
	cases := []struct {
		name string
		src  string
		plan Op // when set, optimized as is (src is not translated)
	}{
		{name: "scan_filter", src: `SELECT VALUE u.id FROM Users u WHERE u.name < "user03"`},
		{name: "constant_fold", src: `SELECT VALUE u.id FROM Users u WHERE u.id < 1 + 2 AND 1 = 1`},
		{name: "hash_join", src: `SELECT u.name, m.mid FROM Users u, Messages m WHERE m.authorId = u.id AND u.age > 21`},
		{name: "commuted_join", src: `SELECT u.name, m.mid FROM Users u, Messages m WHERE u.id = m.authorId`},
		{name: "index_btree", src: `SELECT VALUE u.name FROM Users u WHERE u.age >= 22 AND u.age <= 23`},
		{name: "limit_into_scan", src: `SELECT VALUE u.name FROM Users u LIMIT 5`},
		{name: "three_way_greedy", src: `SELECT u.name, m.mid, l.lid FROM Users u, Messages m, Likes l
			WHERE m.authorId = u.id AND l.mid = m.mid AND u.id = 7`},
		{name: "group_after_join", src: `SELECT u.name AS name, COUNT(m) AS cnt
			FROM Users u JOIN Messages m ON m.authorId = u.id GROUP BY u.name AS name`},
		// The primary index as an access path.
		{name: "pk_equality", src: `SELECT VALUE u.name FROM Users u WHERE u.id = 7`},
		{name: "pk_equality_commuted", src: `SELECT VALUE u.name FROM Users u WHERE 7 = u.id`},
		{name: "pk_range_one_bound", src: `SELECT VALUE u.name FROM Users u WHERE u.id > 15`},
		{name: "pk_range_commuted", src: `SELECT VALUE u.name FROM Users u WHERE 15 < u.id`},
		{name: "pk_range_two_bounds", src: `SELECT VALUE u.name FROM Users u WHERE u.id >= 3 AND u.id < 9`},
		{name: "pk_equality_beats_secondary", src: `SELECT VALUE u.name FROM Users u WHERE u.age > 21 AND u.id = 7`},
		{name: "pk_range_after_secondary", src: `SELECT VALUE u.name FROM Users u WHERE u.age > 21 AND u.id > 7`},
		{name: "pk_equality_join_input", src: `SELECT u.name, m.mid FROM Users u, Messages m WHERE m.authorId = u.id AND u.id = 7`},
		{name: "pk_range_limit", src: `SELECT VALUE u.name FROM Users u WHERE u.id > 3 LIMIT 2`},
		{name: "pk_composite_full", src: `SELECT VALUE c.place FROM Checkins c WHERE c.day = 2 AND c.uid = 3`},
		{name: "pk_composite_prefix", src: `SELECT VALUE c.place FROM Checkins c WHERE c.uid = 3`},
		{name: "pk_composite_prefix_range", src: `SELECT VALUE c.place FROM Checkins c WHERE c.uid = 3 AND c.day >= 1 AND c.day < 3`},
		{name: "pk_composite_second_field_only", src: `SELECT VALUE c.place FROM Checkins c WHERE c.day = 2`},
		{name: "pk_array_constant_stays_scan", src: `SELECT VALUE u.name FROM Users u WHERE u.id = [7]`},
		// ORDER BY … LIMIT bounds the sort; only row-preserving operators may
		// sit between the two.
		{name: "order_limit", src: `SELECT VALUE u.name FROM Users u ORDER BY u.age DESC LIMIT 4`},
		{name: "order_limit_offset", src: `SELECT VALUE u.name FROM Users u ORDER BY u.age DESC, u.id LIMIT 4 OFFSET 3`},
		{name: "order_limit_through_result", plan: limitOver(orderedUsers(), "u")},
		{name: "order_limit_stops_at_select", plan: limitOver(&SelectOp{In: orderedUsers(),
			Cond: &sqlpp.Binary{Op: ">", L: &sqlpp.FieldAccess{Base: &sqlpp.VarRef{Name: "u"}, Field: "id"}, R: &sqlpp.Literal{Value: adm.Int64(3)}}}, "u")},
		{name: "order_limit_stops_at_group", plan: limitOver(&GroupOp{In: orderedUsers(),
			Keys: []GroupKeyDef{{Var: "g", Expr: &sqlpp.VarRef{Name: "u"}}}}, "g")},
		// result-after-order moves the projection above a bounded sort (the
		// three cases above and scan_fields_join_sides) unless a sort key
		// reads it; below an unbounded sort it still runs on every partition.
		{name: "order_nolimit_result_stays", src: `SELECT VALUE upper(u.name) FROM Users u ORDER BY u.age DESC`},
		{name: "order_uses_result_stays", plan: &LimitOp{Limit: 4, In: &OrderOp{
			In:    &ResultOp{In: &ScanOp{Dataset: "Users", Var: "u"}, Expr: &sqlpp.VarRef{Name: "u"}},
			Items: []OrderDef{{Expr: &sqlpp.FieldAccess{Base: &sqlpp.VarRef{Name: ResultVar}, Field: "age"}}}}}},
		// Leaves materialize only the fields the plan reads; any use of the
		// record itself keeps it whole.
		{name: "scan_fields", src: `SELECT m.mid, m.len FROM Messages m WHERE m.authorId % 2 = 0`},
		{name: "scan_fields_join_sides", src: `SELECT u.name AS name, COUNT(*) AS cnt FROM Users u, Messages m
			WHERE m.authorId = u.id GROUP BY u.name AS name ORDER BY cnt DESC, name LIMIT 3`},
		{name: "scan_fields_none", src: `SELECT VALUE COUNT(*) FROM Messages m`},
		{name: "scan_whole_select_value", src: `SELECT VALUE m FROM Messages m WHERE m.len > 10`},
		{name: "scan_whole_star", src: `SELECT * FROM Messages m WHERE m.len > 10`},
		{name: "scan_whole_subquery_use", src: `SELECT VALUE u.name FROM Users u
			WHERE (SOME t IN u.tags SATISFIES t = "t1") AND u.id < 90`},
		{name: "index_search_fields", src: `SELECT VALUE u.name FROM Users u WHERE u.age >= 22 AND u.age <= 23`},
		// A filter directly on a leaf moves into it, conjunct by conjunct:
		// what reads another variable or holds a subquery stays a select;
		// the leaf's field list covers what its filter reads, and a LIMIT
		// now reaches a leaf that filters.
		{name: "scan_filter_pushed", src: `SELECT VALUE m.mid FROM Messages m WHERE m.len % 2 = 0 AND m.authorId < 7`},
		{name: "scan_filter_partial", plan: &ResultOp{Expr: fieldOfVar("m", "mid"), In: &SelectOp{In: &ScanOp{Dataset: "Messages", Var: "m"},
			Cond: &sqlpp.Binary{Op: "AND",
				L: &sqlpp.Binary{Op: "=", L: fieldOfVar("m", "authorId"), R: fieldOfVar("u", "id")},
				R: &sqlpp.Binary{Op: ">", L: fieldOfVar("m", "len"), R: &sqlpp.Literal{Value: adm.Int64(10)}}}}}},
		{name: "scan_filter_whole_record", src: `SELECT VALUE m.mid FROM Messages m WHERE m IS NOT MISSING AND m.len > 10`},
		{name: "scan_filter_subquery_stays", src: `SELECT VALUE u.name FROM Users u
			WHERE (SOME t IN u.tags SATISFIES t = "t1") AND u.name > "user05"`},
		{name: "scan_filter_limit", src: `SELECT VALUE m.mid FROM Messages m WHERE m.len % 2 = 0 LIMIT 3`},
		{name: "index_search_residual_filter", src: `SELECT VALUE u.name FROM Users u WHERE u.age >= 22 AND u.name < "user10"`},
		{name: "join_keys_from_leaf_columns", src: `SELECT u.name AS name, COUNT(*) AS cnt FROM Users u, Messages m
			WHERE m.authorId = u.id GROUP BY u.name AS name`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var plan Op
			var rep OptReport
			if c.plan != nil {
				tr := &Translator{Ev: newEval(cat), Catalog: cat}
				plan, rep = NewOptimizer(nil).Optimize(tr, c.plan)
			} else {
				plan, rep = optimizeQuery(t, cat, c.src)
			}
			if rep.BudgetExhausted {
				t.Errorf("optimizer hit pass budget (passes=%d)", rep.Passes)
			}
			got := PlanString(plan)
			path := filepath.Join("testdata", "plans", c.name+".golden")
			if update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with ASTERIX_UPDATE_GOLDEN=1): %v", err)
			}
			if got != string(want) {
				t.Errorf("plan drifted from golden %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// Job shapes. Equality on the full primary key is a point lookup on the
// owning partition: its leaf, and everything pipelined above it, runs as
// one task — leaf, result, project-result, sink, the residual filter being
// the leaf's own. Ranges and key prefixes still probe every partition. A
// leaf's filter, its field columns and the names assigns give them cost no
// task: the join's inputs go from the leaves straight into the exchange.
func TestJobShapes(t *testing.T) {
	cat := testCatalog3()
	cases := []struct {
		src       string
		leaf      string
		leafTasks int
		allTasks  int    // 0 = not asserted
		ops       string // the job's operators in task order, "" = not asserted
		rows      int
	}{
		{`SELECT VALUE u.name FROM Users u WHERE u.id = 7`, "idx-Users.id", 1, 4, "idx-Users.id result project-result sink", 1}, // partition 1
		{`SELECT VALUE u.name FROM Users u WHERE u.id = 8.0`, "idx-Users.id", 1, 4, "", 1},
		{`SELECT VALUE u.name FROM Users u WHERE u.id = 99`, "idx-Users.id", 1, 4, "", 0},
		{`SELECT VALUE u.name FROM Users u WHERE u.age > 21 AND u.id = 7`, "idx-Users.id", 1, 4, "", 1},
		{`SELECT VALUE u.name FROM Users u WHERE u.id > 15`, "idx-Users.id", 2, 0, "", 4},
		{`SELECT VALUE c.place FROM Checkins c WHERE c.day = 2 AND c.uid = 3`, "idx-Checkins.uid", 1, 4, "", 1},
		{`SELECT VALUE c.place FROM Checkins c WHERE c.uid = 3`, "idx-Checkins.uid", 2, 0, "", 4},
		{`SELECT VALUE c.place FROM Checkins c WHERE c.uid = 3 AND c.day >= 1 AND c.day < 3`, "idx-Checkins.uid", 2, 0, "", 2},
		// golden scan_filter_pushed: no select task.
		{`SELECT VALUE m.mid FROM Messages m WHERE m.len % 2 = 0`, "scan-Messages", 2, 7, "scan-Messages result project-result sink", 25},
		// golden join_keys_from_leaf_columns: no assign, no project.
		{`SELECT u.name AS name, COUNT(*) AS cnt FROM Users u, Messages m WHERE m.authorId = u.id GROUP BY u.name AS name`,
			"scan-Messages", 2, 0, "scan-Messages scan-Users hash-join group-prep group-by result project-result sink", 20},
		// The filter's only field is projected away before the exchange.
		{`SELECT u.name AS name, COUNT(*) AS cnt FROM Users u, Messages m WHERE m.authorId = u.id AND m.len > 100 GROUP BY u.name AS name`,
			"scan-Messages", 2, 0, "scan-Messages project scan-Users hash-join group-prep group-by result project-result sink", 16},
		// project []: the join's key columns all go (TestProjectNothing).
		{`SELECT VALUE x FROM Messages m, Users u, [1, 2] x WHERE m.authorId = u.id`,
			"scan-Messages", 2, 0, "scan-Messages scan-Users hash-join project ets unnest-x nl-join result project-result sink", 100},
	}
	for _, c := range cases {
		root := obs.NewSpan("query")
		root.SetDetailed(true)
		rows := runJobCtx(obs.ContextWithSpan(context.Background(), root), t, cat, c.src)
		if len(rows) != c.rows {
			t.Errorf("%s: %d rows, want %d", c.src, len(rows), c.rows)
		}
		tasks := root.Tree().Children
		leaf := 0
		var ops []string
		for _, ts := range tasks {
			name := ts.Name[:strings.LastIndexByte(ts.Name, '[')]
			if name == c.leaf {
				leaf++
			}
			if !slices.Contains(ops, name) {
				ops = append(ops, name)
			}
		}
		if leaf != c.leafTasks || (c.allTasks > 0 && len(tasks) != c.allTasks) {
			t.Errorf("%s: %d leaf tasks of %d, want %d of %d", c.src, leaf, len(tasks), c.leafTasks, c.allTasks)
		}
		if got := strings.Join(ops, " "); c.ops != "" && got != c.ops {
			t.Errorf("%s: job runs [%s], want [%s]", c.src, got, c.ops)
		}
	}
}

// A project that keeps no column of a wider input still runs: what is bound
// above it sits at the positions of the narrowed tuple, not of the input.
func TestProjectNothing(t *testing.T) {
	cat := testCatalog3()
	rows := runJob(t, cat, `SELECT VALUE x FROM Messages m, Users u, [1, 2] x WHERE m.authorId = u.id`)
	count := map[string]int{}
	for _, r := range rows {
		count[r.String()]++
	}
	if len(rows) != 100 || count["1"] != 50 || count["2"] != 50 {
		t.Errorf("got %v over %d rows, want 50 of 1 and 50 of 2", count, len(rows))
	}
	// A leaf whose only column its filter reads, beside a join.
	rows = runJob(t, cat, `SELECT DISTINCT VALUE m.authorId FROM Messages m, Users u, Users v WHERE m.authorId = u.id AND v.id < 2`)
	want := runJob(t, cat, `SELECT DISTINCT VALUE m.authorId FROM Messages m`)
	if len(rows) != len(want) {
		t.Errorf("got %d distinct authors %v, want %d", len(rows), rows, len(want))
	}
}

// Plan text and JSON tree must agree on structure.
func TestPlanJSONMatchesText(t *testing.T) {
	plan, _ := optimizeQuery(t, testCatalog3(),
		`SELECT u.name, m.mid FROM Users u, Messages m WHERE m.authorId = u.id`)
	tree := PlanTree(plan)
	var count func(*PlanNode) int
	count = func(n *PlanNode) int {
		total := 1
		for _, in := range n.Inputs {
			total += count(in)
		}
		return total
	}
	var ops int
	var walk func(Op)
	walk = func(op Op) {
		ops++
		for _, in := range op.Inputs() {
			walk(in)
		}
	}
	walk(plan)
	if got := count(tree); got != ops {
		t.Errorf("JSON tree has %d nodes, plan has %d", got, ops)
	}
	if !strings.Contains(PlanJSON(plan), `"op":"join"`) {
		t.Errorf("JSON plan missing join node: %s", PlanJSON(plan))
	}
}

// --- recognize-hash-join regressions ---

func planFor(t *testing.T, src string) string {
	t.Helper()
	plan, _ := optimizeQuery(t, testCatalog3(), src)
	return PlanString(plan)
}

// The original recognizer only matched left-var = right-var in source
// order; commuted equalities must extract keys too.
func TestHashJoinCommutedEquality(t *testing.T) {
	s := planFor(t, `SELECT u.name, m.mid FROM Users u, Messages m WHERE u.id = m.authorId`)
	if !strings.Contains(s, "join[inner,hash]") {
		t.Errorf("commuted equality not recognized:\n%s", s)
	}
}

// Parenthesized AND nesting must flatten into conjuncts before matching.
func TestHashJoinNestedConjunction(t *testing.T) {
	s := planFor(t, `SELECT u.name, m.mid FROM Users u, Messages m
		WHERE (m.authorId = u.id AND u.age > 21) AND m.len > 10`)
	if !strings.Contains(s, "join[inner,hash]") {
		t.Errorf("nested conjunction not recognized:\n%s", s)
	}
	// Both residual filters push below the join, into its leaves.
	if i := strings.Index(s, "join["); strings.Count(s[i:], "filter=") != 2 || strings.Contains(s, "select") {
		t.Errorf("residual filters not pushed below join:\n%s", s)
	}
}

// An equality against a constant is a filter, not a join key: u.age = 21
// must never become a hash-join key (it references only one side — and a
// constant pseudo-key would hash every row to one bucket of equal values,
// silently joining on nothing).
func TestHashJoinConstantEqualityIsNotAKey(t *testing.T) {
	s := planFor(t, `SELECT u.name, m.mid FROM Users u, Messages m
		WHERE u.age = 21 AND m.authorId = u.id`)
	if !strings.Contains(s, "join[inner,hash]") {
		t.Errorf("expected hash join:\n%s", s)
	}
	if strings.Contains(s, "21 = ") || strings.Contains(s, "= 21]") {
		t.Errorf("constant equality leaked into join keys:\n%s", s)
	}
	// Exactly one key pair: authorId = id.
	if strings.Count(s, "$jkl") > 2 { // one assign + one keys= mention
		t.Errorf("unexpected extra join keys:\n%s", s)
	}
}

// A same-side equality (two columns of one input) is a local filter, not
// a join key.
func TestHashJoinSameSideEqualityIsNotAKey(t *testing.T) {
	s := planFor(t, `SELECT u.name, m.mid FROM Users u, Messages m
		WHERE m.authorId = m.mid AND m.authorId = u.id`)
	if !strings.Contains(s, "join[inner,hash]") {
		t.Errorf("expected hash join:\n%s", s)
	}
	if !strings.Contains(s, "filter=(m.authorId = m.mid)") {
		t.Errorf("same-side equality should stay a filter:\n%s", s)
	}
}

// --- greedy join ordering ---

func TestGreedyJoinOrderThreeWay(t *testing.T) {
	plan, rep := optimizeQuery(t, testCatalog3(), `
		SELECT u.name, m.mid, l.lid FROM Messages m, Likes l, Users u
		WHERE m.authorId = u.id AND l.mid = m.mid AND u.id = 7`)
	if rep.Fired["order-joins-greedily"] == 0 {
		t.Fatalf("greedy ordering did not fire: %v", rep.Fired)
	}
	// Find the top join cluster: expect left-deep (left child of the top
	// join is itself a join, right child is not).
	var top *JoinOp
	var walk func(Op)
	walk = func(op Op) {
		if j, ok := op.(*JoinOp); ok && top == nil {
			top = j
			return
		}
		for _, in := range op.Inputs() {
			walk(in)
		}
	}
	walk(plan)
	if top == nil {
		t.Fatalf("no join in plan:\n%s", PlanString(plan))
	}
	inner, ok := findJoin(top.L)
	if !ok {
		t.Fatalf("plan not left-deep:\n%s", PlanString(plan))
	}
	// Users carries the only local filter (u.id = 7), so the greedy order
	// starts there and joins Messages next (equality on authorId); Likes,
	// connected only through Messages, must join last.
	hasVar := func(schema []string, v string) bool {
		for _, s := range schema {
			if s == v {
				return true
			}
		}
		return false
	}
	if !hasVar(inner.Schema(), "u") || !hasVar(inner.Schema(), "m") {
		t.Errorf("inner join should bind u and m, got schema %v:\n%s", inner.Schema(), PlanString(plan))
	}
	if !hasVar(top.R.Schema(), "l") || hasVar(inner.Schema(), "l") {
		t.Errorf("l should join last, top right schema %v:\n%s", top.R.Schema(), PlanString(plan))
	}
	// After ordering, both joins should be recognized as hash joins.
	if n := strings.Count(PlanString(plan), "join[inner,hash]"); n != 2 {
		t.Errorf("expected 2 hash joins, got %d:\n%s", n, PlanString(plan))
	}
}

// findJoin digs through selects/assigns/projects for a join.
func findJoin(op Op) (*JoinOp, bool) {
	for {
		if j, ok := op.(*JoinOp); ok {
			return j, true
		}
		ins := op.Inputs()
		if len(ins) != 1 {
			return nil, false
		}
		op = ins[0]
	}
}

// A two-way join must not be restructured (cluster minimum is three).
func TestGreedyJoinOrderSkipsTwoWay(t *testing.T) {
	_, rep := optimizeQuery(t, testCatalog3(),
		`SELECT u.name, m.mid FROM Users u, Messages m WHERE m.authorId = u.id`)
	if rep.Fired["order-joins-greedily"] != 0 {
		t.Errorf("ordering fired on a 2-way join: %v", rep.Fired)
	}
}

// --- optimizer framework ---

func TestOptimizerFixpointTerminates(t *testing.T) {
	_, rep := optimizeQuery(t, testCatalog3(), `
		SELECT u.name, m.mid, l.lid FROM Messages m, Likes l, Users u
		WHERE m.authorId = u.id AND l.mid = m.mid AND u.age >= 22 AND u.age <= 23 AND 1 = 1`)
	if rep.BudgetExhausted {
		t.Fatalf("no fixpoint within %d passes; fired: %v", rep.Passes, rep.Fired)
	}
	if rep.Passes >= maxPasses {
		t.Errorf("suspiciously many passes: %d", rep.Passes)
	}
}

func TestOptimizerBudgetBounds(t *testing.T) {
	spin := Rule{Name: "spin", Apply: func(tr *Translator, plan Op) (Op, int) {
		return plan, 1 // claims progress forever
	}}
	o := &Optimizer{Rules: []Rule{spin}}
	plan := &ResultOp{In: &EtsOp{}}
	_, rep := o.Optimize(nil, plan)
	if !rep.BudgetExhausted {
		t.Error("budget exhaustion not reported")
	}
	if rep.Passes != maxPasses {
		t.Errorf("passes = %d, want %d", rep.Passes, maxPasses)
	}
	if rep.Fired["spin"] != maxPasses {
		t.Errorf("fired[spin] = %d, want %d", rep.Fired["spin"], maxPasses)
	}
}

func TestOptimizerDisabledRules(t *testing.T) {
	q := `SELECT u.name, m.mid FROM Users u, Messages m WHERE m.authorId = u.id`
	cat := testCatalog3()
	qp := parseBound(t, cat, q+";")
	tr := &Translator{Ev: newEval(cat), Catalog: cat}
	plan, err := tr.Translate(qp.Body.(*sqlpp.SelectExpr))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimizer(nil)
	o.Disabled = map[string]bool{"recognize-hash-join": true}
	out, rep := o.Optimize(tr, plan)
	if strings.Contains(PlanString(out), "join[inner,hash]") {
		t.Errorf("disabled rule still fired:\n%s", PlanString(out))
	}
	if rep.Fired["recognize-hash-join"] != 0 {
		t.Errorf("report counts disabled rule: %v", rep.Fired)
	}
}

func TestOptimizerMetricsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	o := NewOptimizer(reg)
	cat := testCatalog3()
	q := parseBound(t, cat, `SELECT u.name, m.mid FROM Users u, Messages m WHERE m.authorId = u.id;`)
	tr := &Translator{Ev: newEval(cat), Catalog: cat}
	plan, err := tr.Translate(q.Body.(*sqlpp.SelectExpr))
	if err != nil {
		t.Fatal(err)
	}
	_, rep := o.Optimize(tr, plan)
	if len(rep.Fired) == 0 {
		t.Fatal("nothing fired")
	}
	if got := reg.Counter("optimizer_plans_total", "").Value(); got != 1 {
		t.Errorf("optimizer_plans_total = %d, want 1", got)
	}
	if got := reg.Counter("optimizer_rule_recognize_hash_join_fired_total", "").Value(); got != int64(rep.Fired["recognize-hash-join"]) {
		t.Errorf("per-rule counter = %d, report says %d", got, rep.Fired["recognize-hash-join"])
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "optimizer_rule_recognize_hash_join_fired_total") {
		t.Error("per-rule counter missing from prometheus exposition")
	}
}

// Optimizing the same plan twice must be a no-op the second time (rules
// are idempotent at fixpoint), and every rule of the default pipeline must
// fire on some query of the corpus: a rule that never fires is dead code.
func TestOptimizerIdempotent(t *testing.T) {
	cat := testCatalog3()
	queries := []string{
		`SELECT u.name, m.mid FROM Users u, Messages m WHERE m.authorId = u.id AND u.age > 21`,
		`SELECT u.name, m.mid, l.lid FROM Messages m, Likes l, Users u
			WHERE m.authorId = u.id AND l.mid = m.mid AND u.id = 7`,
		`SELECT VALUE u.name FROM Users u WHERE u.age >= 22 LIMIT 3`,
		// result-after-order, push-limit bounding a sort, and the leaf field
		// lists of prune-columns.
		`SELECT u.name AS name, COUNT(*) AS cnt FROM Users u, Messages m
			WHERE m.authorId = u.id GROUP BY u.name AS name ORDER BY cnt DESC, name LIMIT 3 OFFSET 2`,
		`SELECT VALUE COUNT(*) FROM Messages m`,
		`SELECT VALUE m FROM Messages m ORDER BY m.len DESC LIMIT 2`,
		`SELECT VALUE upper(u.name) FROM Users u ORDER BY u.age DESC`,
		// push-select into a leaf: part of a filter, and a residual a LIMIT
		// passes.
		`SELECT VALUE u.name FROM Users u WHERE (SOME t IN u.tags SATISFIES t = "t1") AND u.name > "user05"`,
		`SELECT VALUE u.name FROM Users u WHERE u.id > 3 AND u.age != 22 LIMIT 2`,
		// push-select and introduce-index-search on a constant-expression
		// bound, with a constant conjunct left in the leaf's filter.
		`SELECT VALUE u.id FROM Users u WHERE u.id < 1 + 2 AND 1 = 1`,
		// quantifier-to-semijoin.
		`SELECT VALUE u.name FROM Users u WHERE SOME m IN Messages SATISFIES m.authorId = u.id`,
	}
	fired := map[string]int{}
	for _, q := range queries {
		plan, rep := optimizeQuery(t, cat, q)
		for rule, n := range rep.Fired {
			fired[rule] += n
		}
		first := PlanString(plan)
		tr := &Translator{Ev: newEval(cat), Catalog: cat}
		again, rep := NewOptimizer(nil).Optimize(tr, plan)
		if got := PlanString(again); got != first {
			t.Errorf("re-optimizing changed the plan for %q:\n%s\nvs\n%s", q, first, got)
		}
		if len(rep.Fired) != 0 {
			t.Errorf("re-optimizing fired rules for %q: %v", q, rep.Fired)
		}
	}
	for _, rule := range DefaultRules() {
		if fired[rule.Name] == 0 {
			t.Errorf("no query of the corpus fires %s", rule.Name)
		}
	}
}

// Index selection must be deterministic across runs (map-iteration order
// must not leak into access-path choice).
func TestIndexSelectionDeterministic(t *testing.T) {
	cat := testCatalog3()
	var first string
	for i := 0; i < 20; i++ {
		plan, _ := optimizeQuery(t, cat, `SELECT VALUE u.name FROM Users u WHERE u.age >= 22 AND u.age <= 23`)
		s := PlanString(plan)
		if i == 0 {
			first = s
			if !strings.Contains(s, "index-search") {
				t.Fatalf("expected index access path:\n%s", s)
			}
		} else if s != first {
			t.Fatalf("nondeterministic plan:\n%s\nvs\n%s", first, s)
		}
	}
}

func TestMetricToken(t *testing.T) {
	if got := metricToken("push-select"); got != "push_select" {
		t.Errorf("metricToken = %q", got)
	}
}

var _ = fmt.Sprintf // keep fmt for debugging edits
