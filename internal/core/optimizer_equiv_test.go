package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"asterix/internal/algebricks"
)

// readCorpus reads one of the statement files under
// internal/sqlpp/testdata/corpus, which the tests of several packages
// share: statements are separated by blank lines, and a line starting with
// "--" (always directly above a statement) is a comment.
func readCorpus(t testing.TB, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := regexp.MustCompile(`(?m)^--.*\n`).ReplaceAllString(string(data), "")
	return strings.Split(strings.TrimSpace(text), "\n\n")
}

// seedEquivData loads identical Gleambook content into an engine,
// including secondary indexes so the optimizer has access paths to pick.
func seedEquivData(t testing.TB, e *Engine) {
	t.Helper()
	mustExec(t, e, gleambookDDL)
	mustExec(t, e, `CREATE INDEX gbUserSinceIdx ON GleambookUsers(userSince);
		CREATE TYPE CheckinType AS {uid: int, day: int, place: string};
		CREATE DATASET Checkins(CheckinType) PRIMARY KEY uid, day;`)
	seedUsers(t, e, 30)
	for i := 0; i < 40; i++ {
		mustExec(t, e, fmt.Sprintf(`UPSERT INTO Checkins ({"uid": %d, "day": %d, "place": "p%d"});`, i/4, i%4, i%7))
	}
	var sb strings.Builder
	for i := 0; i < 90; i++ {
		loc := ""
		if i%2 == 0 {
			loc = fmt.Sprintf(`"senderLocation": point(%d, %d),`, i%30, i%20)
		}
		if i%3 == 0 {
			// An undeclared field on some records only: the type is open.
			loc += fmt.Sprintf(`"topic": "topic%d",`, i%7)
		}
		fmt.Fprintf(&sb, `UPSERT INTO GleambookMessages ({
			"messageId": %d, "authorId": %d, %s
			"message": "message number %d about topic%d"});`, i, i%30, loc, i, i%7)
	}
	mustExec(t, e, sb.String())
}

// orderedRows renders a result row by row, in the order it came back.
func orderedRows(t testing.TB, e *Engine, q string) []string {
	t.Helper()
	rows := queryRows(t, e, q)
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

// sortedRows renders a result as a sorted multiset for order-insensitive
// comparison.
func sortedRows(t testing.TB, e *Engine, q string) []string {
	t.Helper()
	out := orderedRows(t, e, q)
	sort.Strings(out)
	return out
}

// unoptimized returns cfg with every rule of algebricks.DefaultRules
// disabled: the engine runs each query exactly as translated.
func unoptimized(cfg Config) Config {
	cfg.OptimizerDisable = nil
	for _, r := range algebricks.DefaultRules() {
		cfg.OptimizerDisable = append(cfg.OptimizerDisable, r.Name)
	}
	return cfg
}

// TestOptimizerOnOffEquivalence runs a corpus of fixed and generated
// queries against engines over identical data — one with the optimizer,
// one with every rule disabled, and one per rule of
// algebricks.DefaultRules with only that rule disabled — and requires
// identical result multisets. Any rule that changes answers shows up here.
// On ORDER BY queries each single-rule ablation must also return the
// optimized engine's rows in its exact order: the corpus's tie-heavy sort
// keys sit over plain scans, whose arrival order every engine shares, a
// bounded sort is the prefix of the full sort, ties included, projecting
// after the sort reorders nothing, and a leaf that filters emits what a
// select above it passes.
func TestOptimizerOnOffEquivalence(t *testing.T) {
	on := newEngine(t, Config{})
	off := newEngine(t, unoptimized(Config{}))
	ablated := map[string]*Engine{"optimized": on}
	for _, r := range algebricks.DefaultRules() {
		e := newEngine(t, Config{OptimizerDisable: []string{r.Name}})
		seedEquivData(t, e)
		ablated["without "+r.Name] = e
	}
	seedEquivData(t, on)
	seedEquivData(t, off)

	queries := readCorpus(t, "../sqlpp/testdata/corpus/equivalence.sql")
	// Every user key: both partitions, each as a point lookup.
	for id := 0; id < 30; id++ {
		queries = append(queries, fmt.Sprintf(`SELECT VALUE u.alias FROM GleambookUsers u WHERE u.id = %d;`, id))
	}

	// Generated corpus: random filters and join predicates over a small
	// grammar, deterministic seed so failures replay.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 25; i++ {
		lo := rng.Intn(25)
		hi := lo + rng.Intn(25)
		op := []string{"<", "<=", ">", ">=", "="}[rng.Intn(5)]
		switch rng.Intn(3) {
		case 0:
			queries = append(queries, fmt.Sprintf(
				`SELECT VALUE u.alias FROM GleambookUsers u WHERE u.id %s %d;`, op, lo))
		case 1:
			queries = append(queries, fmt.Sprintf(
				`SELECT u.alias AS a, m.messageId AS mid FROM GleambookUsers u, GleambookMessages m
					WHERE m.authorId = u.id AND m.messageId >= %d AND m.messageId <= %d;`, lo, hi))
		case 2:
			queries = append(queries, fmt.Sprintf(
				`SELECT u.id AS uid, m1.messageId AS a, m2.messageId AS b
					FROM GleambookMessages m1, GleambookUsers u, GleambookMessages m2
					WHERE m1.authorId = u.id AND m2.authorId = u.id
					  AND m1.messageId %s %d AND m2.messageId < %d;`, op, lo, hi))
		}
	}

	for i, q := range queries {
		want := sortedRows(t, off, q)
		inOrder := orderedRows(t, on, q)
		for name, e := range ablated {
			got := orderedRows(t, e, q)
			if strings.Contains(q, "ORDER BY") &&
				strings.Join(got, "\n") != strings.Join(inOrder, "\n") {
				t.Errorf("query %d: engine %s orders rows differently\n%s:\n%s\noptimized:\n%s\n%s",
					i, name, name, strings.Join(got, "\n"), strings.Join(inOrder, "\n"), q)
			}
			sort.Strings(got)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("query %d: engine %s differs from unoptimized\n%s:\n%s\nunoptimized:\n%s\n%s",
					i, name, name, strings.Join(got, "\n"), strings.Join(want, "\n"), q)
			}
		}
	}
}

// TestOptimizerDisableRule checks the per-rule ablation knob: with a rule
// disabled it never fires, yet answers are unchanged.
func TestOptimizerDisableRule(t *testing.T) {
	full := newEngine(t, Config{})
	seedEquivData(t, full)
	for rule, q := range map[string]string{
		"order-joins-greedily": `SELECT u.name AS n, m1.messageId AS a, m2.messageId AS b
			FROM GleambookMessages m1, GleambookMessages m2, GleambookUsers u
			WHERE m1.authorId = u.id AND m2.authorId = u.id
			  AND m1.messageId < 20 AND m2.messageId < 20;`,
		"push-limit": `SELECT VALUE m.messageId FROM GleambookMessages m
			ORDER BY m.authorId % 3 DESC LIMIT 9 OFFSET 2;`,
		"prune-columns": `SELECT m.messageId AS id, m.topic AS topic FROM GleambookMessages m
			WHERE m.authorId % 2 = 0;`,
		"result-after-order": `SELECT m.messageId AS id, m.message AS msg FROM GleambookMessages m
			ORDER BY m.authorId % 3 DESC, m.messageId LIMIT 9 OFFSET 2;`,
		"push-select": `SELECT m.messageId AS id, m.topic AS topic FROM GleambookMessages m
			WHERE m.authorId >= 3 AND m.topic > "topic1" ORDER BY m.messageId DESC;`,
		"push-aggregate-into-join": `SELECT g AS g, COUNT(*) AS n, SUM(m.messageId) AS s, MAX(m.topic) AS t
			FROM GleambookUsers u, GleambookMessages m WHERE m.authorId = u.id
			GROUP BY u.id % 7 AS g ORDER BY g;`,
	} {
		t.Run(rule, func(t *testing.T) {
			ablated := newEngine(t, Config{OptimizerDisable: []string{rule}})
			seedEquivData(t, ablated)
			rFull, err := full.Query(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			rAb, err := ablated.Query(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if rFull.RulesFired[rule] == 0 {
				t.Errorf("full engine should fire %s: %v", rule, rFull.RulesFired)
			}
			if rAb.RulesFired[rule] != 0 {
				t.Errorf("ablated engine fired a disabled rule: %v", rAb.RulesFired)
			}
			a, b := make([]string, len(rFull.Rows)), make([]string, len(rAb.Rows))
			for i, v := range rFull.Rows {
				a[i] = v.String()
			}
			for i, v := range rAb.Rows {
				b[i] = v.String()
			}
			if strings.Contains(q, "ORDER BY") && rule != "order-joins-greedily" &&
				strings.Join(a, "\n") != strings.Join(b, "\n") {
				t.Errorf("ablation changed the row order:\n%s\nvs\n%s", strings.Join(a, "\n"), strings.Join(b, "\n"))
			}
			sort.Strings(a)
			sort.Strings(b)
			if strings.Join(a, "\n") != strings.Join(b, "\n") {
				t.Error("ablation changed answers")
			}
		})
	}
}

// An OptimizerDisable name that is no rule fails Open with an error naming
// it and the rules: a misspelt or renamed rule would otherwise make its
// ablation a silent no-op.
func TestOptimizerDisableRuleUnknownName(t *testing.T) {
	e, err := Open(Config{DataDir: t.TempDir(), OptimizerDisable: []string{"push-select", "no-such-rule"}})
	if err == nil {
		e.Close()
		t.Fatal("Open accepted an unknown rule name")
	}
	for _, want := range []string{`"no-such-rule"`, "quantifier-to-semijoin", "push-select", "prune-columns"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// A query renders its plan only when asked: a point lookup's Result carries
// the optimized plan, and neither renderer runs until PlanText or PlanJSON
// is called.
func TestQueryRendersPlanOnlyWhenAsked(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, gleambookDDL)
	seedUsers(t, e, 10)
	renders := 0
	text, tree := renderPlanText, renderPlanJSON
	renderPlanText = func(op algebricks.Op) string { renders++; return text(op) }
	renderPlanJSON = func(op algebricks.Op) string { renders++; return tree(op) }
	defer func() { renderPlanText, renderPlanJSON = text, tree }()

	r, err := e.Query(context.Background(), `SELECT VALUE u FROM GleambookUsers u WHERE u.id = 3;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Plan == nil || renders != 0 {
		t.Fatalf("point query: %d rows, plan %v, %d renders; want 1 row, a plan and no render", len(r.Rows), r.Plan != nil, renders)
	}
	if !strings.Contains(r.PlanText(), "index-search(GleambookUsers.id PRIMARY as u)") ||
		!strings.Contains(r.PlanJSON(), `"op":"result"`) || renders != 2 {
		t.Errorf("asked for the plan: %d renders, text\n%s", renders, r.PlanText())
	}
}

// TestResultCarriesPlanAndRules checks the observability surface on
// Result: plan text, JSON tree, and per-rule counts.
func TestResultCarriesPlanAndRules(t *testing.T) {
	e := newEngine(t, Config{})
	mustExec(t, e, gleambookDDL)
	seedUsers(t, e, 10)
	r, err := e.Query(context.Background(),
		`SELECT u.name AS n, m.messageId AS mid FROM GleambookUsers u, GleambookMessages m
			WHERE m.authorId = u.id AND u.id < 3 AND 1 = 1;`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.PlanText(), "index-search(GleambookUsers.id PRIMARY as u) range=(-inf..3)") ||
		!strings.Contains(r.PlanText(), "scan(GleambookMessages as m)") {
		t.Errorf("plan text: %s", r.PlanText())
	}
	if !strings.Contains(r.PlanJSON(), `"op":"result"`) {
		t.Errorf("plan JSON: %s", r.PlanJSON())
	}
	if r.RulesFired["recognize-hash-join"] == 0 || r.RulesFired["push-select"] == 0 || r.RulesFired["introduce-index-search"] == 0 {
		t.Errorf("expected hash-join recognition, filter motion and an index search: %v", r.RulesFired)
	}
	// The engine's registry must carry the per-rule counters (the
	// /admin/metrics surface).
	var sb strings.Builder
	if err := e.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "optimizer_plans_total") {
		t.Error("optimizer counters missing from engine registry")
	}
}
