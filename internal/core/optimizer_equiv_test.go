package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

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
		fmt.Fprintf(&sb, `UPSERT INTO GleambookMessages ({
			"messageId": %d, "authorId": %d, %s
			"message": "message number %d about topic%d"});`, i, i%30, loc, i, i%7)
	}
	mustExec(t, e, sb.String())
}

// sortedRows renders a result as a sorted multiset for order-insensitive
// comparison.
func sortedRows(t testing.TB, e *Engine, q string) []string {
	t.Helper()
	rows := queryRows(t, e, q)
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// TestOptimizerOnOffEquivalence runs a corpus of fixed and generated
// queries against engines over identical data — one with the optimizer,
// one with OptimizerOff, one with only the access-path rule disabled —
// and requires identical result multisets. Any rule that changes answers
// shows up here.
func TestOptimizerOnOffEquivalence(t *testing.T) {
	on := newEngine(t, Config{})
	off := newEngine(t, Config{OptimizerOff: true})
	noIndex := newEngine(t, Config{OptimizerDisable: []string{"introduce-index-search"}})
	seedEquivData(t, on)
	seedEquivData(t, off)
	seedEquivData(t, noIndex)

	queries := []string{
		// Filters, ranges (index-eligible), constant folding.
		`SELECT VALUE u.name FROM GleambookUsers u WHERE u.id < 5;`,
		`SELECT VALUE u.alias FROM GleambookUsers u WHERE u.id >= 2 + 3 AND u.id <= 10 AND 1 = 1;`,
		`SELECT VALUE u.name FROM GleambookUsers u
			WHERE u.userSince >= datetime("2012-01-01T00:00:00") AND u.userSince <= datetime("2014-12-31T23:59:59");`,
		// 2-way joins: straight, commuted, nested conjunction, constant eq.
		`SELECT u.name AS n, m.messageId AS mid FROM GleambookUsers u, GleambookMessages m
			WHERE m.authorId = u.id AND u.id < 6;`,
		`SELECT u.name AS n, m.messageId AS mid FROM GleambookUsers u, GleambookMessages m
			WHERE u.id = m.authorId AND m.messageId < 40;`,
		`SELECT u.alias AS a, m.messageId AS mid FROM GleambookUsers u, GleambookMessages m
			WHERE (m.authorId = u.id AND u.id < 10) AND m.messageId > 20;`,
		`SELECT u.name AS n, m.messageId AS mid FROM GleambookUsers u, GleambookMessages m
			WHERE u.id = 3 AND m.authorId = u.id;`,
		// 3-way join cluster (greedy ordering on, naive nested loops off).
		`SELECT u.name AS n, m1.messageId AS a, m2.messageId AS b
			FROM GleambookMessages m1, GleambookMessages m2, GleambookUsers u
			WHERE m1.authorId = u.id AND m2.authorId = u.id
			  AND m1.messageId < 30 AND m2.messageId < 30 AND m1.messageId < m2.messageId;`,
		// Grouping, aggregates, distinct, order/limit, unnest, subquery.
		`SELECT u.name AS name, COUNT(m) AS cnt
			FROM GleambookUsers u JOIN GleambookMessages m ON m.authorId = u.id
			GROUP BY u.name AS name;`,
		`SELECT DISTINCT VALUE m.authorId FROM GleambookMessages m WHERE m.messageId < 50;`,
		`SELECT VALUE u.name FROM GleambookUsers u ORDER BY u.id LIMIT 7 OFFSET 2;`,
		`SELECT VALUE f FROM GleambookUsers u UNNEST u.friendIds f WHERE u.id < 4;`,
		`SELECT VALUE coll_count((SELECT VALUE m FROM GleambookMessages m WHERE m.authorId = u.id))
			FROM GleambookUsers u WHERE u.id < 5;`,
		`SELECT VALUE u.name FROM GleambookUsers u
			WHERE SOME f IN u.friendIds SATISFIES f = 3;`,
		// The primary index as an access path: equality (either operand
		// order, int and double constants, absent keys), ranges, an extra
		// conjunct on a secondary-indexed field, a join input, LIMIT, and
		// a composite key (full, prefix, prefix + range, second field only).
		`SELECT VALUE u.name FROM GleambookUsers u WHERE 11 = u.id;`,
		`SELECT VALUE u.name FROM GleambookUsers u WHERE u.id = 12.0;`,
		`SELECT VALUE u.name FROM GleambookUsers u WHERE u.id = 12.5;`,
		`SELECT VALUE u.name FROM GleambookUsers u WHERE u.id = 1000;`,
		`SELECT VALUE u.name FROM GleambookUsers u WHERE u.id = -1;`,
		`SELECT VALUE u.name FROM GleambookUsers u WHERE u.id = "7";`,
		`SELECT VALUE u.name FROM GleambookUsers u WHERE 25 <= u.id;`,
		`SELECT VALUE u.name FROM GleambookUsers u WHERE u.id > 3.5 AND u.id <= 9;`,
		`SELECT VALUE u.name FROM GleambookUsers u WHERE u.id = 4 AND u.id > 7;`,
		`SELECT VALUE u.name FROM GleambookUsers u
			WHERE u.userSince >= datetime("2012-01-01T00:00:00") AND u.id = 10;`,
		`SELECT VALUE u.name FROM GleambookUsers u
			WHERE u.userSince >= datetime("2016-01-01T00:00:00") AND u.id = 10;`,
		`SELECT VALUE m.messageId FROM GleambookMessages m WHERE m.messageId >= 80 AND m.authorId = 5;`,
		`SELECT VALUE u.name FROM GleambookUsers u WHERE u.id >= 20 ORDER BY u.id LIMIT 3;`,
		`SELECT VALUE c.place FROM Checkins c WHERE c.day = 2 AND c.uid = 3;`,
		`SELECT VALUE c.place FROM Checkins c WHERE c.uid = 3.0 AND c.day = 2.0;`,
		`SELECT VALUE c.place FROM Checkins c WHERE c.uid = 3 AND c.day = 9;`,
		`SELECT VALUE c.place FROM Checkins c WHERE c.uid = 3;`,
		`SELECT VALUE c.place FROM Checkins c WHERE c.uid = 3 AND c.day > 0 AND c.day <= 2;`,
		`SELECT VALUE c.place FROM Checkins c WHERE c.uid >= 8;`,
		`SELECT VALUE c.place FROM Checkins c WHERE c.uid < 2 AND c.day = 1;`,
		`SELECT VALUE c.place FROM Checkins c WHERE c.day = 1;`,
	}
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
		for name, e := range map[string]*Engine{"optimized": on, "no index search": noIndex} {
			got := sortedRows(t, e, q)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("query %d: %s engine differs from naive\n%s:\n%s\nnaive:\n%s\n%s",
					i, name, name, strings.Join(got, "\n"), strings.Join(want, "\n"), q)
			}
		}
	}
}

// TestOptimizerDisableRule checks the per-rule ablation knob: with greedy
// ordering disabled the rule never fires, yet answers are unchanged.
func TestOptimizerDisableRule(t *testing.T) {
	full := newEngine(t, Config{})
	ablated := newEngine(t, Config{OptimizerDisable: []string{"order-joins-greedily"}})
	seedEquivData(t, full)
	seedEquivData(t, ablated)
	q := `SELECT u.name AS n, m1.messageId AS a, m2.messageId AS b
		FROM GleambookMessages m1, GleambookMessages m2, GleambookUsers u
		WHERE m1.authorId = u.id AND m2.authorId = u.id
		  AND m1.messageId < 20 AND m2.messageId < 20;`
	rFull, err := full.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	rAb, err := ablated.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if rFull.RulesFired["order-joins-greedily"] == 0 {
		t.Errorf("full engine should fire greedy ordering: %v", rFull.RulesFired)
	}
	if rAb.RulesFired["order-joins-greedily"] != 0 {
		t.Errorf("ablated engine fired a disabled rule: %v", rAb.RulesFired)
	}
	a, b := make([]string, len(rFull.Rows)), make([]string, len(rAb.Rows))
	for i, v := range rFull.Rows {
		a[i] = v.String()
	}
	for i, v := range rAb.Rows {
		b[i] = v.String()
	}
	sort.Strings(a)
	sort.Strings(b)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Error("ablation changed answers")
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
	if !strings.Contains(r.Plan, "index-search(GleambookUsers.id PRIMARY as u) range=(-inf..3)") ||
		!strings.Contains(r.Plan, "scan(GleambookMessages as m)") {
		t.Errorf("plan text: %s", r.Plan)
	}
	if !strings.Contains(r.PlanJSON, `"op":"result"`) {
		t.Errorf("plan JSON: %s", r.PlanJSON)
	}
	if r.RulesFired["recognize-hash-join"] == 0 || r.RulesFired["constant-fold"] == 0 || r.RulesFired["introduce-index-search"] == 0 {
		t.Errorf("expected hash-join recognition, constant folding and an index search: %v", r.RulesFired)
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
