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

// TestOptimizerOnOffEquivalence runs a corpus of fixed and generated
// queries against engines over identical data — one with the optimizer,
// one with OptimizerOff, and one each with only the access-path rule, the
// bounded-sort rule or column pruning disabled — and requires identical
// result multisets. Any rule that changes answers shows up here. The last
// two ablations leave the rest of the plan alone, so on ORDER BY queries
// they must also return the optimized engine's rows in its exact order:
// a bounded sort is the prefix of the full sort, ties included.
func TestOptimizerOnOffEquivalence(t *testing.T) {
	on := newEngine(t, Config{})
	off := newEngine(t, Config{OptimizerOff: true})
	ablated := map[string]*Engine{"optimized": on}
	for name, rule := range map[string]string{
		"no index search": "introduce-index-search",
		"no bounded sort": "push-limit-into-order",
		"no field lists":  "prune-columns",
	} {
		ablated[name] = newEngine(t, Config{OptimizerDisable: []string{rule}})
		seedEquivData(t, ablated[name])
	}
	seedEquivData(t, on)
	seedEquivData(t, off)

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
		// ORDER BY … LIMIT as a bounded sort: tie-heavy keys (over plain
		// scans, whose arrival order every engine shares), LIMIT 0, LIMIT
		// and OFFSET beyond the input, a sort above a group-by that also
		// selects the aggregate it orders by.
		`SELECT VALUE m.messageId FROM GleambookMessages m ORDER BY m.authorId % 3 LIMIT 10;`,
		`SELECT VALUE m.messageId FROM GleambookMessages m WHERE m.messageId % 5 != 1
			ORDER BY m.authorId % 3 DESC, m.messageId % 2 LIMIT 7 OFFSET 5;`,
		`SELECT VALUE m.messageId FROM GleambookMessages m ORDER BY 1 LIMIT 4;`,
		`SELECT VALUE u.name FROM GleambookUsers u ORDER BY u.alias LIMIT 0;`,
		`SELECT VALUE u.name FROM GleambookUsers u ORDER BY u.userSince DESC, u.id LIMIT 1000;`,
		`SELECT VALUE u.name FROM GleambookUsers u ORDER BY u.userSince, u.id DESC LIMIT 5 OFFSET 28;`,
		`SELECT VALUE u.name FROM GleambookUsers u ORDER BY u.id OFFSET 40;`,
		`SELECT u.alias AS alias, COUNT(*) AS cnt FROM GleambookUsers u, GleambookMessages m
			WHERE m.authorId = u.id AND m.messageId % 4 < 3 GROUP BY u.alias ORDER BY cnt DESC, alias ASC LIMIT 5;`,
		`SELECT g AS g, COUNT(*) AS cnt, COUNT(*) + SUM(m.messageId) AS s FROM GleambookMessages m
			GROUP BY m.authorId % 4 AS g HAVING COUNT(*) > 1 ORDER BY COUNT(*) DESC, g LIMIT 3;`,
		// Leaves decoding only the fields read: optional and undeclared
		// fields absent from some records, a record used both through a
		// field and whole, nested and indexed access, no field at all, a
		// secondary-index fetch, a join projecting each side differently.
		`SELECT m.messageId AS id, m.topic AS topic, m.senderLocation AS loc, m.inResponseTo AS re
			FROM GleambookMessages m WHERE m.messageId < 12;`,
		`SELECT VALUE m.topic FROM GleambookMessages m ORDER BY m.topic DESC, m.messageId LIMIT 8;`,
		`SELECT VALUE m.nope FROM GleambookMessages m WHERE m.messageId < 3;`,
		`SELECT m.messageId AS id, m AS rec FROM GleambookMessages m WHERE m.authorId = 4;`,
		`SELECT VALUE m FROM GleambookMessages m WHERE m.topic = "topic3";`,
		`SELECT * FROM GleambookMessages m WHERE m.messageId = 9;`,
		`SELECT VALUE u.employment[0].organizationName FROM GleambookUsers u WHERE u.id < 4;`,
		`SELECT VALUE coll_count(u.friendIds) FROM GleambookUsers u WHERE u.id < 4;`,
		`SELECT VALUE COUNT(*) FROM GleambookMessages m;`,
		`SELECT VALUE u.alias FROM GleambookUsers u WHERE u.userSince >= datetime("2015-01-01T00:00:00");`,
		`SELECT u.name AS n, m.message AS msg FROM GleambookUsers u, GleambookMessages m
			WHERE m.authorId = u.id AND m.topic = "topic0";`,
		`SELECT VALUE x.alias FROM GleambookUsers u LET x = u WHERE u.id < 3;`,
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
		inOrder := orderedRows(t, on, q)
		for name, e := range ablated {
			got := orderedRows(t, e, q)
			if name != "no index search" && strings.Contains(q, "ORDER BY") &&
				strings.Join(got, "\n") != strings.Join(inOrder, "\n") {
				t.Errorf("query %d: %s engine orders rows differently\n%s:\n%s\noptimized:\n%s\n%s",
					i, name, name, strings.Join(got, "\n"), strings.Join(inOrder, "\n"), q)
			}
			sort.Strings(got)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("query %d: %s engine differs from naive\n%s:\n%s\nnaive:\n%s\n%s",
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
		"push-limit-into-order": `SELECT VALUE m.messageId FROM GleambookMessages m
			ORDER BY m.authorId % 3 DESC LIMIT 9 OFFSET 2;`,
		"prune-columns": `SELECT m.messageId AS id, m.topic AS topic FROM GleambookMessages m
			WHERE m.authorId % 2 = 0;`,
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
			sort.Strings(a)
			sort.Strings(b)
			if strings.Join(a, "\n") != strings.Join(b, "\n") {
				t.Error("ablation changed answers")
			}
		})
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
