package experiments

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"asterix/internal/core"
)

// E16OptimizerJoinOrder quantifies the rule-driven optimizer's greedy join
// ordering on the paper's Gleambook workload. The same 3-way join — two
// message sets fanned out from their shared author — runs on two engines
// over identical data: one with the full rule pipeline, one with only
// order-joins-greedily disabled (every other rewrite still applies, so the
// gap isolates join order). The FROM clause lists the two message sets
// first, so the naive left-deep plan pays a filtered cross product before
// ever seeing the equi-join with users; the greedy order joins each
// message set to users through its equality key instead.
func E16OptimizerJoinOrder(scale Scale, workDir string) (*Report, error) {
	rep := &Report{
		ID:     "E16",
		Claim:  "greedy join ordering: equi-connected relations join early, cross products sink — less data moved, faster joins",
		Header: []string{"engine", "time", "tuples-moved", "join-order-fired", "rows"},
	}
	dir := filepath.Join(workDir, "e16")
	defer removeScratch(dir)

	open := func(sub string, disable []string) (*core.Engine, error) {
		return core.Open(core.Config{
			DataDir:          filepath.Join(dir, sub),
			Partitions:       2,
			NoSyncCommits:    true,
			OptimizerDisable: disable,
			Now:              fixedClock(),
		})
	}
	naive, err := open("naive", []string{"order-joins-greedily"})
	if err != nil {
		return nil, err
	}
	defer naive.Close()
	optimized, err := open("optimized", nil)
	if err != nil {
		return nil, err
	}
	defer optimized.Close()

	for _, e := range []*core.Engine{naive, optimized} {
		if err := ingestGleambook(e, scale.Users/4, scale.Messages/4, 16); err != nil {
			return nil, err
		}
	}

	// Both message sets restricted to the first K ids keeps the naive
	// cross product measurable without drowning the run.
	k := scale.Messages / 40
	query := fmt.Sprintf(`
		SELECT m1.messageId AS a, m2.messageId AS b
		FROM GleambookMessages m1, GleambookMessages m2, GleambookUsers u
		WHERE m1.authorId = u.id AND m2.authorId = u.id
		  AND m1.messageId < %d AND m2.messageId < %d
		  AND m1.messageId < m2.messageId;`, k, k)

	type runOut struct {
		elapsed time.Duration
		moved   int64
		fired   int
		rows    []string
	}
	run := func(e *core.Engine) (runOut, error) {
		before := e.Cluster().TotalStats()
		t0 := time.Now()
		res, err := e.Query(rep.Ctx(), query)
		if err != nil {
			return runOut{}, err
		}
		elapsed := time.Since(t0)
		after := e.Cluster().TotalStats()
		rows := make([]string, len(res.Rows))
		for i, v := range res.Rows {
			rows[i] = v.String()
		}
		sort.Strings(rows)
		return runOut{
			elapsed: elapsed,
			moved:   (after.TuplesIn - before.TuplesIn) + (after.TuplesOut - before.TuplesOut),
			fired:   res.RulesFired["order-joins-greedily"],
			rows:    rows,
		}, nil
	}

	nv, err := run(naive)
	if err != nil {
		return nil, fmt.Errorf("E16 naive: %w", err)
	}
	op, err := run(optimized)
	if err != nil {
		return nil, fmt.Errorf("E16 optimized: %w", err)
	}

	// Same data, same query: any answer difference is an optimizer bug.
	if len(nv.rows) != len(op.rows) {
		return nil, fmt.Errorf("E16: naive returned %d rows, optimized %d", len(nv.rows), len(op.rows))
	}
	for i := range nv.rows {
		if nv.rows[i] != op.rows[i] {
			return nil, fmt.Errorf("E16: row %d differs between engines", i)
		}
	}
	if nv.fired != 0 {
		return nil, fmt.Errorf("E16: disabled rule fired %d times on the naive engine", nv.fired)
	}
	if op.fired == 0 {
		return nil, fmt.Errorf("E16: greedy ordering never fired on the optimized engine")
	}
	if op.moved >= nv.moved {
		return nil, fmt.Errorf("E16: optimizer moved %d tuples, naive %d — join order won nothing", op.moved, nv.moved)
	}
	if op.elapsed >= nv.elapsed {
		return nil, fmt.Errorf("E16: optimized (%v) not faster than naive (%v)", op.elapsed, nv.elapsed)
	}

	rep.Rows = append(rep.Rows,
		[]string{"naive", ms(nv.elapsed), fmt.Sprint(nv.moved), fmt.Sprint(nv.fired), fmt.Sprint(len(nv.rows))},
		[]string{"optimized", ms(op.elapsed), fmt.Sprint(op.moved), fmt.Sprint(op.fired), fmt.Sprint(len(op.rows))},
	)
	rep.Measure("e16_naive_join", "ms", float64(nv.elapsed.Microseconds())/1000)
	rep.Measure("e16_optimized_join", "ms", float64(op.elapsed.Microseconds())/1000)
	rep.Measure("e16_naive_tuples_moved", "tuples", float64(nv.moved))
	rep.Measure("e16_optimized_tuples_moved", "tuples", float64(op.moved))
	rep.MeasureHigher("e16_join_speedup", "x",
		float64(nv.elapsed.Microseconds())/float64(op.elapsed.Microseconds()))
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"3-way Gleambook join, both message sets limited to messageId < %d; optimized engine fired order-joins-greedily %d time(s)",
		k, op.fired))
	return rep, nil
}
