// Package dist is the control plane of the multi-process test rig for
// the TCP frame transport: it turns a serializable job spec into
// identical hyracks DAGs on every participating node process,
// coordinates the READY/START barrier over the anet control channel,
// routes worker failures back to the driver, and drives retry-safe
// re-execution (RunWithRetry) with attempt-scoped job ids so a retried
// attempt never sees the dead attempt's frames. SQL++ does not run on
// it; queries run on hyracks.Cluster in one process.
package dist

import (
	"fmt"
	"sort"

	"asterix/internal/adm"
	"asterix/internal/hyracks"
)

// Spec is a serializable dataflow job: operators by kind, edges by
// operator index. Every process of an attempt builds its DAG from the
// same spec, so plan shape is structurally identical everywhere and
// only the placement decides which tasks run locally.
type Spec struct {
	// ID names the job; each attempt runs under the attempt-scoped id
	// "ID#n".
	ID    string     `json:"id"`
	Ops   []OpSpec   `json:"ops"`
	Edges []EdgeSpec `json:"edges"`
}

// OpSpec describes one operator. Kind is gen, hashjoin, groupby or
// collect; the remaining fields are that kind's parameters (unused
// fields stay zero). A collect always runs on the driving node, so the
// results land where the query ran.
type OpSpec struct {
	Kind        string `json:"kind"`
	Name        string `json:"name"`
	Parallelism int    `json:"parallelism"`

	// gen: Rows per partition; keys are sequential int64s modulo KeyMod
	// (0 = no wrap), so two gen operators with the same KeyMod produce
	// joinable key sets deterministically.
	Rows   int64 `json:"rows,omitempty"`
	KeyMod int64 `json:"keyMod,omitempty"`

	// hashjoin: equi-join input port 0 (left) with port 1 (right).
	LeftCols   []int `json:"leftCols,omitempty"`
	RightCols  []int `json:"rightCols,omitempty"`
	RightWidth int   `json:"rightWidth,omitempty"`

	// groupby: hash aggregation.
	GroupCols []int     `json:"groupCols,omitempty"`
	Aggs      []AggSpec `json:"aggs,omitempty"`
}

// AggSpec selects one aggregate for a groupby operator.
type AggSpec struct {
	Kind string `json:"kind"` // a name in hyracks.Aggregates
	Col  int    `json:"col"`
}

// EdgeSpec wires Ops[From] to input port Port of Ops[To].
type EdgeSpec struct {
	From     int    `json:"from"`
	To       int    `json:"to"`
	Port     int    `json:"port"`
	Conn     string `json:"conn"` // hash | merge
	HashCols []int  `json:"hashCols,omitempty"`
}

// buildGen emits Rows tuples per partition: (int64 key, string tag).
// Keys are globally sequential across partitions, wrapped at KeyMod, so
// the data is deterministic regardless of which node runs the task.
func buildGen(op OpSpec) *hyracks.Operator {
	rows, keyMod := op.Rows, op.KeyMod
	return hyracks.NewScan(op.Name, op.Parallelism, func(tc *hyracks.TaskContext, emit func(hyracks.Tuple) error) error {
		base := int64(tc.Partition) * rows
		for i := int64(0); i < rows; i++ {
			k := base + i
			if keyMod > 0 {
				k %= keyMod
			}
			t := hyracks.Tuple{adm.Int64(k), adm.String(fmt.Sprintf("%s-%d-%d", op.Name, tc.Partition, i))}
			if err := emit(t); err != nil {
				return err
			}
		}
		return nil
	})
}

func buildGroupBy(op OpSpec) (*hyracks.Operator, error) {
	aggs := make([]hyracks.AggSpec, 0, len(op.Aggs))
	for _, a := range op.Aggs {
		agg, ok := hyracks.Aggregates[a.Kind]
		if !ok {
			return nil, fmt.Errorf("dist: groupby %s: unknown aggregate %q", op.Name, a.Kind)
		}
		aggs = append(aggs, agg(a.Col))
	}
	return hyracks.NewGroupBy(op.Name, op.Parallelism, op.GroupCols, aggs), nil
}

// BuildJob materializes the spec into a hyracks DAG whose collect sink
// feeds result. Every process of an attempt calls this and gets a
// structurally identical job; only the driving node runs the collect,
// so results accumulate exactly where the driver reads them.
func BuildJob(spec *Spec, result *hyracks.Collector) (*hyracks.Job, error) {
	if spec.ID == "" {
		return nil, fmt.Errorf("dist: spec needs an id")
	}
	j := hyracks.NewJob()
	ops := make([]*hyracks.Operator, len(spec.Ops))
	for i, os := range spec.Ops {
		var op *hyracks.Operator
		switch os.Kind {
		case "gen":
			op = buildGen(os)
		case "hashjoin":
			if len(os.LeftCols) == 0 || len(os.LeftCols) != len(os.RightCols) {
				return nil, fmt.Errorf("dist: hashjoin %s needs matching leftCols/rightCols", os.Name)
			}
			op = hyracks.NewHashJoin(os.Name, os.Parallelism, os.LeftCols, os.RightCols,
				hyracks.InnerJoin, os.RightWidth, nil)
		case "groupby":
			var err error
			if op, err = buildGroupBy(os); err != nil {
				return nil, err
			}
		case "collect":
			op = hyracks.NewSink(os.Name, 1, result)
		default:
			return nil, fmt.Errorf("dist: unknown op kind %q (op %d)", os.Kind, i)
		}
		ops[i] = j.Add(op)
	}
	for i, es := range spec.Edges {
		if es.From < 0 || es.From >= len(ops) || es.To < 0 || es.To >= len(ops) {
			return nil, fmt.Errorf("dist: edge %d references unknown op", i)
		}
		var conn hyracks.Connector
		switch es.Conn {
		case "hash":
			conn = hyracks.HashPartition(es.HashCols...)
		case "merge":
			conn = hyracks.MergeUnordered()
		default:
			return nil, fmt.Errorf("dist: edge %d: unknown connector %q", i, es.Conn)
		}
		if err := j.Connect(ops[es.From], ops[es.To], es.Port, conn); err != nil {
			return nil, err
		}
	}
	return j, nil
}

// Assign computes the attempt's (operator, partition) → node placement
// over the alive members: a collect goes to the coordinator, everything
// else spreads round-robin over the members in sorted-id order. The
// driver computes it ONCE per attempt and ships the result in the job
// message, so every process places tasks identically even if their
// liveness views drift mid-attempt.
func Assign(spec *Spec, members []string, coordinator string) (map[string][]string, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("dist: no alive members to place on")
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	assign := make(map[string][]string, len(spec.Ops))
	for _, os := range spec.Ops {
		if _, dup := assign[os.Name]; dup {
			return nil, fmt.Errorf("dist: duplicate operator name %q", os.Name)
		}
		if os.Kind == "collect" {
			assign[os.Name] = []string{coordinator}
			continue
		}
		nodes := make([]string, max(1, os.Parallelism))
		for p := range nodes {
			nodes[p] = sorted[p%len(sorted)]
		}
		assign[os.Name] = nodes
	}
	return assign, nil
}

// assignFunc adapts a shipped assignment table to Placement.Assign.
func assignFunc(assign map[string][]string) func(op string, part int) string {
	return func(op string, part int) string {
		nodes := assign[op]
		if len(nodes) == 0 {
			return ""
		}
		return nodes[part%len(nodes)]
	}
}
