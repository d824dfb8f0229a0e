// Package dist is the control plane of a multi-process cluster: it
// turns a serializable job spec into identical hyracks DAGs on every
// participating node process, coordinates the READY/START barrier over
// the anet control channel, routes worker failures back to the driver,
// and drives retry-safe re-execution (RunWithRetry) with attempt-scoped
// job ids so a retried attempt never sees the dead attempt's frames.
package dist

import (
	"fmt"
	"sort"

	"asterix/internal/adm"
	"asterix/internal/hyracks"
)

// Spec is a serializable dataflow job: operators by registered kind,
// edges by operator index. Every process of an attempt builds its DAG
// from the same spec, so plan shape is structurally identical
// everywhere and only the placement decides which tasks run locally.
type Spec struct {
	// ID names the job; each attempt runs under the attempt-scoped id
	// "ID#n".
	ID    string     `json:"id"`
	Ops   []OpSpec   `json:"ops"`
	Edges []EdgeSpec `json:"edges"`
}

// OpSpec describes one operator. Kind selects a registered builder;
// the remaining fields are that builder's parameters (unused fields
// stay zero).
type OpSpec struct {
	Kind        string `json:"kind"`
	Name        string `json:"name"`
	Parallelism int    `json:"parallelism"`
	// Pin forces every partition of the operator onto one node: a node
	// id, or PinCoordinator to follow the driving process (the collect
	// sink is pinned there so results land where the query ran).
	Pin string `json:"pin,omitempty"`

	// gen: Rows per partition; keys are sequential int64s modulo KeyMod
	// (0 = no wrap), so two gen operators with the same KeyMod produce
	// joinable key sets deterministically.
	Rows   int64 `json:"rows,omitempty"`
	KeyMod int64 `json:"keyMod,omitempty"`

	// filter: keep tuples whose column Col (int64) satisfies
	// value % Mod == Keep.
	Col  int   `json:"col,omitempty"`
	Mod  int64 `json:"mod,omitempty"`
	Keep int64 `json:"keep,omitempty"`

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
	Conn     string `json:"conn"` // 1to1 | hash | broadcast | merge | rr
	HashCols []int  `json:"hashCols,omitempty"`
}

// PinCoordinator pins an operator to whichever node drives the job.
const PinCoordinator = "@coordinator"

// BuildEnv is the per-process context handed to op builders.
type BuildEnv struct {
	// Node is the building process's node id.
	Node string
	// Coordinator is the driving node's id (what PinCoordinator
	// resolves to).
	Coordinator string
	// Result receives collect-op tuples. Every process builds the
	// collect sink against its own collector, but only the process the
	// op is pinned to ever runs it, so results accumulate exactly where
	// the driver reads them.
	Result *hyracks.Collector
}

// Builder constructs one operator from its spec.
type Builder func(op OpSpec, env *BuildEnv) (*hyracks.Operator, error)

var builders = map[string]Builder{}

// RegisterOp registers a builder for an operator kind. Kinds must be
// registered identically in every process of the cluster (same binary,
// same init), or specs will build on some nodes and fail on others.
func RegisterOp(kind string, b Builder) {
	if _, dup := builders[kind]; dup {
		panic(fmt.Sprintf("dist: op kind %q registered twice", kind))
	}
	builders[kind] = b
}

func init() {
	RegisterOp("gen", buildGen)
	RegisterOp("filter", buildFilter)
	RegisterOp("hashjoin", buildHashJoin)
	RegisterOp("groupby", buildGroupBy)
	RegisterOp("collect", buildCollect)
}

// buildGen emits Rows tuples per partition: (int64 key, string tag).
// Keys are globally sequential across partitions, wrapped at KeyMod, so
// the data is deterministic regardless of which node runs the task.
func buildGen(op OpSpec, _ *BuildEnv) (*hyracks.Operator, error) {
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
	}), nil
}

func buildFilter(op OpSpec, _ *BuildEnv) (*hyracks.Operator, error) {
	if op.Mod <= 0 {
		return nil, fmt.Errorf("dist: filter %s needs mod > 0", op.Name)
	}
	col, mod, keep := op.Col, op.Mod, op.Keep
	return hyracks.NewFilter(op.Name, op.Parallelism, func(t hyracks.Tuple) (bool, error) {
		if col >= len(t) {
			return false, fmt.Errorf("dist: filter %s: column %d out of range", op.Name, col)
		}
		v, ok := t[col].(adm.Int64)
		if !ok {
			return false, fmt.Errorf("dist: filter %s: column %d is not int64", op.Name, col)
		}
		return int64(v)%mod == keep, nil
	}), nil
}

func buildHashJoin(op OpSpec, _ *BuildEnv) (*hyracks.Operator, error) {
	if len(op.LeftCols) == 0 || len(op.LeftCols) != len(op.RightCols) {
		return nil, fmt.Errorf("dist: hashjoin %s needs matching leftCols/rightCols", op.Name)
	}
	return hyracks.NewHashJoin(op.Name, op.Parallelism, op.LeftCols, op.RightCols,
		hyracks.InnerJoin, op.RightWidth, nil), nil
}

func buildGroupBy(op OpSpec, _ *BuildEnv) (*hyracks.Operator, error) {
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

func buildCollect(op OpSpec, env *BuildEnv) (*hyracks.Operator, error) {
	if op.Pin == "" {
		return nil, fmt.Errorf("dist: collect %s must be pinned (results need one home)", op.Name)
	}
	return hyracks.NewSink(op.Name, 1, env.Result), nil
}

// BuildJob materializes the spec into a hyracks DAG using the
// registered builders. Every process of an attempt calls this with its
// own env and gets a structurally identical job.
func BuildJob(spec *Spec, env *BuildEnv) (*hyracks.Job, error) {
	if spec.ID == "" {
		return nil, fmt.Errorf("dist: spec needs an id")
	}
	j := hyracks.NewJob()
	ops := make([]*hyracks.Operator, len(spec.Ops))
	for i, os := range spec.Ops {
		b := builders[os.Kind]
		if b == nil {
			return nil, fmt.Errorf("dist: unknown op kind %q (op %d)", os.Kind, i)
		}
		op, err := b(os, env)
		if err != nil {
			return nil, err
		}
		ops[i] = j.Add(op)
	}
	for i, es := range spec.Edges {
		if es.From < 0 || es.From >= len(ops) || es.To < 0 || es.To >= len(ops) {
			return nil, fmt.Errorf("dist: edge %d references unknown op", i)
		}
		var conn hyracks.Connector
		switch es.Conn {
		case "1to1":
			conn = hyracks.OneToOne()
		case "hash":
			conn = hyracks.HashPartition(es.HashCols...)
		case "broadcast":
			conn = hyracks.Broadcast()
		case "merge":
			conn = hyracks.MergeUnordered()
		case "rr":
			conn = hyracks.RoundRobin()
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
// over the alive members: pinned operators go wholly to their pin
// (PinCoordinator resolves to coordinator), everything else spreads
// round-robin over the members in sorted-id order. The driver computes
// it ONCE per attempt and ships the result in the job message, so every
// process places tasks identically even if their liveness views drift
// mid-attempt.
func Assign(spec *Spec, members []string, coordinator string) (map[string][]string, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("dist: no alive members to place on")
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	assign := make(map[string][]string, len(spec.Ops))
	for _, os := range spec.Ops {
		par := os.Parallelism
		if par < 1 || os.Kind == "collect" {
			par = 1
		}
		nodes := make([]string, par)
		for p := 0; p < par; p++ {
			switch os.Pin {
			case "":
				nodes[p] = sorted[p%len(sorted)]
			case PinCoordinator:
				nodes[p] = coordinator
			default:
				nodes[p] = os.Pin
			}
		}
		if _, dup := assign[os.Name]; dup {
			return nil, fmt.Errorf("dist: duplicate operator name %q", os.Name)
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
