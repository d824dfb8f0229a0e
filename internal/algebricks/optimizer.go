package algebricks

import (
	"strings"

	"asterix/internal/obs"
)

// Rule is one named rewrite. Apply sweeps the whole plan and returns the
// (possibly replaced) root plus the number of rewrite sites that fired;
// zero means the plan is unchanged.
type Rule struct {
	Name  string
	Apply func(tr *Translator, plan Op) (Op, int)
}

// maxPasses bounds the fixpoint loop. Each pass runs every rule once over
// the whole plan; rules that sink operators one level per pass (select
// pushdown) need a pass per level, so the budget scales with realistic plan
// depth rather than rule count.
const maxPasses = 16

// OptReport summarizes one optimizer run.
type OptReport struct {
	// Fired maps rule name -> number of rewrite sites that fired.
	Fired map[string]int
	// Passes is the number of fixpoint passes executed.
	Passes int
	// BudgetExhausted is set when the pass budget ran out before fixpoint.
	BudgetExhausted bool
}

// Optimizer runs a registry of rewrite rules to fixpoint under a bounded
// pass budget, counting per-rule hits into an obs registry when wired.
type Optimizer struct {
	Rules []Rule
	// Disabled names rules to skip (experiment ablations, OptimizerDisable
	// config knob).
	Disabled map[string]bool

	fired   map[string]*obs.Counter
	mPlans  *obs.Counter
	mPasses *obs.Counter
	mBudget *obs.Counter
}

// NewOptimizer builds the default rule pipeline, registering per-rule
// fired counters on reg (obs handles are nil-safe, so reg may be nil).
func NewOptimizer(reg *obs.Registry) *Optimizer {
	o := &Optimizer{
		Rules: DefaultRules(),
		fired: map[string]*obs.Counter{},
	}
	for _, r := range o.Rules {
		o.fired[r.Name] = reg.Counter(
			"optimizer_rule_"+metricToken(r.Name)+"_fired_total",
			"Rewrite sites fired by optimizer rule "+r.Name)
	}
	o.mPlans = reg.Counter("optimizer_plans_total", "Plans optimized")
	o.mPasses = reg.Counter("optimizer_passes_total", "Fixpoint passes executed")
	o.mBudget = reg.Counter("optimizer_budget_exhausted_total",
		"Optimizer runs that hit the pass budget before fixpoint")
	return o
}

// metricToken converts a rule name to a metric-name token.
func metricToken(name string) string {
	return strings.ReplaceAll(name, "-", "_")
}

// Optimize runs the rules to fixpoint (or pass budget) and reports what
// fired.
func (o *Optimizer) Optimize(tr *Translator, plan Op) (Op, OptReport) {
	rep := OptReport{Fired: map[string]int{}}
	for pass := 0; pass < maxPasses; pass++ {
		rep.Passes = pass + 1
		changed := false
		for _, r := range o.Rules {
			if o.Disabled[r.Name] {
				continue
			}
			out, hits := r.Apply(tr, plan)
			if hits > 0 {
				plan = out
				changed = true
				rep.Fired[r.Name] += hits
				o.fired[r.Name].Add(int64(hits))
			}
		}
		if !changed {
			break
		}
		if pass == maxPasses-1 {
			rep.BudgetExhausted = true
			o.mBudget.Inc()
		}
	}
	o.mPlans.Inc()
	o.mPasses.Add(int64(rep.Passes))
	return plan, rep
}

// setInput replaces the i-th input of op (as ordered by Inputs()).
func setInput(op Op, i int, child Op) {
	switch o := op.(type) {
	case *SelectOp:
		o.In = child
	case *AssignOp:
		o.In = child
	case *UnnestOp:
		o.In = child
	case *ProjectOp:
		o.In = child
	case *JoinOp:
		if i == 0 {
			o.L = child
		} else {
			o.R = child
		}
	case *GroupOp:
		o.In = child
	case *ResultOp:
		o.In = child
	case *DistinctOp:
		o.In = child
	case *OrderOp:
		o.In = child
	case *LimitOp:
		o.In = child
	case *UnionAllOp:
		o.Ins[i] = child
	}
}

// sweep applies f once to every node bottom-up (children before parents)
// and returns the new root plus the number of nodes f changed. Nodes
// introduced by f are not revisited within the sweep; the fixpoint loop
// picks them up on the next pass.
func sweep(plan Op, f func(Op) (Op, bool)) (Op, int) {
	hits := 0
	var walk func(Op) Op
	walk = func(op Op) Op {
		for i, in := range op.Inputs() {
			nin := walk(in)
			if nin != in {
				setInput(op, i, nin)
			}
		}
		out, changed := f(op)
		if changed {
			hits++
		}
		return out
	}
	return walk(plan), hits
}
