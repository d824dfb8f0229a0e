package main

import (
	"fmt"
	"go/token"
)

// ruleWaitAttrib enforces that every blocking operation reachable from
// an operator task root — channel sends/receives and enumerated blocking
// externals like file reads and WaitGroup waits — is covered by wait
// attribution: either a
// `defer ctx.AddWait(...)(...)`-style deferred stopwatch active at the
// site, or an AddWait call that dominates it on every non-loop path.
// Unattributed blocking skews the perf harness's wait-time breakdown:
// the stall happens, the operator's span never sees it, and the
// regression gate compares against a hole.
//
// The walk descends only through UNattributed call edges: if the caller
// wraps the whole call in attribution, everything beneath it is already
// timed and charged to the right span. `go`-launched work is not
// followed (the new goroutine's waits are its own task's to attribute).
func ruleWaitAttrib() *Rule {
	return &Rule{
		Name:   "wait-attrib",
		Doc:    "blocking operations reachable from operator tasks must route through wait attribution",
		Interp: runWaitAttrib,
	}
}

func runWaitAttrib(c *Config, ip *Interp, report func(token.Pos, string)) {
	reported := map[token.Pos]bool{}
	emit := func(pos token.Pos, msg string) {
		if !reported[pos] {
			reported[pos] = true
			report(pos, msg)
		}
	}
	for _, root := range c.WaitRoots {
		rootID := root.ID()
		if ip.Summary(rootID) == nil {
			continue
		}
		visited := map[string]bool{}
		var visit func(id string, chain []string)
		visit = func(id string, chain []string) {
			if visited[id] {
				return
			}
			visited[id] = true
			s := ip.Summary(id)
			if s == nil {
				return
			}
			chain = append(chain, id)
			via := chainSuffix(chain)
			for _, b := range s.Blocks {
				if b.Attributed {
					continue
				}
				emit(b.P, fmt.Sprintf("%s reachable from operator task %s is not covered by wait attribution%s (route through TaskContext.AddWait)",
					b.What, shortID(rootID), via))
			}
			for _, e := range s.Edges {
				if e.Go || e.Attributed {
					continue
				}
				if ip.Suppressed("wait-attrib", e.P) {
					continue // reasoned barrier: callee's waits accepted as untracked
				}
				switch e.Kind {
				case "static", "method", "ref":
					visit(e.Callees[0], chain)
				case "interface":
					for _, callee := range e.Callees {
						visit(callee, chain)
					}
				}
				// external blockers already surfaced as Block sites in
				// this summary; dynamic calls are a documented recall gap.
			}
		}
		visit(rootID, nil)
	}
}
