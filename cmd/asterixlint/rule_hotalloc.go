package main

import (
	"fmt"
	"go/token"
	"strings"
)

// ruleHotAlloc enforces that registered hot roots — per-tuple operator
// kernels, ADM comparators/serde, storage iterator Next paths — are
// transitively allocation-free. The walk descends through the summary
// table from each root: direct allocation sites (composite literals,
// non-self append growth, interface boxing, closures, string
// conversions, make/new) are findings wherever they are reached, and so
// are calls the engine cannot prove allocation-free — external callees
// off the NonAllocExt whitelist, dynamic calls, and interface calls
// with no module implementer. Allocations inside panic arguments are
// exempt (error paths are not hot), and `go`-launched work is charged
// once at the launch, not followed.
//
// A finding is silenced where the allocation is genuinely cold with a
// reasoned `//lint:ignore hot-alloc <reason>` at the allocation site —
// the deep site, not the root: one directive covers the chain from
// every root that reaches it. A directive on a *call* line is a cold
// barrier: the walk does not descend into that callee at all, which is
// how a rarely-taken subtree (fault probes, cache-miss eviction) is
// excluded with one reasoned line instead of a directive per site.
func ruleHotAlloc() *Rule {
	return &Rule{
		Name:   "hot-alloc",
		Doc:    "registered hot-path kernels must be transitively allocation-free",
		Interp: runHotAlloc,
	}
}

// shortID trims the module prefix for readable chains.
func shortID(id string) string {
	return strings.TrimPrefix(id, "asterix/internal/")
}

func chainSuffix(chain []string) string {
	if len(chain) <= 1 {
		return ""
	}
	parts := make([]string, len(chain))
	for i, id := range chain {
		parts[i] = shortID(id)
	}
	return " [via " + strings.Join(parts, " -> ") + "]"
}

// extAllowed matches name against a whitelist; entries ending in "."
// are prefixes ("sync/atomic.", "sync.(Mutex).").
func extAllowed(list []string, name string) bool {
	for _, e := range list {
		if e == name || (strings.HasSuffix(e, ".") && strings.HasPrefix(name, e)) {
			return true
		}
	}
	return false
}

func runHotAlloc(c *Config, ip *Interp, report func(token.Pos, string)) {
	reported := map[token.Pos]bool{}
	emit := func(pos token.Pos, msg string) {
		if !reported[pos] {
			reported[pos] = true
			report(pos, msg)
		}
	}
	for _, root := range c.HotRoots {
		rootID := root.ID()
		if ip.Summary(rootID) == nil {
			continue // root's package not in this run
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
			for _, a := range s.Allocs {
				emit(a.P, fmt.Sprintf("%s in hot path rooted at %s%s", a.What, shortID(rootID), via))
			}
			for _, e := range s.Edges {
				if e.Go {
					continue // launch already charged as an alloc site
				}
				if ip.Suppressed("hot-alloc", e.P) {
					continue // reasoned cold barrier at the call line
				}
				switch e.Kind {
				case "static", "method":
					visit(e.Callees[0], chain)
				case "ref":
					callee := e.Callees[0]
					if strings.Contains(callee, ".(") {
						emit(e.P, fmt.Sprintf("method value of %s allocates in hot path rooted at %s%s",
							shortID(callee), shortID(rootID), via))
					}
					visit(callee, chain)
				case "interface":
					if len(e.Callees) == 0 {
						emit(e.P, fmt.Sprintf("interface call %s has no module implementer: cannot prove allocation-free in hot path rooted at %s%s",
							shortID(e.Ext), shortID(rootID), via))
						continue
					}
					for _, callee := range e.Callees {
						visit(callee, chain)
					}
				case "dynamic":
					emit(e.P, fmt.Sprintf("dynamic call cannot be proven allocation-free in hot path rooted at %s%s",
						shortID(rootID), via))
				case "external":
					if !extAllowed(c.NonAllocExt, e.Ext) {
						emit(e.P, fmt.Sprintf("call to %s is not proven allocation-free in hot path rooted at %s%s (whitelist in NonAllocExt or restructure)",
							e.Ext, shortID(rootID), via))
					}
				}
			}
		}
		visit(rootID, nil)
	}
}
