package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// ruleLockOrder builds a repo-global lock-acquisition graph and reports
// cycles in it — the static form of the deadlock the fault matrix can
// only hope to stumble into. It reads the held-lock pass (locks.go):
// every blocking acquisition taken while another global lock is held
// contributes an edge (held → acquired), keyed by
// (package, receiver type, field). After all packages are scanned the
// graph is checked: any cycle is reported once, with the witness
// acquisition sites of every edge on it.
//
// Precision limits (see docs/STATIC_ANALYSIS.md): the abstraction
// collapses instances onto their declaring field, so hand-over-hand
// locking of two instances of one field reports as a self-cycle — which
// is why self-edges are ignored — and nesting that spans a call
// boundary (caller locks A, callee locks B) is invisible to the
// intraprocedural pass. Non-blocking TryLock acquisitions never close a
// cycle: a deadlock needs every participant to block.
func ruleLockOrder() *Rule {
	g := &lockOrderGraph{edges: map[string]map[string]lockOrderWitness{}}
	return &Rule{
		Name:   "lock-order",
		Doc:    "the repo-global mutex acquisition graph must stay acyclic",
		Run:    g.run,
		Finish: g.finish,
	}
}

// lockOrderWitness records where one ordered pair was observed: the
// acquisition that was already held, and the one taken under it.
type lockOrderWitness struct {
	heldAt, takenAt token.Pos
}

type lockOrderGraph struct {
	edges map[string]map[string]lockOrderWitness // from(held) → to(taken)
}

func (g *lockOrderGraph) run(c *Config, p *Package, report func(token.Pos, string)) {
	funcBodies(p, func(_ *ast.FuncDecl, _ *ast.FuncLit, body *ast.BlockStmt) {
		for _, at := range heldLocks(p, body).nodes {
			if _, ok := at.node.(*ast.DeferStmt); ok {
				continue
			}
			for _, ev := range lockCalls(p, at.node) {
				// Only blocking acquisitions take edges; TryLock holds
				// but cannot be the blocked party.
				if (ev.method != "Lock" && ev.method != "RLock") || !ev.key.global {
					continue
				}
				for id, held := range at.held {
					if held.global {
						g.addEdge(id, ev.key.id, lockOrderWitness{heldAt: held.pos, takenAt: ev.pos})
					}
				}
			}
		}
	})
}

func (g *lockOrderGraph) addEdge(from, to string, w lockOrderWitness) {
	if from == to {
		return // instance-collapsed self-edges are noise, not deadlocks
	}
	m := g.edges[from]
	if m == nil {
		m = map[string]lockOrderWitness{}
		g.edges[from] = m
	}
	if cur, ok := m[to]; !ok || w.takenAt < cur.takenAt {
		m[to] = w
	}
}

func (g *lockOrderGraph) finish(c *Config, fset *token.FileSet, report func(token.Pos, string)) {
	// Find strongly connected components with ≥ 2 nodes; each is at
	// least one acquisition-order cycle.
	nodes := make([]string, 0, len(g.edges))
	seen := map[string]bool{}
	for from, m := range g.edges {
		if !seen[from] {
			seen[from] = true
			nodes = append(nodes, from)
		}
		for to := range m {
			if !seen[to] {
				seen[to] = true
				nodes = append(nodes, to)
			}
		}
	}
	sort.Strings(nodes)

	comp := tarjanSCC(nodes, g.edges)
	reported := map[string]bool{}
	for _, scc := range comp {
		if len(scc) < 2 {
			continue
		}
		sort.Strings(scc)
		sig := strings.Join(scc, "|")
		if reported[sig] {
			continue
		}
		reported[sig] = true
		cycle := shortestCycle(scc[0], scc, g.edges)
		if len(cycle) == 0 {
			continue
		}
		var b strings.Builder
		b.WriteString("lock-order cycle: ")
		for i, id := range cycle {
			if i > 0 {
				b.WriteString(" → ")
			}
			b.WriteString(shortLockID(id))
		}
		b.WriteString(" → ")
		b.WriteString(shortLockID(cycle[0]))
		for i, id := range cycle {
			next := cycle[(i+1)%len(cycle)]
			w := g.edges[id][next]
			tp := fset.Position(w.takenAt)
			hp := fset.Position(w.heldAt)
			fmt.Fprintf(&b, "; %s taken at %s:%d while %s held (locked %s:%d)",
				shortLockID(next), shortPath(tp.Filename), tp.Line,
				shortLockID(id), shortPath(hp.Filename), hp.Line)
		}
		// Anchor the diagnostic at the first edge's second acquisition.
		report(g.edges[cycle[0]][cycle[1]].takenAt, b.String())
	}
}

// tarjanSCC computes strongly connected components over the string
// graph, deterministically (nodes pre-sorted, successors sorted).
func tarjanSCC(nodes []string, edges map[string]map[string]lockOrderWitness) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var comps [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true

		succs := make([]string, 0, len(edges[v]))
		for w := range edges[v] {
			succs = append(succs, w)
		}
		sort.Strings(succs)
		for _, w := range succs {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			comps = append(comps, scc)
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}
	return comps
}

// shortestCycle finds a minimal cycle through start within the SCC by
// breadth-first search.
func shortestCycle(start string, scc []string, edges map[string]map[string]lockOrderWitness) []string {
	in := map[string]bool{}
	for _, n := range scc {
		in[n] = true
	}
	type qe struct {
		node string
		path []string
	}
	queue := []qe{{start, []string{start}}}
	visited := map[string]bool{start: true}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		succs := make([]string, 0, len(edges[cur.node]))
		for w := range edges[cur.node] {
			succs = append(succs, w)
		}
		sort.Strings(succs)
		for _, w := range succs {
			if w == start && len(cur.path) > 1 {
				return cur.path
			}
			if !in[w] || visited[w] {
				continue
			}
			visited[w] = true
			path := append(append([]string{}, cur.path...), w)
			queue = append(queue, qe{w, path})
		}
	}
	// Two-node cycle that BFS missed (start→w→start with path len 1).
	for w := range edges[start] {
		if in[w] && edges[w] != nil {
			if _, back := edges[w][start]; back {
				return []string{start, w}
			}
		}
	}
	return nil
}

// shortPath trims a filename to its last two path elements.
func shortPath(name string) string {
	parts := strings.Split(name, "/")
	if len(parts) <= 2 {
		return name
	}
	return strings.Join(parts[len(parts)-2:], "/")
}
