// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies and solves forward dataflow problems on them. It is
// the engine under asterixlint's flow-sensitive rules (lock-order,
// ctx-flow, defer-unlock); see docs/STATIC_ANALYSIS.md.
//
// The graph is deliberately simple: a Block is a maximal straight-line
// sequence of statements (plus the branch condition, when one ends the
// block), and an Edge carries just enough kind information for the
// rules to refine facts per branch (True/False), recognize loop
// back-edges, and distinguish normal returns from explicit panics.
// Defer statements are ordinary nodes — the rules interpret their
// exit-time effects — and function literals are opaque: each literal
// gets its own graph when the caller asks for one.
package cfg

import (
	"go/ast"
	"go/token"
)

// EdgeKind classifies a control-flow edge.
type EdgeKind uint8

const (
	// Flow is unconditional fallthrough control flow.
	Flow EdgeKind = iota
	// True is the taken branch of a condition (if, for-cond, TryLock
	// guards refine facts here).
	True
	// False is the not-taken branch of a condition.
	False
	// Back is a loop back-edge (body or post-statement to loop head).
	Back
	// Return enters the exit block from a return statement or from
	// falling off the end of the function.
	Return
	// Panic enters the panic block from an explicit panic(...) call.
	Panic
)

func (k EdgeKind) String() string {
	switch k {
	case Flow:
		return "flow"
	case True:
		return "true"
	case False:
		return "false"
	case Back:
		return "back"
	case Return:
		return "return"
	case Panic:
		return "panic"
	}
	return "?"
}

// Edge is one directed control-flow edge.
type Edge struct {
	To   *Block
	Kind EdgeKind
}

// Block is one basic block. Nodes holds the statements executed in
// order; a block ending in a branch holds the condition expression as
// its last node (ast.Expr), so a dataflow transfer sees it before the
// True/False edges fan out.
type Block struct {
	Index int
	Label string // diagnostic name: "entry", "if.then", "for.head", ...
	Nodes []ast.Node
	Succs []Edge
}

// Graph is the CFG of one function body.
type Graph struct {
	Blocks    []*Block // creation order; Blocks[0] is Entry
	Entry     *Block
	Exit      *Block    // target of every Return edge; has no successors
	PanicExit *Block    // target of explicit panic(...) edges
	End       token.Pos // closing brace of the body, for implicit-return diagnostics
}

// target is an unwind destination for break/continue, optionally
// labeled.
type target struct {
	label string
	brk   *Block
	cont  *Block // nil inside switch/select (no continue target)
	back  bool   // continue edge is a loop back-edge
}

type builder struct {
	g       *Graph
	cur     *Block // nil after a terminator (return/panic/break/...)
	targets []*target
	labels  map[string]*Block // goto/label name -> block
	// pendingLabel names the labeled statement being entered, so the
	// loop/switch it labels registers labeled break/continue targets.
	pendingLabel string
}

// New builds the graph for one function body.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{End: body.End()}
	b := &builder{g: g, labels: map[string]*Block{}}
	g.Entry = b.newBlock("entry")
	g.Exit = &Block{Label: "exit"}
	g.PanicExit = &Block{Label: "panic"}
	b.cur = g.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, g.Exit, Return) // implicit return at the closing brace
	}
	g.Blocks = append(g.Blocks, g.Exit, g.PanicExit)
	for i, blk := range g.Blocks {
		blk.Index = i
	}
	return g
}

func (b *builder) newBlock(label string) *Block {
	blk := &Block{Label: label}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block, kind EdgeKind) {
	from.Succs = append(from.Succs, Edge{To: to, Kind: kind})
}

// block returns the current block, starting an unreachable one if the
// previous statement terminated control flow (dead code still gets a
// structurally valid graph).
func (b *builder) block() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

func (b *builder) add(n ast.Node) {
	blk := b.block()
	blk.Nodes = append(blk.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for the loop/switch that claims
// it.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findTarget resolves a break/continue, innermost-first.
func (b *builder) findTarget(label string, cont bool) *target {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := b.targets[i]
		if label != "" && t.label != label {
			continue
		}
		if cont && t.cont == nil {
			continue
		}
		return t
	}
	return nil
}

func (b *builder) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(st.List)

	case *ast.IfStmt:
		if st.Init != nil {
			b.stmt(st.Init)
		}
		cond := b.block()
		cond.Nodes = append(cond.Nodes, st.Cond)
		thenB := b.newBlock("if.then")
		b.edge(cond, thenB, True)
		b.cur = thenB
		b.stmt(st.Body)
		thenEnd := b.cur
		var elseEnd *Block
		hasElse := st.Else != nil
		if hasElse {
			elseB := b.newBlock("if.else")
			b.edge(cond, elseB, False)
			b.cur = elseB
			b.stmt(st.Else)
			elseEnd = b.cur
		}
		join := b.newBlock("if.join")
		if !hasElse {
			b.edge(cond, join, False)
		}
		if thenEnd != nil {
			b.edge(thenEnd, join, Flow)
		}
		if elseEnd != nil {
			b.edge(elseEnd, join, Flow)
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.takeLabel()
		if st.Init != nil {
			b.stmt(st.Init)
		}
		head := b.newBlock("for.head")
		b.edge(b.block(), head, Flow)
		if label != "" {
			b.labels[label] = head
		}
		body := b.newBlock("for.body")
		var post *Block
		if st.Post != nil {
			post = b.newBlock("for.post")
		}
		join := b.newBlock("for.join")
		if st.Cond != nil {
			head.Nodes = append(head.Nodes, st.Cond)
			b.edge(head, body, True)
			b.edge(head, join, False)
		} else {
			b.edge(head, body, Flow) // for {}: join reachable only via break
		}
		cont := head
		if post != nil {
			cont = post
		}
		b.targets = append(b.targets, &target{label: label, brk: join, cont: cont, back: post == nil})
		b.cur = body
		b.stmt(st.Body)
		b.targets = b.targets[:len(b.targets)-1]
		if b.cur != nil {
			if post != nil {
				b.edge(b.cur, post, Flow)
			} else {
				b.edge(b.cur, head, Back)
			}
		}
		if post != nil {
			post.Nodes = append(post.Nodes, st.Post)
			b.edge(post, head, Back)
		}
		b.cur = join

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock("range.head")
		b.edge(b.block(), head, Flow)
		if label != "" {
			b.labels[label] = head
		}
		// The head evaluates the range operand and, each iteration,
		// the key/value assignment: the whole RangeStmt would drag the
		// body along, so only X is recorded.
		head.Nodes = append(head.Nodes, st.X)
		body := b.newBlock("range.body")
		join := b.newBlock("range.join")
		b.edge(head, body, True)
		b.edge(head, join, False)
		b.targets = append(b.targets, &target{label: label, brk: join, cont: head, back: true})
		b.cur = body
		b.stmt(st.Body)
		b.targets = b.targets[:len(b.targets)-1]
		if b.cur != nil {
			b.edge(b.cur, head, Back)
		}
		b.cur = join

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if st.Init != nil {
			b.stmt(st.Init)
		}
		head := b.block()
		if st.Tag != nil {
			head.Nodes = append(head.Nodes, st.Tag)
		}
		b.switchBody(head, st.Body, label, "switch.case")

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if st.Init != nil {
			b.stmt(st.Init)
		}
		head := b.block()
		head.Nodes = append(head.Nodes, st.Assign)
		b.switchBody(head, st.Body, label, "typeswitch.case")

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.block()
		if len(st.Body.List) == 0 {
			// select {} blocks forever: a node with no successor.
			head.Nodes = append(head.Nodes, st)
			b.cur = nil
			break
		}
		join := b.newBlock("select.join")
		b.targets = append(b.targets, &target{label: label, brk: join})
		for _, cc := range st.Body.List {
			clause := cc.(*ast.CommClause)
			name := "select.case"
			if clause.Comm == nil {
				name = "select.default"
			}
			caseB := b.newBlock(name)
			b.edge(head, caseB, Flow)
			b.cur = caseB
			if clause.Comm != nil {
				b.stmt(clause.Comm)
			}
			b.stmtList(clause.Body)
			if b.cur != nil {
				b.edge(b.cur, join, Flow)
			}
		}
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = join

	case *ast.LabeledStmt:
		name := st.Label.Name
		lb, ok := b.labels[name]
		if !ok {
			lb = b.newBlock("label." + name)
			b.labels[name] = lb
		}
		if b.cur != nil {
			b.edge(b.cur, lb, Flow)
		}
		b.cur = lb
		switch st.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.pendingLabel = name
		}
		b.stmt(st.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			label := ""
			if st.Label != nil {
				label = st.Label.Name
			}
			if t := b.findTarget(label, false); t != nil {
				b.edge(b.block(), t.brk, Flow)
			}
			b.cur = nil
		case token.CONTINUE:
			label := ""
			if st.Label != nil {
				label = st.Label.Name
			}
			if t := b.findTarget(label, true); t != nil {
				kind := Flow
				if t.back {
					kind = Back
				}
				b.edge(b.block(), t.cont, kind)
			}
			b.cur = nil
		case token.GOTO:
			name := st.Label.Name
			lb, ok := b.labels[name]
			if !ok {
				lb = b.newBlock("label." + name)
				b.labels[name] = lb
			}
			b.edge(b.block(), lb, Flow)
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled by switchBody, which knows the next clause.
		}

	case *ast.ReturnStmt:
		b.add(st)
		b.edge(b.block(), b.g.Exit, Return)
		b.cur = nil

	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok && isPanicCall(call) {
			b.add(st)
			b.edge(b.block(), b.g.PanicExit, Panic)
			b.cur = nil
			return
		}
		b.add(st)

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assignments, declarations, sends, defers, go statements,
		// inc/dec: straight-line nodes.
		b.add(s)
	}
}

// switchBody wires a (type)switch's clauses: every clause is entered
// from the head, fallthrough chains to the next clause, break (and
// clause end) exits to the join.
func (b *builder) switchBody(head *Block, body *ast.BlockStmt, label, caseName string) {
	join := b.newBlock("switch.join")
	b.targets = append(b.targets, &target{label: label, brk: join})
	blocks := make([]*Block, len(body.List))
	hasDefault := false
	for i, cc := range body.List {
		clause := cc.(*ast.CaseClause)
		name := caseName
		if clause.List == nil {
			name = "switch.default"
			hasDefault = true
		}
		blocks[i] = b.newBlock(name)
		b.edge(head, blocks[i], Flow)
	}
	if !hasDefault {
		b.edge(head, join, Flow)
	}
	for i, cc := range body.List {
		clause := cc.(*ast.CaseClause)
		b.cur = blocks[i]
		for _, e := range clause.List {
			blocks[i].Nodes = append(blocks[i].Nodes, e)
		}
		falls := false
		for _, s := range clause.Body {
			if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				falls = true
				break
			}
			b.stmt(s)
		}
		if falls && i+1 < len(blocks) {
			b.edge(b.block(), blocks[i+1], Flow)
			b.cur = nil
		}
		if b.cur != nil {
			b.edge(b.cur, join, Flow)
		}
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = join
}

// isPanicCall reports a direct call to the predeclared panic. The check
// is syntactic (the cfg package has no type information); a function
// that shadows panic would be misclassified, which the repository's own
// style makes a non-concern.
func isPanicCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
