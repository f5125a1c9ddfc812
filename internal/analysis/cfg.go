package analysis

import (
	"go/ast"
	"go/token"
)

// The path-sensitive checks run forward dataflows over a statement-level
// control-flow graph, all through one solver, solve: lockhold (the
// instance lock set), the lock-order collector and lockFreshness in
// lockfacts.go (class lock sets, may-held and must-released), and
// poolpair (the ownership of one acquisition). Blocks hold "atoms":
// simple statements and the condition expressions of control
// statements. Control structure lives purely in the edges.
//
// The atom rule: no two atoms of a graph share syntax, and atomNode is
// the syntax an atom covers. A range statement's ranged expression is an
// atom of its own before the loop (it is evaluated once), and its loop
// head is a header atom that stands for the per-iteration receive. Header
// atoms of select and range statements cover no syntax: their clauses
// and bodies are atoms of their own.

// atom is one CFG node payload.
type atom struct {
	stmt ast.Stmt
	expr ast.Expr
	// hdr, for a header atom, is the *ast.SelectStmt or *ast.RangeStmt
	// it stands for.
	hdr ast.Stmt
	// comm marks statements that are the communication clause of a select
	// (their channel operation blocks as part of the select, not on its
	// own).
	comm bool
}

// atomNode returns the syntax an atom covers: nil for a header atom.
func atomNode(at atom) ast.Node {
	switch {
	case at.stmt != nil:
		return at.stmt
	case at.expr != nil:
		return at.expr
	}
	return nil
}

// cfgEdge is one control-flow edge. Edges leaving an if-condition carry
// the condition and which branch they represent, so dataflow analyses can
// correlate `v, err := acquire(...)` with `if err != nil` guards.
type cfgEdge struct {
	to *cfgBlock
	// cond, when set, is the if-condition this edge leaves; branch is true
	// for the then-edge and false for the else-edge.
	cond   ast.Expr
	branch bool
}

// cfgBlock is a basic block.
type cfgBlock struct {
	atoms []atom
	succs []cfgEdge
}

// cfg is the control-flow graph of one function body.
type cfg struct {
	entry *cfgBlock
	// exit is the virtual function-exit block. Return statements and the
	// fall-off end of the body both lead here.
	exit   *cfgBlock
	blocks []*cfgBlock
	// ok is false when the body uses constructs the builder does not
	// model (goto); analyses should then skip the function.
	ok bool
}

// maxFlowVisits bounds every dataflow: a body whose fixpoint needs more
// block visits than this is left half-solved rather than stalling the
// lint.
const maxFlowVisits = 4096

// flowProblem is one forward dataflow over a cfg with per-block states
// of type S.
type flowProblem[S any] struct {
	init S
	// transfer applies one atom to s, which it may update in place. ok
	// false ends the path: no feasible continuation.
	transfer func(at atom, s S) (out S, ok bool)
	// join merges s into old, the recorded entry state of a block, and
	// reports whether the entry state changed.
	join func(old, s S) (S, bool)
	// copy makes a state the solver can hand to transfer without
	// aliasing a recorded one; nil for value states.
	copy func(S) S

	// Optional. The flow starts at atom startAt of block start (default:
	// the top of the entry block). edge refines the state across one
	// edge, ok false dropping it. exit sees each state that reaches the
	// exit block, which is never queued.
	start   *cfgBlock
	startAt int
	edge    func(e cfgEdge, s S) (S, bool)
	exit    func(s S)
}

// solve runs p to its fixpoint over g (or to maxFlowVisits); the
// problem's callbacks carry whatever it reports.
func solve[S any](g *cfg, p flowProblem[S]) {
	cp := func(s S) S {
		if p.copy == nil {
			return s
		}
		return p.copy(s)
	}
	type workItem struct {
		blk  *cfgBlock
		from int
		s    S
	}
	start := p.start
	if start == nil {
		start = g.entry
	}
	entry := make(map[*cfgBlock]S)
	work := []workItem{{blk: start, from: p.startAt, s: p.init}}
	for visits := 0; len(work) > 0 && visits < maxFlowVisits; visits++ {
		item := work[len(work)-1]
		work = work[:len(work)-1]
		s, ok := cp(item.s), true
		for i := item.from; ok && i < len(item.blk.atoms); i++ {
			s, ok = p.transfer(item.blk.atoms[i], s)
		}
		if !ok {
			continue
		}
		for _, e := range item.blk.succs {
			out := s
			if p.edge != nil {
				if out, ok = p.edge(e, s); !ok {
					continue
				}
			}
			if e.to == g.exit {
				if p.exit != nil {
					p.exit(out)
				}
				continue
			}
			// A queued state is copied when it is taken off the list, so
			// only the recorded entry states must not alias it.
			old, seen := entry[e.to]
			if !seen {
				entry[e.to] = cp(out)
				work = append(work, workItem{blk: e.to, s: out})
				continue
			}
			if merged, changed := p.join(old, out); changed {
				entry[e.to] = merged
				work = append(work, workItem{blk: e.to, s: cp(merged)})
			}
		}
	}
}

// cfgBuilder carries loop/label context during construction.
type cfgBuilder struct {
	g *cfg
	// breakTargets / continueTargets are stacks of the innermost
	// break/continue destinations, with optional labels.
	breaks    []branchTarget
	continues []branchTarget
	failed    bool
}

type branchTarget struct {
	label string
	block *cfgBlock
}

// buildCFG constructs the CFG of a function body. The second result is
// false when the body contains constructs the builder cannot model.
func buildCFG(body *ast.BlockStmt) (*cfg, bool) {
	g := &cfg{ok: true}
	b := &cfgBuilder{g: g}
	g.entry = b.newBlock()
	g.exit = b.newBlock()
	last := b.stmts(g.entry, body.List, "")
	if last != nil {
		b.link(last, g.exit)
	}
	if b.failed {
		return nil, false
	}
	return g, true
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) link(from, to *cfgBlock) {
	if from == nil || to == nil {
		return
	}
	from.succs = append(from.succs, cfgEdge{to: to})
}

// linkCond links a labeled branch edge out of an if-condition.
func (b *cfgBuilder) linkCond(from, to *cfgBlock, cond ast.Expr, branch bool) {
	if from == nil || to == nil {
		return
	}
	from.succs = append(from.succs, cfgEdge{to: to, cond: cond, branch: branch})
}

// stmts lays out a statement list starting in cur. It returns the block
// holding the fall-through end, or nil when control cannot fall off the
// end (return/branch on every path). label names the enclosing labeled
// statement for the first statement, if any.
func (b *cfgBuilder) stmts(cur *cfgBlock, list []ast.Stmt, label string) *cfgBlock {
	for i, s := range list {
		lbl := ""
		if i == 0 {
			lbl = label
		}
		cur = b.stmt(cur, s, lbl)
		if cur == nil {
			// Unreachable code after return/branch: keep laying it out in a
			// fresh, unlinked block so its atoms still exist for scanning.
			if i+1 < len(list) {
				cur = b.newBlock()
			} else {
				return nil
			}
		}
	}
	return cur
}

// stmt lays out one statement. Returns the fall-through block (nil when
// control transfers away).
func (b *cfgBuilder) stmt(cur *cfgBlock, s ast.Stmt, label string) *cfgBlock {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(cur, s.List, "")

	case *ast.LabeledStmt:
		return b.stmt(cur, s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			cur.atoms = append(cur.atoms, atom{stmt: s.Init})
		}
		cur.atoms = append(cur.atoms, atom{expr: s.Cond})
		thenBlk := b.newBlock()
		b.linkCond(cur, thenBlk, s.Cond, true)
		thenEnd := b.stmts(thenBlk, s.Body.List, "")
		after := b.newBlock()
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.linkCond(cur, elseBlk, s.Cond, false)
			elseEnd := b.stmt(elseBlk, s.Else, "")
			b.link(elseEnd, after)
		} else {
			b.linkCond(cur, after, s.Cond, false)
		}
		b.link(thenEnd, after)
		return after

	case *ast.ForStmt:
		if s.Init != nil {
			cur.atoms = append(cur.atoms, atom{stmt: s.Init})
		}
		head := b.newBlock()
		b.link(cur, head)
		if s.Cond != nil {
			head.atoms = append(head.atoms, atom{expr: s.Cond})
		}
		after := b.newBlock()
		body := b.newBlock()
		b.link(head, body)
		if s.Cond != nil {
			b.link(head, after)
		}
		post := b.newBlock()
		if s.Post != nil {
			post.atoms = append(post.atoms, atom{stmt: s.Post})
		}
		b.pushLoop(label, after, post)
		bodyEnd := b.stmts(body, s.Body.List, "")
		b.popLoop()
		b.link(bodyEnd, post)
		b.link(post, head)
		return after

	case *ast.RangeStmt:
		cur.atoms = append(cur.atoms, atom{expr: s.X})
		head := b.newBlock()
		b.link(cur, head)
		head.atoms = append(head.atoms, atom{hdr: s})
		after := b.newBlock()
		body := b.newBlock()
		b.link(head, body)
		b.link(head, after)
		b.pushLoop(label, after, head)
		bodyEnd := b.stmts(body, s.Body.List, "")
		b.popLoop()
		b.link(bodyEnd, head)
		return after

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur.atoms = append(cur.atoms, atom{stmt: s.Init})
		}
		if s.Tag != nil {
			cur.atoms = append(cur.atoms, atom{expr: s.Tag})
		}
		return b.switchBody(cur, s.Body, label, nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur.atoms = append(cur.atoms, atom{stmt: s.Init})
		}
		cur.atoms = append(cur.atoms, atom{stmt: s.Assign})
		return b.switchBody(cur, s.Body, label, nil)

	case *ast.SelectStmt:
		cur.atoms = append(cur.atoms, atom{hdr: s})
		after := b.newBlock()
		any := false
		b.pushLoop(label, after, nil) // select supports (labeled) break
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			clause := b.newBlock()
			b.link(cur, clause)
			if cc.Comm != nil {
				clause.atoms = append(clause.atoms, atom{stmt: cc.Comm, comm: true})
			}
			end := b.stmts(clause, cc.Body, "")
			b.link(end, after)
			any = true
		}
		b.popLoop()
		if !any {
			b.link(cur, after) // empty select: does not fall through, but keep graph sane
		}
		return after

	case *ast.ReturnStmt:
		cur.atoms = append(cur.atoms, atom{stmt: s})
		b.link(cur, b.g.exit)
		return nil

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(b.breaks, s.Label); t != nil {
				b.link(cur, t)
				return nil
			}
			b.failed = true
			return nil
		case token.CONTINUE:
			if t := b.findTarget(b.continues, s.Label); t != nil {
				b.link(cur, t)
				return nil
			}
			b.failed = true
			return nil
		case token.FALLTHROUGH:
			// Handled in switchBody via clause chaining.
			return cur
		default: // goto
			b.failed = true
			return nil
		}

	case *ast.ExprStmt:
		cur.atoms = append(cur.atoms, atom{stmt: s})
		if isTerminalCall(s.X) {
			// Dying paths (panic, os.Exit, t.Fatal) terminate without
			// reaching the exit block: ownership checks do not apply there.
			return nil
		}
		return cur

	default:
		// Simple statements: assignments, declarations, sends, inc/dec,
		// defer, go, empty.
		cur.atoms = append(cur.atoms, atom{stmt: s})
		return cur
	}
}

// switchBody lays out the case clauses of a switch or type switch.
func (b *cfgBuilder) switchBody(cur *cfgBlock, body *ast.BlockStmt, label string, _ any) *cfgBlock {
	after := b.newBlock()
	hasDefault := false
	b.pushLoop(label, after, nil)
	type clauseLayout struct {
		start *cfgBlock
		cc    *ast.CaseClause
	}
	var layouts []clauseLayout
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		clause := b.newBlock()
		b.link(cur, clause)
		for _, e := range cc.List {
			clause.atoms = append(clause.atoms, atom{expr: e})
		}
		layouts = append(layouts, clauseLayout{start: clause, cc: cc})
	}
	for i, lay := range layouts {
		bodyBlk := b.newBlock()
		b.link(lay.start, bodyBlk)
		end := b.stmts(bodyBlk, lay.cc.Body, "")
		if fallsThrough(lay.cc.Body) && i+1 < len(layouts) {
			// fallthrough transfers into the next clause's body; chaining to
			// its start block (which only holds case expressions) is an
			// acceptable approximation.
			b.link(end, layouts[i+1].start)
		} else {
			b.link(end, after)
		}
	}
	b.popLoop()
	if !hasDefault {
		b.link(cur, after)
	}
	return after
}

// fallsThrough reports whether a case body ends in a fallthrough.
func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *cfgBlock) {
	b.breaks = append(b.breaks, branchTarget{label: label, block: brk})
	if cont != nil {
		b.continues = append(b.continues, branchTarget{label: label, block: cont})
	} else {
		b.continues = append(b.continues, branchTarget{label: label, block: nil})
	}
}

func (b *cfgBuilder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

// findTarget resolves a break/continue destination, honouring labels.
func (b *cfgBuilder) findTarget(stack []branchTarget, label *ast.Ident) *cfgBlock {
	for i := len(stack) - 1; i >= 0; i-- {
		t := stack[i]
		if t.block == nil {
			continue
		}
		if label == nil || t.label == label.Name {
			return t.block
		}
	}
	return nil
}

// isTerminalCall reports calls that never return (panic, os.Exit,
// runtime.Goexit, testing's Fatal family via t.Fatal/t.Fatalf/t.Skip...).
func isTerminalCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Exit", "Goexit", "Fatal", "Fatalf", "Skip", "Skipf", "SkipNow", "FailNow":
			return true
		}
	}
	return false
}
