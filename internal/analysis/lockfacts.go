package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the concurrency-facts layer of the interprocedural engine:
// the module-wide lock-order edges consumed by the lockorder analyzer and
// the lock/blocking summary bits behind the interprocedural upgrade of
// lockhold.
//
// After the summaries are built, every function body is walked once with
// a CFG dataflow that tracks the set of mutex *classes* that MAY be held
// (union over paths) at every lock acquisition and module-internal call;
// each observation becomes a lock-order edge.
//
// A mutex class is a stable module-wide identity: "pkg.Type.field" for a
// mutex struct field (every instance of the type shares the class, which
// is exactly the granularity a lock-ordering discipline is written at) or
// "pkg.var" for a package-level mutex. Local mutexes have no cross-
// function identity and do not participate.

// lockKeySet maps a lock class key to its display form ("clientConn.mu").
type lockKeySet map[string]string

func (s lockKeySet) clone() lockKeySet {
	c := make(lockKeySet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s lockKeySet) equal(o lockKeySet) bool {
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if _, ok := o[k]; !ok {
			return false
		}
	}
	return true
}

// union adds o's entries to s, reporting growth: the join of a MAY set.
func (s lockKeySet) union(o lockKeySet) (lockKeySet, bool) {
	grew := false
	for k, v := range o {
		if _, ok := s[k]; !ok {
			s[k] = v
			grew = true
		}
	}
	return s, grew
}

// intersect removes the entries of s absent from o, reporting shrinkage:
// the join of a MUST set.
func (s lockKeySet) intersect(o lockKeySet) (lockKeySet, bool) {
	shrunk := false
	for k := range s {
		if _, ok := o[k]; !ok {
			delete(s, k)
			shrunk = true
		}
	}
	return s, shrunk
}

// apply updates a held set for one mutex operation.
func (s lockKeySet) apply(op mutexOp, key, disp string) {
	switch op {
	case acquireOp:
		s[key] = disp
	case releaseOp:
		delete(s, key)
	}
}

// displays renders the held set for diagnostics: sorted display names
// plus the grammatical verb ("c.mu is held", "c.mu, w.mu are held").
func (s lockKeySet) displays() string {
	names := make([]string, 0, len(s))
	for _, d := range s {
		names = append(names, d)
	}
	sort.Strings(names)
	names = dedupSorted(names)
	verb := " is held"
	if len(names) > 1 {
		verb = " are held"
	}
	return strings.Join(names, ", ") + verb
}

func dedupSorted(names []string) []string {
	out := names[:0]
	for i, n := range names {
		if i == 0 || n != names[i-1] {
			out = append(out, n)
		}
	}
	return out
}

// lockClassOf resolves a mutex receiver expression to its module-wide
// class: struct fields by owning type, package-level vars by package.
func lockClassOf(info *types.Info, e ast.Expr) (key, disp string, ok bool) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if sel, found := info.Selections[x]; found {
			obj := sel.Obj()
			if n := namedOf(sel.Recv()); n != nil && obj != nil && obj.Pkg() != nil {
				tname := n.Obj().Name()
				return obj.Pkg().Path() + "." + tname + "." + obj.Name(), tname + "." + obj.Name(), true
			}
			return "", "", false
		}
		if obj := objOf(info, x.Sel); obj != nil {
			if v, isVar := obj.(*types.Var); isVar && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name(), v.Name(), true
			}
		}
	case *ast.Ident:
		if obj := objOf(info, x); obj != nil {
			if v, isVar := obj.(*types.Var); isVar && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name(), v.Name(), true
			}
		}
	}
	return "", "", false
}

// mutexMethodOf decodes x.Lock()/x.Unlock()/x.RLock()/x.RUnlock() calls on
// sync mutexes, returning the method name and the receiver expression.
func mutexMethodOf(info *types.Info, call *ast.CallExpr) (name string, recv ast.Expr, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return "", nil, false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", nil, false
	}
	fn, okFn := calleeOf(info, call).(*types.Func)
	if !okFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil, false
	}
	return sel.Sel.Name, sel.X, true
}

// mutexOp is what lockCalls makes of a call.
type mutexOp uint8

const (
	otherCall mutexOp = iota // not a mutex operation
	acquireOp                // Lock or RLock
	releaseOp                // Unlock or RUnlock
)

// lockKeyFunc names the lock a mutex receiver expression denotes: an
// instance for lockhold, a class (lockClassOf) for the lock-order facts.
// ok false leaves the receiver untracked.
type lockKeyFunc func(info *types.Info, recv ast.Expr) (key, disp string, ok bool)

// lockCalls calls f for each call the atom makes on the calling
// goroutine, with the mutex operation it performs on the lock key names.
// A mutex method yields no value, so a direct Lock or Unlock is the call
// of an expression statement: f sees it last, after the calls of its
// receiver. Deferred ones run at return, not here, and are skipped, as are
// mutex calls on untracked receivers.
func lockCalls(info *types.Info, at atom, key lockKeyFunc, f func(call *ast.CallExpr, op mutexOp, key, disp string)) {
	inspectSync(atomNode(at), func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, _, isMu := mutexMethodOf(info, call); !isMu {
				f(call, otherCall, "", "")
			}
		}
	})
	es, ok := at.stmt.(*ast.ExprStmt)
	if !ok {
		return
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return
	}
	name, recv, isMu := mutexMethodOf(info, call)
	if !isMu {
		return
	}
	if k, disp, tracked := key(info, recv); tracked {
		op := releaseOp
		if name == "Lock" || name == "RLock" {
			op = acquireOp
		}
		f(call, op, k, disp)
	}
}

// inspectSync calls f on n and every node beneath it that runs on the
// calling goroutine when n does: it enters neither function literals
// (bodies of their own) nor go statements.
func inspectSync(n ast.Node, f func(ast.Node)) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.FuncLit, *ast.GoStmt:
			return false
		}
		f(n)
		return true
	})
}

// lockEdge is one "to acquired while from is held" observation, the raw
// material of the lock-ordering graph.
type lockEdge struct {
	from, fromDisp string
	to, toDisp     string
	pos            token.Pos
	// via names the module-internal callee whose summary contributed the
	// acquisition ("" for a direct Lock call).
	via string
}

// --- the lock dataflow --------------------------------------------------

// funcFactsCollector walks one function with the MAY-hold lock dataflow,
// feeding lock-order edges into the Program.
type funcFactsCollector struct {
	prog  *Program
	pf    *progFunc
	info  *types.Info
	edges map[string]bool // lockEdge dedup: from|to|pos
}

// collectConcurrencyFacts runs the post-summary pass over every function,
// in declaration order so the edge list is deterministic.
func collectConcurrencyFacts(prog *Program) {
	for _, pf := range prog.sortedFuncs() {
		c := &funcFactsCollector{prog: prog, pf: pf, info: pf.pkg.Info, edges: make(map[string]bool)}
		c.run()
	}
}

// sortedFuncs returns the module functions in declaration order.
func (p *Program) sortedFuncs() []*progFunc {
	pfs := make([]*progFunc, 0, len(p.funcs))
	for _, pf := range p.funcs {
		pfs = append(pfs, pf)
	}
	sortProgFuncs(pfs)
	return pfs
}

func (c *funcFactsCollector) run() {
	g, ok := buildCFG(c.pf.decl.Body)
	if !ok {
		// Unmodelled control flow (goto): no lock context, so no edges.
		return
	}
	solve(g, flowProblem[lockKeySet]{
		init:     lockKeySet{},
		transfer: c.transfer,
		join:     lockKeySet.union,
		copy:     lockKeySet.clone,
	})
}

// transfer records the lock-order edges of one atom's calls and applies
// its Lock/Unlock calls to the held set.
func (c *funcFactsCollector) transfer(at atom, held lockKeySet) (lockKeySet, bool) {
	lockCalls(c.info, at, lockClassOf, func(call *ast.CallExpr, op mutexOp, key, disp string) {
		switch op {
		case acquireOp:
			for from, fromDisp := range held {
				c.edge(lockEdge{from: from, fromDisp: fromDisp, to: key, toDisp: disp, pos: call.Pos()})
			}
		case otherCall:
			c.recordCall(call, held)
		}
		held.apply(op, key, disp)
	})
	return held, true
}

// recordCall orders every class a module-internal callee's summary may
// acquire after every held class.
func (c *funcFactsCollector) recordCall(call *ast.CallExpr, held lockKeySet) {
	fn, ok := calleeOf(c.info, call).(*types.Func)
	if !ok {
		return
	}
	sum := c.prog.sums[fn]
	if sum == nil {
		return
	}
	for from, fromDisp := range held {
		for to, toDisp := range sum.locks {
			if to == from {
				// Only a fresh acquisition self-deadlocks; the callee
				// re-acquiring a class it provably released first is
				// the entered-locked protocol.
				if _, fresh := sum.freshLocks[to]; !fresh {
					continue
				}
			}
			c.edge(lockEdge{from: from, fromDisp: fromDisp, to: to, toDisp: toDisp, pos: call.Pos(), via: fn.Name()})
		}
	}
}

func (c *funcFactsCollector) edge(e lockEdge) {
	key := e.from + "|" + e.to + "|" + c.prog.fset.Position(e.pos).String()
	if c.edges[key] {
		return
	}
	c.edges[key] = true
	c.prog.lockEdges = append(c.prog.lockEdges, e)
}

// --- summary computation ------------------------------------------------

// lockSummarize computes the lock and blocking effects of one function:
// the mutex classes it may acquire and whether it can block unboundedly
// on the calling goroutine — each propagated from callee summaries. Sites
// annotated //coollint:allow lockhold are excluded, so a send documented
// as never-blocking does not poison every caller.
func lockSummarize(prog *Program, pf *progFunc, s *Summary) {
	info := pf.pkg.Info

	setBlock := func(pos token.Pos, desc string) {
		if s.blocks || prog.allowedAt(pf.pkg, pos, "lockhold") {
			return
		}
		s.blocks = true
		s.blockDesc = desc + " in " + pf.obj.Name()
	}

	var comm ast.Node // the comm statement of the select clause entered last
	ast.Inspect(pf.decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			// Spawned payloads block on their own goroutine.
			return false
		case *ast.CommClause:
			// The select is the blocking unit, not its comm statement.
			comm = x.Comm
		case *ast.CallExpr:
			if name, recv, ok := mutexMethodOf(info, x); ok {
				if name == "Lock" || name == "RLock" {
					if key, disp, classed := lockClassOf(info, recv); classed {
						s.locks[key] = disp
					}
				}
				return true
			}
		}
		if n == comm {
			return false
		}
		if desc := blockingOp(info, n); desc != "" {
			setBlock(n.Pos(), desc)
		}
		return true
	})

	// Propagate from synchronously invoked callees only: a call inside a
	// `go` payload blocks (and locks) on its own goroutine.
	for _, c := range syncCallees(prog, pf) {
		cs := prog.sums[c]
		if cs == nil {
			continue
		}
		s.locks.union(cs.locks)
		if cs.blocks && !s.blocks {
			s.blocks = true
			s.blockDesc = cs.blockDesc
		}
	}

	lockFreshness(prog, pf, s)
}

// lockFreshness computes s.freshLocks: the lock classes with an
// acquisition not dominated by a same-class release. A must-released set
// flows forward through the CFG (intersection at merges); a Lock on a
// class outside the set is fresh, a Lock inside it is the unlock-then-
// relock pattern of functions entered holding the lock.
func lockFreshness(prog *Program, pf *progFunc, s *Summary) {
	s.freshLocks = lockKeySet{}
	g, ok := buildCFG(pf.decl.Body)
	if !ok {
		s.freshLocks.union(s.locks)
		return
	}
	info := pf.pkg.Info
	solve(g, flowProblem[lockKeySet]{
		init: lockKeySet{},
		transfer: func(at atom, released lockKeySet) (lockKeySet, bool) {
			lockCalls(info, at, lockClassOf, func(call *ast.CallExpr, op mutexOp, key, disp string) {
				switch op {
				case acquireOp:
					if _, rel := released[key]; !rel {
						s.freshLocks[key] = disp
					}
					delete(released, key)
				case releaseOp:
					released[key] = disp
				case otherCall:
					fn, _ := calleeOf(info, call).(*types.Func)
					cs := prog.sums[fn]
					if cs == nil {
						return
					}
					for l, d := range cs.locks {
						if _, rel := released[l]; rel {
							continue
						}
						if _, fresh := cs.freshLocks[l]; fresh {
							s.freshLocks[l] = d
						}
					}
				}
			})
			return released, true
		},
		join: lockKeySet.intersect,
		copy: lockKeySet.clone,
	})
}

// syncCallees returns the module-internal functions called from pf's body
// outside `go` statements, in source order.
func syncCallees(prog *Program, pf *progFunc) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	ast.Inspect(pf.decl.Body, func(n ast.Node) bool {
		if _, isGo := n.(*ast.GoStmt); isGo {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn, ok := calleeOf(pf.pkg.Info, call).(*types.Func); ok {
			if _, inModule := prog.funcs[fn]; inModule && !seen[fn] {
				seen[fn] = true
				out = append(out, fn)
			}
		}
		return true
	})
	return out
}

// allowedAt reports whether pos carries a //coollint:allow annotation for
// the named analyzer, using a lazily built per-file index. Summaries use
// this so annotated sites do not propagate their effects to callers.
func (p *Program) allowedAt(pkg *Package, pos token.Pos, name string) bool {
	tf := pkg.Fset.File(pos)
	if tf == nil {
		return false
	}
	if p.annots == nil {
		p.annots = make(map[*token.File]map[int]map[string]bool)
	}
	lines, ok := p.annots[tf]
	if !ok {
		for _, f := range pkg.Files {
			if pkg.Fset.File(f.Pos()) == tf {
				lines = annotationsFor(pkg.Fset, f, pkg.Src[tf.Name()])
				break
			}
		}
		if lines == nil {
			lines = map[int]map[string]bool{}
		}
		p.annots[tf] = lines
	}
	line := tf.Line(pos)
	return lines[line][name] || lines[line]["*"]
}
