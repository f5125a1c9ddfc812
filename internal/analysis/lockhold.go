package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockHold flags potentially blocking operations performed while a
// sync.Mutex or sync.RWMutex is held: channel sends and receives, selects
// without a default clause, ranges over a channel, sync.WaitGroup.Wait /
// sync.Cond.Wait, and — through the interprocedural summaries — calls to
// module-internal helpers that themselves block. A goroutine parked on a
// channel while holding an ORB-internal lock stalls every other
// invocation that needs the lock — the deadlock class the zero-allocation
// hot path is most exposed to.
//
// The analysis runs a lock-set dataflow over each function body: Lock and
// RLock calls add the receiver to the held set, Unlock and RUnlock remove
// it (deferred unlocks keep the lock held until return, which is the
// point: blocking before the return still happens under the lock).
// Selects where every communication is paired with a default never block
// and are not reported. Diagnostics name every held mutex expression.
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc:  "no blocking channel operation, Wait, or blocking call while a mutex is held",
	Run:  runLockHold,
}

func runLockHold(pass *Pass) {
	lh := &lockHoldChecker{pass: pass}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					lh.checkBody(fn.Body)
				}
			case *ast.FuncLit:
				lh.checkBody(fn.Body)
			}
			return true
		})
	}
}

type lockHoldChecker struct {
	pass     *Pass
	reported map[reportKey]bool
}

func (lh *lockHoldChecker) checkBody(body *ast.BlockStmt) {
	g, ok := buildCFG(body)
	if !ok {
		return
	}
	lh.reported = make(map[reportKey]bool)
	solve(g, flowProblem[lockKeySet]{
		init:     lockKeySet{},
		transfer: lh.transfer,
		join:     lockKeySet.union,
		copy:     lockKeySet.clone,
	})
}

// transfer applies one atom: report blocking operations while the lock
// set is non-empty, then update it for the atom's Lock/Unlock calls
// (deferred unlocks run at return: the lock stays held for the rest of
// the function, which is the point). A blocking operation in an atom that
// also unlocks reports against the lock set on entry.
func (lh *lockHoldChecker) transfer(at atom, held lockKeySet) (lockKeySet, bool) {
	// Communication clauses of a select block as part of the select
	// header, which is an atom of its own.
	if len(held) > 0 && !at.comm {
		lh.checkBlocking(at, held)
	}
	lockCalls(lh.pass.Info, at, lockInstanceOf, func(_ *ast.CallExpr, op mutexOp, key, disp string) {
		held.apply(op, key, disp)
	})
	return held, true
}

// lockInstanceOf renders a stable identity and a display form for a
// mutex receiver expression: the key is package-qualified for cross-file
// stability, the display is the source expression ("c.mu").
func lockInstanceOf(info *types.Info, e ast.Expr) (key, disp string, ok bool) {
	disp = exprText(e)
	if id := rootIdent(e); id != nil {
		if obj := objOf(info, id); obj != nil && obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + disp, disp, true
		}
	}
	return disp, disp, true
}

// checkBlocking reports the blocking operations of an atom while held is
// non-empty: the ones blockingOp classifies and calls to module-internal
// helpers whose summary shows one.
func (lh *lockHoldChecker) checkBlocking(at atom, held lockKeySet) {
	info := lh.pass.Info
	visit := func(n ast.Node) {
		if desc := blockingOp(info, n); desc != "" {
			lh.reportOnce(n.Pos(), "%s may block while %s", desc, held.displays())
			return
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		// Interprocedural: a module-internal callee whose summary shows
		// a blocking operation blocks this goroutine just the same.
		if callee := calleeOf(info, call); callee != nil {
			if sum := lh.pass.Prog.summaryOf(callee); sum != nil && sum.blocks {
				lh.reportOnce(call.Pos(), "call to %s may block (%s) while %s", callee.Name(), sum.blockDesc, held.displays())
			}
		}
	}
	if at.hdr != nil {
		visit(at.hdr)
		return
	}
	inspectSync(atomNode(at), visit)
}

// blockingOp names what n is when it is an operation that can park the
// calling goroutine indefinitely — a channel send or receive, a select
// without default, a range over a channel, a sync Wait — and returns ""
// otherwise. It looks at n alone: each caller decides which syntax runs
// on the goroutine it checks.
func blockingOp(info *types.Info, n ast.Node) string {
	switch x := n.(type) {
	case *ast.SendStmt:
		return "channel send"
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return "channel receive"
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				return ""
			}
		}
		return "select without default"
	case *ast.RangeStmt:
		if isChanType(info, x.X) {
			return "range over channel"
		}
	case *ast.CallExpr:
		if fn, ok := calleeOf(info, x).(*types.Func); ok && isMethod(fn, "sync", "Wait") {
			return "sync " + recvTypeName(fn) + ".Wait"
		}
	}
	return ""
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "WaitGroup"
	}
	if n := namedOf(sig.Recv().Type()); n != nil {
		return n.Obj().Name()
	}
	return "WaitGroup"
}

func (lh *lockHoldChecker) reportOnce(pos token.Pos, format string, args ...any) {
	key := reportKey{pos: pos, msg: format}
	if lh.reported[key] {
		return
	}
	lh.reported[key] = true
	lh.pass.Reportf(pos, format, args...)
}
