package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolPair enforces the acquire/release contract of the pools: every
// pooled object obtained in a function is released on every control-flow
// path, released at most once, and not used after release.
//
// The pools are the entry points: bufpool.Get/Put and a typed
// bufpool.Pool's Get/Put (plus the decode/release pair of a codec reached
// through an interface). Every wrapper around them — cdr.AcquireEncoder,
// giop.UnmarshalPooled, dacapo.PutPacket, ... — is recognized from its
// interprocedural summary, so any function that returns an acquired
// object is an acquisition and any function that releases or queues a
// parameter is a release of its argument. A release counts only when the
// object itself (or a reslice of it) is the argument or receiver; a field
// reached through the object is another object.
//
// One rule covers every other call that is handed the object: an
// analyzed callee whose summary neither releases nor queues it only
// borrows it, so the caller still owns it; a callee without a summary
// (interface method, func value, code outside the module) takes it.
// Returning the object or sending it on a channel also hands ownership
// out. Element-appending the object into a slice — `w.q = append(w.q,
// frame)`, the flush-queue idiom — stores the object itself and counts as
// a handoff like a channel send. Spread-appending (`dst = append(dst,
// b...)`) only copies the bytes and leaves the object owned. Any other
// store of a tracked object into a struct field or package variable
// requires a //coollint:owner annotation on the acquisition line.
// Assigning an unrelated value to the variable ends its acquisition.
//
// Two-value acquisitions (`m, err := UnmarshalPooled(frame)`) are
// correlated with `if err != nil` guards: on the error branch the callee
// has already reclaimed the object, so no release is due.
var PoolPair = &Analyzer{
	Name: "poolpair",
	Doc:  "pooled objects are released exactly once on every path",
	Run:  runPoolPair,
}

// Possible ownership states of one acquisition along a path (bitmask:
// several may be possible at a join point).
const (
	stOwned    uint8 = 1 << iota // resource held, release still due
	stReleased                   // released; further use is a bug
	stEscaped                    // ownership transferred out
	stAbsent                     // never obtained (error branch)
	stDeferred                   // release deferred to function exit
)

// acquisition is one tracked acquire site.
type acquisition struct {
	// obj is the variable binding the acquired object.
	obj types.Object
	// errObj, when non-nil, is the error result correlated with obj.
	errObj types.Object
	pos    token.Pos
	// what names the acquire call for diagnostics.
	what string
	// block/atomIdx locate the acquiring atom in the CFG.
	block   *cfgBlock
	atomIdx int
}

func runPoolPair(pass *Pass) {
	pp := &poolPairChecker{
		pass:     pass,
		reported: make(map[reportKey]bool),
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					pp.checkBody(file, fn.Body)
				}
			case *ast.FuncLit:
				pp.checkBody(file, fn.Body)
			}
			return true
		})
	}
}

type poolPairChecker struct {
	pass *Pass
	// reported dedups diagnostics across worklist revisits.
	reported map[reportKey]bool
}

type reportKey struct {
	pos token.Pos
	msg string
}

func (pp *poolPairChecker) reportOnce(pos token.Pos, format string, args ...any) {
	key := reportKey{pos: pos, msg: format}
	if pp.reported[key] {
		return
	}
	pp.reported[key] = true
	pp.pass.Reportf(pos, format, args...)
}

// checkBody analyzes one function body as an independent unit. Nested
// function literals are skipped here (each gets its own checkBody call).
func (pp *poolPairChecker) checkBody(file *ast.File, body *ast.BlockStmt) {
	g, ok := buildCFG(body)
	if !ok {
		return // unmodeled control flow (goto): skip, do not guess
	}
	acqs := pp.findAcquisitions(file, g)
	for _, acq := range acqs {
		pp.flow(g, acq)
	}
}

// findAcquisitions scans the CFG atoms of body for tracked acquire calls.
func (pp *poolPairChecker) findAcquisitions(file *ast.File, g *cfg) []*acquisition {
	var acqs []*acquisition
	for _, blk := range g.blocks {
		for i, at := range blk.atoms {
			node := atomNode(at)
			if node == nil {
				continue
			}
			for _, call := range pp.acquireCalls(node) {
				acq := pp.bindAcquisition(file, at, call, blk, i)
				if acq != nil {
					acqs = append(acqs, acq)
				}
			}
		}
	}
	return acqs
}

// acquireCalls finds acquire calls in node, excluding nested function
// literals (analyzed separately) but including the body argument of the
// enclosing body's defer/go statements.
func (pp *poolPairChecker) acquireCalls(node ast.Node) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(node, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && acquiresPooled(pp.pass.Prog, calleeOf(pp.pass.Info, call)) {
			out = append(out, call)
		}
		return true
	})
	return out
}

// bindAcquisition resolves which variable an acquire call's result binds
// to, reporting immediately-diagnosable shapes (discarded result).
func (pp *poolPairChecker) bindAcquisition(file *ast.File, at atom, call *ast.CallExpr, blk *cfgBlock, atomIdx int) *acquisition {
	if ownerAnnotated(pp.pass.Fset, file, call.Pos()) {
		return nil // declared intentional escape
	}
	info := pp.pass.Info
	what := exprText(call.Fun)

	var lhs []ast.Expr
	var rhs []ast.Expr
	switch s := at.stmt.(type) {
	case *ast.AssignStmt:
		lhs, rhs = s.Lhs, s.Rhs
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				contains := false
				for _, v := range vs.Values {
					if containsNode(v, call) {
						contains = true
					}
				}
				if contains {
					for _, n := range vs.Names {
						lhs = append(lhs, n)
					}
					rhs = vs.Values
				}
			}
		}
	case *ast.ExprStmt:
		if ast.Unparen(s.X) == call {
			pp.reportOnce(call.Pos(), "result of %s is discarded; the pooled object leaks", what)
			return nil
		}
	}
	if lhs == nil {
		// The acquire call feeds another expression directly (argument,
		// composite literal, return value): no variable holds the object
		// here to release, so ownership passes with the value.
		return nil
	}
	// Locate the value position of the call among the RHS to pick the LHS.
	idx := 0
	if len(rhs) == len(lhs) {
		for i, v := range rhs {
			if containsNode(v, call) {
				idx = i
			}
		}
	}
	if idx >= len(lhs) {
		return nil
	}
	id, ok := lhs[idx].(*ast.Ident)
	if !ok {
		// Acquired straight into a field or element: escaping storage needs
		// an owner annotation.
		pp.reportOnce(call.Pos(), "result of %s is stored into %s without //coollint:owner", what, exprText(lhs[idx]))
		return nil
	}
	if id.Name == "_" {
		pp.reportOnce(call.Pos(), "result of %s is discarded; the pooled object leaks", what)
		return nil
	}
	obj := objOf(info, id)
	if obj == nil {
		return nil
	}
	acq := &acquisition{
		obj:     obj,
		pos:     call.Pos(),
		what:    what,
		block:   blk,
		atomIdx: atomIdx,
	}
	// A two-value form with a trailing error result correlates the error
	// with presence of the resource.
	if len(lhs) == 2 && len(rhs) == 1 {
		if errID, ok := lhs[1].(*ast.Ident); ok && errID.Name != "_" {
			if eobj := objOf(info, errID); eobj != nil && isErrorType(eobj.Type()) {
				acq.errObj = eobj
			}
		}
	}
	return acq
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}

// containsNode reports whether target occurs within root.
func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

func exprText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprText(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprText(x.X)
	}
	return "expression"
}

// flow runs the per-acquisition forward dataflow from just after the
// acquiring atom and reports leaks, double releases, and uses after
// release. A block without successors is a dying path (panic / Fatal):
// ownership checks lapse there.
func (pp *poolPairChecker) flow(g *cfg, acq *acquisition) {
	initial := stOwned
	if acq.errObj != nil {
		initial |= stAbsent
	}
	acqNode := atomNode(acq.block.atoms[acq.atomIdx])
	solve(g, flowProblem[uint8]{
		init:    initial,
		start:   acq.block,
		startAt: acq.atomIdx + 1,
		transfer: func(at atom, state uint8) (uint8, bool) {
			if atomNode(at) == acqNode {
				return initial, true // loop re-entry re-acquires
			}
			state = pp.transfer(at, state, acq)
			return state, state != 0
		},
		join: func(old, state uint8) (uint8, bool) { return old | state, old|state != old },
		edge: func(e cfgEdge, state uint8) (uint8, bool) {
			state = pp.filterEdge(e, state, acq)
			return state, state != 0
		},
		exit: func(state uint8) {
			if state&stOwned != 0 {
				pp.reportOnce(acq.pos, "result of %s is not released on every path", acq.what)
			}
		},
	})
}

// filterEdge refines the state across a labeled if-edge by correlating
// nil checks of the error result (error present => resource absent) or of
// the resource itself.
func (pp *poolPairChecker) filterEdge(e cfgEdge, state uint8, acq *acquisition) uint8 {
	if e.cond == nil {
		return state
	}
	obj, isNeq, ok := nilCheckOf(pp.pass.Info, e.cond)
	if !ok {
		return state
	}
	// nonNil: does this edge assert obj != nil?
	nonNil := e.branch == isNeq
	switch obj {
	case acq.errObj:
		if nonNil {
			// Error: the callee reclaimed the object; no release due.
			return state &^ stOwned
		}
		return state &^ stAbsent
	case acq.obj:
		if nonNil {
			return state &^ stAbsent
		}
		return state &^ stOwned
	}
	return state
}

// transfer applies one atom to the tracked state.
func (pp *poolPairChecker) transfer(at atom, state uint8, acq *acquisition) uint8 {
	node := atomNode(at)
	if node == nil {
		return state
	}
	info := pp.pass.Info
	if !usesObject(info, node, acq.obj) {
		return state
	}

	deferred := false
	if ds, ok := at.stmt.(*ast.DeferStmt); ok {
		deferred = true
		// A deferred closure that releases the object counts as a deferred
		// release of the whole function. Approximation: a release anywhere
		// in its body counts.
		if lit, ok := ds.Call.Fun.(*ast.FuncLit); ok {
			if eff, _ := callEffectIn(pp.pass.Prog, info, lit.Body, acq.obj); eff == effRelease {
				return (state &^ (stOwned | stAbsent)) | stDeferred
			}
		}
	}

	eff, pos := callEffectIn(pp.pass.Prog, info, node, acq.obj)
	if eff == effRelease {
		if state&(stReleased|stDeferred) != 0 {
			pp.reportOnce(pos, "%s released again; the pooled object was already released on some path", acq.obj.Name())
		}
		if deferred {
			return (state &^ (stOwned | stAbsent)) | stDeferred
		}
		return (state &^ (stOwned | stAbsent)) | stReleased
	}

	if rebinds(info, at, acq.obj) {
		// The variable now holds another value (`p = wrapBorrowed(f)` on
		// the next loop turn): this acquisition is no longer tracked.
		return 0
	}

	// Any other mention of a fully-released object is a use after release.
	if state == stReleased {
		pp.reportOnce(node.Pos(), "%s used after the pooled object was released", acq.obj.Name())
		return stEscaped // report once, then stop tracking the path
	}

	if eff == effTransfer {
		return (state &^ (stOwned | stAbsent)) | stEscaped
	}
	return pp.escape(at, node, state, acq)
}

// escape classifies mentions that are not calls: returns, sends, stores
// and closure captures transfer ownership out; stores into escaping
// storage require an owner annotation.
func (pp *poolPairChecker) escape(at atom, node ast.Node, state uint8, acq *acquisition) uint8 {
	info := pp.pass.Info
	toEscaped := func() uint8 { return (state &^ (stOwned | stAbsent)) | stEscaped }

	switch s := at.stmt.(type) {
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if carries(info, r, acq.obj) {
				return toEscaped()
			}
		}
		return state
	case *ast.SendStmt:
		if carries(info, s.Value, acq.obj) {
			return toEscaped()
		}
		return state
	case *ast.AssignStmt:
		// Does the RHS carry the object into an escaping lvalue?
		for i, r := range s.Rhs {
			switch appendClassOf(info, r, acq.obj) {
			case appendContent:
				continue // append copies the bytes; the object stays put
			case appendElement:
				// x = append(x, obj) stores the object itself — the
				// queue-handoff idiom (flush queues, reply batches). Like a
				// channel send, the drain side inherits the release
				// obligation; no //coollint:owner is needed.
				return toEscaped()
			}
			if !carries(info, r, acq.obj) {
				continue
			}
			var l ast.Expr
			if len(s.Lhs) == len(s.Rhs) {
				l = s.Lhs[i]
			} else if len(s.Lhs) > 0 {
				l = s.Lhs[0]
			}
			if l == nil {
				continue
			}
			if id := rootIdent(l); id != nil && objOf(info, id) == acq.obj {
				continue // store into a field of the object itself
			}
			if pp.escapingLValue(l) {
				pp.reportOnce(s.Pos(), "pooled object %s is stored into %s without //coollint:owner", acq.obj.Name(), exprText(l))
			}
			// A local alias: hand tracking over to avoid false reports.
			return toEscaped()
		}
		return state
	}

	// Closure capture transfers the object out of this analysis scope.
	captured := false
	ast.Inspect(node, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			if usesObject(info, lit, acq.obj) {
				captured = true
			}
			return false
		}
		return true
	})
	if captured {
		return toEscaped()
	}
	return state
}

// carries reports whether e evaluates to obj itself: obj, a reslice of
// it, its address, or a composite literal holding one of those. A value
// read through a pointer or slice (a field, len(obj), a call's result) is
// not obj.
func carries(info *types.Info, e ast.Expr, obj types.Object) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if carries(info, el, obj) {
				return true
			}
		}
		return false
	case *ast.UnaryExpr:
		return x.Op == token.AND && carries(info, x.X, obj)
	case *ast.SelectorExpr:
		// A struct value (coolproto's writer) is a handle: its pooled
		// content is the buffer or pointer it holds.
		_, isStruct := obj.Type().Underlying().(*types.Struct)
		return isStruct && isObjExpr(info, x.X, obj) && aliasKinded(typeOf(info, x))
	}
	return isObjExpr(info, e, obj)
}

// rebinds reports whether the atom assigns obj's variable a value that
// does not derive from obj.
func rebinds(info *types.Info, at atom, obj types.Object) bool {
	as, ok := at.stmt.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, r := range as.Rhs {
		if usesObject(info, r, obj) {
			return false
		}
	}
	for _, l := range as.Lhs {
		if id, ok := l.(*ast.Ident); ok && objOf(info, id) == obj {
			return true
		}
	}
	return false
}

// escapingLValue reports whether storing into l escapes the function:
// fields, map/slice elements, dereferences, and package-level variables.
func (pp *poolPairChecker) escapingLValue(l ast.Expr) bool {
	switch x := ast.Unparen(l).(type) {
	case *ast.Ident:
		obj := objOf(pp.pass.Info, x)
		if v, ok := obj.(*types.Var); ok {
			// Package-level variables escape; locals (including results) don't.
			return v.Parent() == pp.pass.Pkg.Scope()
		}
		return false
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

// Append classification for a tracked object mentioned in an append call.
const (
	appendNone    = iota // not an append of the object (or obj is the destination)
	appendContent        // the object's bytes are copied out; obj stays put
	appendElement        // the object itself is stored in the container (handoff)
)

// appendClassOf classifies how an append call treats the tracked object:
// `append(dst, obj...)` (and appends of scalar elements read from obj)
// copy content, while `append(q, obj)` of a slice/pointer-typed object
// stores the object itself — the write-queue handoff shape.
func appendClassOf(info *types.Info, e ast.Expr, obj types.Object) int {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return appendNone
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return appendNone
	}
	if _, isBuiltin := objOf(info, id).(*types.Builtin); !isBuiltin {
		return appendNone
	}
	if usesObject(info, call.Args[0], obj) {
		return appendNone // obj is (part of) the destination
	}
	for i := 1; i < len(call.Args); i++ {
		a := call.Args[i]
		if !usesObject(info, a, obj) {
			continue
		}
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			return appendContent // append(dst, obj...) copies the elements out
		}
		if aliasKinded(typeOf(info, a)) {
			return appendElement
		}
		return appendContent // scalar element (obj[i], len(obj), ...): a copy
	}
	return appendNone
}

// aliasKinded reports whether a value of type t carries the pooled object
// itself (slice headers, pointers, interfaces) rather than a copied
// scalar.
func aliasKinded(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Interface:
		return true
	}
	return false
}
