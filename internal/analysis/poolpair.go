package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolPair enforces the acquire/release contracts of the pooling layer:
// every pooled object obtained in a function is released on every
// control-flow path, released at most once, and not used after release.
//
// Tracked acquisitions (kind in parentheses):
//
//	cdr.AcquireEncoder            (encoder)
//	giop.AcquireMessage           (message)
//	giop.UnmarshalPooled          (message; nil on error)
//	method UnmarshalPooled        (message; the orb.Codec contract)
//	bufpool.Get                   (buffer)
//	same-package functions annotated //coollint:acquires <kind>
//
// Matching releases:
//
//	encoder: cdr.ReleaseEncoder(e), e.Detach()
//	message: giop.ReleaseMessage(m), method ReleaseMessage(m)
//	buffer:  bufpool.Put(b), transport.PutBuffer(b), giop.ReleaseFrame(b)
//	any:     same-package functions annotated //coollint:releases
//
// Ownership may leave the function without a release: returning the
// object, sending it on a channel, or (for messages and buffers, whose
// contract passes ownership with the value) handing it to another
// function all transfer responsibility to the receiver. Encoders are
// only lent on calls and stay owned. Element-appending the object into a
// slice — `w.q = append(w.q, frame)`, the flush-queue idiom — stores the
// object itself and is recognized as a handoff like a channel send: the
// queue's drainer inherits the release obligation. Spread-appending
// (`dst = append(dst, b...)`) only copies the bytes and leaves the
// object owned. Any other store of a tracked object into a struct field
// or package variable requires a //coollint:owner annotation on the
// acquisition line.
//
// Two-value acquisitions (`m, err := UnmarshalPooled(frame)`) are
// correlated with `if err != nil` guards: on the error branch the callee
// has already reclaimed the object, so no release is due.
var PoolPair = &Analyzer{
	Name: "poolpair",
	Doc:  "pooled objects are released exactly once on every path",
	Run:  runPoolPair,
}

// Pool object kinds.
const (
	kindEncoder = "encoder"
	kindMessage = "message"
	kindBuffer  = "buffer"
)

// releaseName names the canonical release entry point per kind, for
// diagnostics.
var releaseName = map[string]string{
	kindEncoder: "cdr.ReleaseEncoder or Detach",
	kindMessage: "ReleaseMessage",
	kindBuffer:  "bufpool.Put",
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
	kind string
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
		decls:    funcDeclsOf(pass),
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
	pass  *Pass
	decls map[types.Object]*ast.FuncDecl
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
	acqs := pp.findAcquisitions(file, body, g)
	for _, acq := range acqs {
		pp.flow(g, acq)
	}
}

// findAcquisitions scans the CFG atoms of body for tracked acquire calls.
func (pp *poolPairChecker) findAcquisitions(file *ast.File, body *ast.BlockStmt, g *cfg) []*acquisition {
	var acqs []*acquisition
	for _, blk := range g.blocks {
		for i, at := range blk.atoms {
			node := atomNode(at)
			if node == nil {
				continue
			}
			calls := pp.acquireCalls(body, node)
			for _, ac := range calls {
				acq := pp.bindAcquisition(file, at, ac, blk, i)
				if acq != nil {
					acqs = append(acqs, acq)
				}
			}
		}
	}
	return acqs
}

// atomNode returns the syntax a CFG atom covers.
func atomNode(at atom) ast.Node {
	switch {
	case at.stmt != nil:
		return at.stmt
	case at.expr != nil:
		return at.expr
	case at.sel != nil:
		// Only the communication clauses (separate atoms) matter.
		return nil
	}
	return nil
}

type acquireCall struct {
	call *ast.CallExpr
	kind string
	what string
}

// acquireCalls finds tracked acquire calls in node, excluding nested
// function literals (analyzed separately) but including the body argument
// of the enclosing body's defer/go statements.
func (pp *poolPairChecker) acquireCalls(body *ast.BlockStmt, node ast.Node) []acquireCall {
	var out []acquireCall
	ast.Inspect(node, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if kind, what, ok := pp.isAcquire(call); ok {
			out = append(out, acquireCall{call: call, kind: kind, what: what})
		}
		return true
	})
	return out
}

// isAcquire classifies a call as a pool acquisition.
func (pp *poolPairChecker) isAcquire(call *ast.CallExpr) (kind, what string, ok bool) {
	obj := calleeOf(pp.pass.Info, call)
	if obj == nil {
		return "", "", false
	}
	switch {
	case isFunc(obj, "cool/internal/cdr", "AcquireEncoder"):
		return kindEncoder, "cdr.AcquireEncoder", true
	case isFunc(obj, "cool/internal/giop", "AcquireMessage"):
		return kindMessage, "giop.AcquireMessage", true
	case isFunc(obj, "cool/internal/giop", "UnmarshalPooled"):
		return kindMessage, "giop.UnmarshalPooled", true
	case isFunc(obj, "cool/internal/bufpool", "Get"):
		return kindBuffer, "bufpool.Get", true
	case isMethod(obj, "", "UnmarshalPooled"):
		return kindMessage, "UnmarshalPooled", true
	}
	// Same-package helpers annotated //coollint:acquires <kind>.
	if decl, okd := pp.decls[obj]; okd {
		if v, oka := funcAnnotation(decl, "acquires"); oka {
			switch v {
			case kindEncoder, kindMessage, kindBuffer:
				return v, obj.Name(), true
			}
		}
	}
	// Any analyzed function whose interprocedural summary says it returns
	// ownership of a pool object — annotated or not, same package or not.
	if sum := pp.pass.Prog.summaryOf(obj); sum != nil && sum.acquires != "" {
		return sum.acquires, obj.Name(), true
	}
	return "", "", false
}

// bindAcquisition resolves which variable an acquire call's result binds
// to, reporting immediately-diagnosable shapes (discarded result).
func (pp *poolPairChecker) bindAcquisition(file *ast.File, at atom, ac acquireCall, blk *cfgBlock, atomIdx int) *acquisition {
	if ownerAnnotated(pp.pass.Fset, file, ac.call.Pos()) {
		return nil // declared intentional escape
	}
	info := pp.pass.Info

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
					if containsNode(v, ac.call) {
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
		if ast.Unparen(s.X) == ac.call {
			pp.reportOnce(ac.call.Pos(), "result of %s is discarded; the pooled %s leaks", ac.what, ac.kind)
			return nil
		}
	}
	if lhs == nil {
		// The acquire call feeds another expression directly (argument,
		// composite literal, return value): ownership passes with the value
		// for messages and buffers; an encoder handed away like this cannot
		// be released here either, so treat all kinds as transferred.
		return nil
	}
	// Locate the value position of the call among the RHS to pick the LHS.
	idx := 0
	if len(rhs) == len(lhs) {
		for i, v := range rhs {
			if containsNode(v, ac.call) {
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
		pp.reportOnce(ac.call.Pos(), "result of %s is stored into %s without //coollint:owner", ac.what, exprText(lhs[idx]))
		return nil
	}
	if id.Name == "_" {
		pp.reportOnce(ac.call.Pos(), "result of %s is discarded; the pooled %s leaks", ac.what, ac.kind)
		return nil
	}
	obj := objOf(info, id)
	if obj == nil {
		return nil
	}
	acq := &acquisition{
		kind:    ac.kind,
		obj:     obj,
		pos:     ac.call.Pos(),
		what:    ac.what,
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

// flow runs the per-acquisition forward dataflow and reports leaks,
// double releases, and uses after release.
func (pp *poolPairChecker) flow(g *cfg, acq *acquisition) {
	initial := stOwned
	if acq.errObj != nil {
		initial |= stAbsent
	}
	entry := make(map[*cfgBlock]uint8)

	type workItem struct {
		blk     *cfgBlock
		fromIdx int
		state   uint8
	}
	work := []workItem{{blk: acq.block, fromIdx: acq.atomIdx + 1, state: initial}}

	propagate := func(blk *cfgBlock, state uint8, w *[]workItem) {
		old := entry[blk]
		merged := old | state
		if merged == old {
			return
		}
		entry[blk] = merged
		*w = append(*w, workItem{blk: blk, fromIdx: 0, state: merged})
	}

	for len(work) > 0 {
		item := work[len(work)-1]
		work = work[:len(work)-1]
		state := item.state
		blk := item.blk
		for i := item.fromIdx; i < len(blk.atoms); i++ {
			if blk == acq.block && i == acq.atomIdx {
				state = initial // loop re-entry re-acquires
				continue
			}
			state = pp.transfer(blk.atoms[i], state, acq)
			if state == 0 {
				break // no feasible continuation
			}
		}
		if state == 0 {
			continue
		}
		if blk == g.exit {
			if state&stOwned != 0 {
				pp.reportOnce(acq.pos, "result of %s is not released on every path (missing %s)", acq.what, releaseName[acq.kind])
			}
			continue
		}
		if len(blk.succs) == 0 && blk != g.exit {
			continue // dying path (panic / Fatal): ownership checks lapse
		}
		for _, e := range blk.succs {
			s := pp.filterEdge(e, state, acq)
			if s == 0 {
				continue
			}
			if e.to == g.exit {
				if s&stOwned != 0 {
					pp.reportOnce(acq.pos, "result of %s is not released on every path (missing %s)", acq.what, releaseName[acq.kind])
				}
				continue
			}
			propagate(e.to, s, &work)
		}
	}
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
	if !usesObject(pp.pass.Info, node, acq.obj) {
		return state
	}

	deferred := false
	if ds, ok := at.stmt.(*ast.DeferStmt); ok {
		deferred = true
		// A deferred closure that releases the object counts as a deferred
		// release of the whole function.
		if lit, ok := ds.Call.Fun.(*ast.FuncLit); ok {
			if pp.bodyReleases(lit.Body, acq) {
				return (state &^ (stOwned | stAbsent)) | stDeferred
			}
		}
	}

	if relPos, ok := pp.releaseIn(node, acq); ok {
		if state&(stReleased|stDeferred) != 0 {
			pp.reportOnce(relPos, "%s released again; the pooled %s was already released on some path", acq.obj.Name(), acq.kind)
		}
		if deferred {
			return (state &^ (stOwned | stAbsent)) | stDeferred
		}
		return (state &^ (stOwned | stAbsent)) | stReleased
	}

	// Any other mention of a fully-released object is a use after release.
	if state == stReleased {
		pp.reportOnce(node.Pos(), "%s used after the pooled %s was released", acq.obj.Name(), acq.kind)
		return stEscaped // report once, then stop tracking the path
	}

	return pp.escape(at, node, state, acq)
}

// escape classifies non-release mentions: ownership transfers (return,
// send, call argument for value-owning kinds) clear the release
// obligation; stores into escaping storage require an owner annotation.
func (pp *poolPairChecker) escape(at atom, node ast.Node, state uint8, acq *acquisition) uint8 {
	info := pp.pass.Info
	toEscaped := func() uint8 { return (state &^ (stOwned | stAbsent)) | stEscaped }

	switch s := at.stmt.(type) {
	case *ast.ReturnStmt:
		return toEscaped()
	case *ast.SendStmt:
		if usesObject(info, s.Value, acq.obj) {
			return toEscaped()
		}
		return state
	case *ast.AssignStmt:
		// Does the RHS carry the object into an escaping lvalue?
		for i, r := range s.Rhs {
			if !usesObject(info, r, acq.obj) {
				continue
			}
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
			var l ast.Expr
			if len(s.Lhs) == len(s.Rhs) {
				l = s.Lhs[i]
			} else if len(s.Lhs) > 0 {
				l = s.Lhs[0]
			}
			if l == nil {
				continue
			}
			if rootsAt(info, l, acq.obj) != nil {
				continue // store into a field of the object itself
			}
			if pp.escapingLValue(l) {
				pp.reportOnce(s.Pos(), "pooled %s %s is stored into %s without //coollint:owner", acq.kind, acq.obj.Name(), exprText(l))
				return toEscaped()
			}
			// Local alias: hand tracking over to avoid false reports.
			return toEscaped()
		}
		return state
	}

	if at.kind == atomReturn {
		return toEscaped()
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

	// Calls: messages and buffers pass ownership with the value; encoders
	// are only lent and stay owned.
	if acq.kind != kindEncoder {
		passed := false
		ast.Inspect(node, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, a := range call.Args {
				if usesObject(info, a, acq.obj) {
					passed = true
				}
			}
			return true
		})
		if passed {
			return toEscaped()
		}
	}
	return state
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

// rootsAt returns l's root identifier's object when it matches obj.
func rootsAt(info *types.Info, l ast.Expr, obj types.Object) types.Object {
	if id := rootIdent(l); id != nil && objOf(info, id) == obj {
		return obj
	}
	return nil
}

// releaseIn looks for a call in node (outside nested function literals)
// that releases the tracked object, returning the call position.
func (pp *poolPairChecker) releaseIn(node ast.Node, acq *acquisition) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pp.isReleaseOf(call, acq) {
			pos = call.Pos()
			found = true
			return false
		}
		return true
	})
	return pos, found
}

// bodyReleases reports whether a (deferred closure) body releases the
// tracked object on its fall-through spine. Approximation: any release
// call anywhere in the body counts.
func (pp *poolPairChecker) bodyReleases(body *ast.BlockStmt, acq *acquisition) bool {
	_, ok := pp.releaseIn(body, acq)
	return ok
}

// isReleaseOf reports whether call releases the acquisition's object.
func (pp *poolPairChecker) isReleaseOf(call *ast.CallExpr, acq *acquisition) bool {
	info := pp.pass.Info
	callee := calleeOf(info, call)
	if callee == nil {
		return false
	}

	argIsObj := func() bool {
		for _, a := range call.Args {
			if rootsAt(info, a, acq.obj) != nil {
				return true
			}
		}
		return false
	}

	switch acq.kind {
	case kindEncoder:
		if isFunc(callee, "cool/internal/cdr", "ReleaseEncoder") && argIsObj() {
			return true
		}
		// e.Detach() recycles the encoder shell; ownership of the bytes
		// moves to the caller of Detach.
		if isMethod(callee, "cool/internal/cdr", "Detach") {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if rootsAt(info, sel.X, acq.obj) != nil {
					return true
				}
			}
		}
	case kindMessage:
		if isFunc(callee, "cool/internal/giop", "ReleaseMessage") && argIsObj() {
			return true
		}
		if isMethod(callee, "", "ReleaseMessage") && argIsObj() {
			return true
		}
	case kindBuffer:
		if (isFunc(callee, "cool/internal/bufpool", "Put") ||
			isFunc(callee, "cool/internal/transport", "PutBuffer") ||
			isFunc(callee, "cool/internal/giop", "ReleaseFrame")) && argIsObj() {
			return true
		}
	}

	// Same-package helpers annotated //coollint:releases free whatever
	// tracked object they are handed — as an argument or as the receiver.
	if decl, ok := pp.decls[callee]; ok {
		if _, ok := funcAnnotation(decl, "releases"); ok {
			if argIsObj() {
				return true
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && rootsAt(info, sel.X, acq.obj) != nil {
				return true
			}
		}
	}

	// Release through an un-annotated helper (any analyzed package): the
	// interprocedural summary records which parameter it frees and of what
	// kind. The call-site argument index is mapped to the callee's
	// receiver-first parameter index.
	if sum := pp.pass.Prog.summaryOf(callee); sum != nil {
		recvOffset := 0
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
			recvOffset = 1
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && rootsAt(info, sel.X, acq.obj) != nil {
				if len(sum.releasesParam) > 0 && releaseKindMatches(sum.releasesParam[0], acq.kind) {
					return true
				}
			}
		}
		for i, a := range call.Args {
			if rootsAt(info, a, acq.obj) == nil {
				continue
			}
			idx := i + recvOffset
			if idx < len(sum.releasesParam) && releaseKindMatches(sum.releasesParam[idx], acq.kind) {
				return true
			}
		}
	}
	return false
}

// releaseKindMatches reports whether a summary's released kind frees an
// acquisition of kind acq ("any" comes from //coollint:releases).
func releaseKindMatches(released, acq string) bool {
	return released == acq || released == "any"
}
