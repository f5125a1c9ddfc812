package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the interprocedural layer of the framework: a module-wide
// function index and call graph, condensed into strongly connected
// components and walked bottom-up to compute one Summary per function.
// Summaries carry the cross-function facts the analyzers need — wire-taint
// propagation and guard facts (wiretaint), acquire/release effects
// (poolpair), alias-returning results (framealias), lock and blocking
// effects (lockorder, lockhold) and warm allocations (hotalloc) — so each
// analyzer stays a per-function pass that consults callee summaries
// instead of re-deriving the whole program.
//
// The computation is a fixpoint per SCC: summaries inside a cycle are
// recomputed until stable (monotone bit growth, so termination is by
// lattice height). Functions are identified by their *types.Func object;
// function literals are not separate nodes — their bodies are analyzed as
// part of the enclosing function.

// Program is the module-wide analysis view shared by every Pass of one
// RunAnalyzers invocation.
type Program struct {
	fset  *token.FileSet
	funcs map[*types.Func]*progFunc
	sums  map[*types.Func]*Summary

	// lockEdges are the module-wide lock-ordering edges (lockfacts.go),
	// filled in by a post-summary pass.
	lockEdges []lockEdge
	// annots caches the per-file //coollint:allow index for allowedAt.
	annots map[*token.File]map[int]map[string]bool

	// Allocation facts (allocfacts.go): per-function classified warm
	// allocation sites and synchronous call edges for hotalloc, plus the
	// per-file //coollint:allocok line index.
	allocFacts map[*types.Func]*allocFuncFacts
	allocOK    map[*token.File]map[int]string
}

// progFunc is one function declaration in the module.
type progFunc struct {
	obj  *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	// params is the receiver-first parameter list (summaries index
	// parameters in this order).
	params []*types.Var
	// callees are the module-internal functions called directly from the
	// body (including inside function literals).
	callees []*types.Func
}

// Summary is the interprocedural abstract of one function. Parameter
// indexes are receiver-first: a method's receiver is parameter 0 and its
// declared parameters follow. Taint sets are bitmasks: bit 0 is
// wire-derived taint, bit i+1 is "flows from parameter i".
type Summary struct {
	nParams  int
	nResults int

	// resultBits[j] is the taint of result j: the wire bit when the
	// result carries unguarded wire-derived data, plus parameter bits for
	// unsanitized parameter-to-result flow.
	resultBits []uint64
	// guardsParam has bit i set when the function bounds-checks parameter
	// i against a constant or a len/cap/Remaining-style limit before use:
	// calling f(x) then counts as a guard of x at the call site.
	guardsParam uint64
	// sinkParam has bit i set when parameter i reaches an allocation or
	// loop-bound sink inside the function without a guard.
	sinkParam uint64

	// acquires names the pool-object kind the function returns ownership
	// of ("" when it is not an acquire helper).
	acquires string
	// releasesParam[i] names the pool-object kind the function releases
	// when handed one as parameter i ("" when it does not).
	releasesParam []string

	// aliasResults has bit j set when result j aliases memory reachable
	// from the receiver or a parameter (frame-aliasing helpers).
	aliasResults uint64

	// locks is the set of mutex classes the function (or a callee) may
	// acquire — released-before-return acquisitions included, since they
	// still order against locks the caller holds across the call.
	locks lockKeySet
	// freshLocks is the subset of locks with at least one acquisition NOT
	// dominated by a release of the same class. A class in locks but not
	// here is only ever re-acquired after the function itself released it
	// (the combiner "entered locked" protocol) — safe for callers already
	// holding that class, so no self-edge is generated for it.
	freshLocks lockKeySet
	// blocks reports a potentially unbounded blocking operation reachable
	// from the body on the calling goroutine: channel send/receive,
	// select without default, sync Wait, range over a channel.
	// blockDesc names the operation and its origin function for
	// diagnostics ("channel receive in waitAdmission").
	blocks    bool
	blockDesc string

	// warmAllocs reports a warm, unsanctioned allocation site in the
	// function or any synchronous callee (allocfacts.go) — hotalloc's
	// bottom-up pruning bit.
	warmAllocs bool
}

// summaryOf returns the summary for a callee, or nil for functions outside
// the analyzed packages (stdlib, unexported synthetics).
func (p *Program) summaryOf(obj types.Object) *Summary {
	if p == nil {
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return p.sums[fn]
}

// BuildProgram indexes every function declaration in pkgs and computes
// per-function summaries bottom-up over the call-graph SCCs.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		funcs:      make(map[*types.Func]*progFunc),
		sums:       make(map[*types.Func]*Summary),
		allocFacts: make(map[*types.Func]*allocFuncFacts),
	}
	if len(pkgs) == 0 {
		return prog
	}
	prog.fset = pkgs[0].Fset

	// Pass 1: index declarations.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				prog.funcs[fn] = &progFunc{
					obj:    fn,
					decl:   fd,
					pkg:    pkg,
					params: receiverFirstParams(fn),
				}
			}
		}
	}

	// Pass 2: direct call edges (module-internal only).
	for _, pf := range prog.funcs {
		seen := make(map[*types.Func]bool)
		ast.Inspect(pf.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn, ok := calleeOf(pf.pkg.Info, call).(*types.Func); ok {
				if _, inModule := prog.funcs[fn]; inModule && !seen[fn] {
					seen[fn] = true
					pf.callees = append(pf.callees, fn)
				}
			}
			return true
		})
	}

	// Pass 3: bottom-up fixpoint over SCCs.
	for _, scc := range prog.sccs() {
		for _, fn := range scc {
			prog.sums[fn] = newSummary(prog.funcs[fn])
		}
		for changed, rounds := true, 0; changed && rounds < 16; rounds++ {
			changed = false
			for _, fn := range scc {
				next := summarize(prog, prog.funcs[fn])
				if !next.equal(prog.sums[fn]) {
					prog.sums[fn] = next
					changed = true
				}
			}
		}
	}

	// Pass 4: lock-order edges — consume the finished summaries, so they
	// are collected after the fixpoint.
	collectConcurrencyFacts(prog)
	return prog
}

// receiverFirstParams flattens a signature into the receiver-first
// parameter list used for summary indexing.
func receiverFirstParams(fn *types.Func) []*types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var params []*types.Var
	if r := sig.Recv(); r != nil {
		params = append(params, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		params = append(params, sig.Params().At(i))
	}
	return params
}

// newSummary returns the bottom element for a function.
func newSummary(pf *progFunc) *Summary {
	sig := pf.obj.Type().(*types.Signature)
	return &Summary{
		nParams:       len(pf.params),
		nResults:      sig.Results().Len(),
		resultBits:    make([]uint64, sig.Results().Len()),
		releasesParam: make([]string, len(pf.params)),
		locks:         lockKeySet{},
		freshLocks:    lockKeySet{},
	}
}

func (s *Summary) equal(o *Summary) bool {
	if o == nil || s.guardsParam != o.guardsParam || s.sinkParam != o.sinkParam ||
		s.acquires != o.acquires || s.aliasResults != o.aliasResults ||
		s.blocks != o.blocks || s.blockDesc != o.blockDesc ||
		s.warmAllocs != o.warmAllocs ||
		!s.locks.equal(o.locks) || !s.freshLocks.equal(o.freshLocks) {
		return false
	}
	for i := range s.resultBits {
		if s.resultBits[i] != o.resultBits[i] {
			return false
		}
	}
	for i := range s.releasesParam {
		if s.releasesParam[i] != o.releasesParam[i] {
			return false
		}
	}
	return true
}

// sccs condenses the call graph with Tarjan's algorithm and returns the
// components in bottom-up (callees before callers) order.
func (p *Program) sccs() [][]*types.Func {
	type nodeState struct {
		index, lowlink int
		onStack        bool
	}
	var (
		states = make(map[*types.Func]*nodeState)
		stack  []*types.Func
		next   int
		out    [][]*types.Func
	)

	// Iterative Tarjan: an explicit frame stack avoids deep recursion on
	// long call chains.
	type frame struct {
		fn   *types.Func
		ci   int // next callee index to visit
		prev *types.Func
	}
	var visit func(root *types.Func)
	visit = func(root *types.Func) {
		frames := []frame{{fn: root}}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			st := states[f.fn]
			if st == nil {
				st = &nodeState{index: next, lowlink: next, onStack: true}
				next++
				states[f.fn] = st
				stack = append(stack, f.fn)
			}
			advanced := false
			callees := p.funcs[f.fn].callees
			for f.ci < len(callees) {
				c := callees[f.ci]
				f.ci++
				cs := states[c]
				if cs == nil {
					frames = append(frames, frame{fn: c, prev: f.fn})
					advanced = true
					break
				}
				if cs.onStack && cs.index < st.lowlink {
					st.lowlink = cs.index
				}
			}
			if advanced {
				continue
			}
			// Close the frame: pop an SCC when this is a root.
			if st.lowlink == st.index {
				var scc []*types.Func
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					states[top].onStack = false
					scc = append(scc, top)
					if top == f.fn {
						break
					}
				}
				out = append(out, scc)
			}
			if f.prev != nil {
				ps := states[f.prev]
				if st.lowlink < ps.lowlink {
					ps.lowlink = st.lowlink
				}
			}
			frames = frames[:len(frames)-1]
		}
	}

	// Deterministic iteration: order roots by source position.
	roots := make([]*progFunc, 0, len(p.funcs))
	for _, pf := range p.funcs {
		roots = append(roots, pf)
	}
	sortProgFuncs(roots)
	for _, pf := range roots {
		if states[pf.obj] == nil {
			visit(pf.obj)
		}
	}
	return out
}

func sortProgFuncs(pfs []*progFunc) {
	// Insertion sort by declaration position keeps this dependency-free
	// and stable; module function counts are small (hundreds).
	for i := 1; i < len(pfs); i++ {
		for j := i; j > 0 && pfs[j].decl.Pos() < pfs[j-1].decl.Pos(); j-- {
			pfs[j], pfs[j-1] = pfs[j-1], pfs[j]
		}
	}
}

// summarize recomputes one function's summary against the current state
// of its callees' summaries.
func summarize(prog *Program, pf *progFunc) *Summary {
	s := newSummary(pf)
	taintSummarize(prog, pf, s)
	poolSummarize(prog, pf, s)
	aliasSummarize(prog, pf, s)
	lockSummarize(prog, pf, s)
	allocSummarize(prog, pf, s)
	return s
}

// typeOf returns the static type of e, or nil.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isChanType reports whether e has channel type.
func isChanType(info *types.Info, e ast.Expr) bool {
	t := typeOf(info, e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// --- poolpair effects -------------------------------------------------

// poolSummarize computes acquire/release effects so poolpair can follow
// ownership through un-annotated helpers in any analyzed package.
func poolSummarize(prog *Program, pf *progFunc, s *Summary) {
	info := pf.pkg.Info

	// An //coollint:acquires annotation is authoritative; otherwise a
	// function that returns the result of an acquire call (directly or
	// through a single local) is itself an acquire helper.
	if v, ok := funcAnnotation(pf.decl, "acquires"); ok {
		switch v {
		case kindEncoder, kindMessage, kindBuffer:
			s.acquires = v
		}
	} else {
		s.acquires = acquiredReturnKind(prog, pf)
	}

	// releasesParam: the body hands parameter i to a known release
	// entry point (intrinsic table, annotation, or a callee summary) —
	// or element-appends it into escaping storage (queue handoff), in
	// which case the queue's drainer owns the release and the call
	// counts as one for the caller.
	for i, param := range pf.params {
		if kind := releasedParamKind(prog, pf, info, param); kind != "" {
			s.releasesParam[i] = kind
		} else if kind := queuedParamKind(info, pf, param); kind != "" {
			s.releasesParam[i] = kind
		}
	}
	if _, ok := funcAnnotation(pf.decl, "releases"); ok {
		// Annotated releasers free whatever tracked object they are handed.
		for i := range s.releasesParam {
			if s.releasesParam[i] == "" {
				s.releasesParam[i] = "any"
			}
		}
	}
}

// intrinsicAcquireKind classifies the hardwired pool acquire entry
// points.
func intrinsicAcquireKind(callee types.Object) string {
	switch {
	case isFunc(callee, "cool/internal/cdr", "AcquireEncoder"):
		return kindEncoder
	case isFunc(callee, "cool/internal/giop", "AcquireMessage"),
		isFunc(callee, "cool/internal/giop", "UnmarshalPooled"),
		isMethod(callee, "", "UnmarshalPooled"):
		return kindMessage
	case isFunc(callee, "cool/internal/bufpool", "Get"):
		return kindBuffer
	}
	return ""
}

// intrinsicReleaseKind classifies the hardwired release entry points by
// the kind they free.
func intrinsicReleaseKind(callee types.Object) string {
	switch {
	case isFunc(callee, "cool/internal/cdr", "ReleaseEncoder"),
		isMethod(callee, "cool/internal/cdr", "Detach"):
		return kindEncoder
	case isFunc(callee, "cool/internal/giop", "ReleaseMessage"),
		isMethod(callee, "", "ReleaseMessage"):
		return kindMessage
	case isFunc(callee, "cool/internal/bufpool", "Put"),
		isFunc(callee, "cool/internal/transport", "PutBuffer"),
		isFunc(callee, "cool/internal/giop", "ReleaseFrame"):
		return kindBuffer
	}
	return ""
}

// acquireKindOf resolves a call to the pool kind it acquires, consulting
// intrinsics first and callee summaries second.
func acquireKindOf(prog *Program, info *types.Info, call *ast.CallExpr) string {
	callee := calleeOf(info, call)
	if callee == nil {
		return ""
	}
	if k := intrinsicAcquireKind(callee); k != "" {
		return k
	}
	if sum := prog.summaryOf(callee); sum != nil {
		return sum.acquires
	}
	return ""
}

// acquiredReturnKind reports the kind when pf returns ownership of an
// object it acquired: `return bufpool.Get(n)` or `b := bufpool.Get(n);
// ...; return b`.
func acquiredReturnKind(prog *Program, pf *progFunc) string {
	info := pf.pkg.Info
	// Map single-assignment locals to the kind they bind.
	localKind := make(map[types.Object]string)
	ast.Inspect(pf.decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		kind := acquireKindOf(prog, info, call)
		if kind == "" {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := objOf(info, id); obj != nil {
				localKind[obj] = kind
			}
		}
		return true
	})

	kind := ""
	forEachOwnReturn(pf.decl.Body, func(ret *ast.ReturnStmt) {
		if len(ret.Results) == 0 {
			return
		}
		r := ast.Unparen(ret.Results[0])
		if call, ok := r.(*ast.CallExpr); ok {
			if k := acquireKindOf(prog, info, call); k != "" {
				kind = k
			}
			return
		}
		if id, ok := r.(*ast.Ident); ok {
			if k := localKind[objOf(info, id)]; k != "" {
				kind = k
			}
		}
	})
	return kind
}

// releasedParamKind reports the kind a function releases for one of its
// parameters, following intrinsic release calls and callee summaries.
func releasedParamKind(prog *Program, pf *progFunc, info *types.Info, param *types.Var) string {
	kind := ""
	ast.Inspect(pf.decl.Body, func(n ast.Node) bool {
		if kind != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(info, call)
		if callee == nil {
			return true
		}
		argIdx := -1
		for i, a := range call.Args {
			if id := rootIdent(a); id != nil && objOf(info, id) == param {
				argIdx = i
			}
		}
		recvIsParam := false
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id := rootIdent(sel.X); id != nil && objOf(info, id) == param {
				recvIsParam = true
			}
		}
		if argIdx < 0 && !recvIsParam {
			return true
		}
		if k := intrinsicReleaseKind(callee); k != "" {
			kind = k
			return false
		}
		if sum := prog.summaryOf(callee); sum != nil {
			// Map the call-site argument to the callee's receiver-first index.
			idx := argIdx
			if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
				if recvIsParam {
					idx = 0
				} else {
					idx = argIdx + 1
				}
			}
			if idx >= 0 && idx < len(sum.releasesParam) && sum.releasesParam[idx] != "" {
				kind = sum.releasesParam[idx]
				return false
			}
		}
		return true
	})
	return kind
}

// queuedParamKind reports the pool kind when the body stores parameter
// `param` itself into escaping storage by element-append — `w.q =
// append(w.q, p)`, the write-queue handoff idiom. Ownership moves to
// whoever drains the queue, so callers may treat the call as a release
// of the argument (poolpair's isReleaseOf consults this via the
// summary).
func queuedParamKind(info *types.Info, pf *progFunc, param *types.Var) string {
	kind := poolKindOfType(param.Type())
	if kind == "" {
		return ""
	}
	found := false
	ast.Inspect(pf.decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, r := range as.Rhs {
			if appendClassOf(info, r, param) != appendElement {
				continue
			}
			// Only stores into fields, elements, or dereferences move
			// the object out of the function; a local queue keeps it
			// in-function and is not a handoff.
			switch ast.Unparen(as.Lhs[i]).(type) {
			case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
				found = true
			}
		}
		return !found
	})
	if !found {
		return ""
	}
	return kind
}

// poolKindOfType maps a static type to the pool kind its values carry:
// []byte buffers and *giop.Message messages. Encoders are excluded —
// they are lent on calls, never queued.
func poolKindOfType(t types.Type) string {
	if t == nil {
		return ""
	}
	if n := namedOf(t); n != nil {
		if o := n.Obj(); o != nil && o.Pkg() != nil &&
			o.Pkg().Path() == "cool/internal/giop" && o.Name() == "Message" {
			return kindMessage
		}
	}
	if sl, ok := t.Underlying().(*types.Slice); ok {
		if b, ok := sl.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Byte {
			return kindBuffer
		}
	}
	return ""
}

// --- framealias facts -------------------------------------------------

// aliasSummarize marks results that alias receiver/parameter memory:
// helpers that wrap BodyDecoder or return sub-slices of a pooled frame.
func aliasSummarize(prog *Program, pf *progFunc, s *Summary) {
	info := pf.pkg.Info
	paramObjs := make(map[types.Object]bool, len(pf.params))
	for _, p := range pf.params {
		paramObjs[p] = true
	}

	var aliasExpr func(e ast.Expr) bool
	aliasExpr = func(e ast.Expr) bool {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.Ident:
			return paramObjs[objOf(info, x)]
		case *ast.SliceExpr:
			return aliasExpr(x.X)
		case *ast.SelectorExpr:
			return aliasExpr(x.X)
		case *ast.UnaryExpr:
			return aliasExpr(x.X)
		case *ast.CallExpr:
			callee := calleeOf(info, x)
			if callee == nil {
				return false
			}
			// Known aliasing accessors on a parameter-rooted receiver.
			if isMethod(callee, "cool/internal/giop", "BodyDecoder") ||
				isMethod(callee, "cool/internal/giop", "Body") ||
				isMethod(callee, "cool/internal/giop", "Frame") ||
				isMethod(callee, "cool/internal/cdr", "ReadOctetSeq") ||
				isMethod(callee, "cool/internal/cdr", "ReadOctets") ||
				isMethod(callee, "cool/internal/cdr", "ReadStringBytes") {
				if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
					return aliasExpr(sel.X)
				}
			}
			if sum := prog.summaryOf(callee); sum != nil && sum.aliasResults != 0 {
				if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && aliasExpr(sel.X) {
					return true
				}
				for _, a := range x.Args {
					if aliasExpr(a) {
						return true
					}
				}
			}
			return false
		}
		return false
	}

	forEachOwnReturn(pf.decl.Body, func(ret *ast.ReturnStmt) {
		for j, r := range ret.Results {
			if j < 64 && aliasExpr(r) {
				s.aliasResults |= 1 << uint(j)
			}
		}
	})
}

// forEachOwnReturn visits the return statements of body that belong to
// the function itself, skipping returns inside nested function literals.
func forEachOwnReturn(body *ast.BlockStmt, fn func(*ast.ReturnStmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			fn(x)
		}
		return true
	})
}
