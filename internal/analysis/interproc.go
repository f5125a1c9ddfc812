package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// This file is the interprocedural layer of the framework: a module-wide
// function index and call graph, condensed into strongly connected
// components and walked bottom-up to compute one Summary per function.
// Summaries carry the cross-function facts the analyzers need — wire-taint
// propagation and guard facts (wiretaint), acquire/release effects
// (poolpair), lock and blocking effects (lockorder, lockhold) and warm
// allocations (hotalloc) — so each analyzer stays a per-function pass
// that consults callee summaries instead of re-deriving the whole
// program.
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

	// acquires reports that the function returns ownership of a pooled
	// object.
	acquires bool
	// releasesParam[i] reports that the function releases (or queues) a
	// pooled object handed to it as parameter i.
	releasesParam []bool

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
	return p.sums[fn.Origin()] // a generic method is summarized once
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
		releasesParam: make([]bool, len(pf.params)),
		locks:         lockKeySet{},
		freshLocks:    lockKeySet{},
	}
}

func (s *Summary) equal(o *Summary) bool {
	if o == nil || s.guardsParam != o.guardsParam || s.sinkParam != o.sinkParam ||
		s.acquires != o.acquires ||
		s.blocks != o.blocks || s.blockDesc != o.blockDesc ||
		s.warmAllocs != o.warmAllocs ||
		!s.locks.equal(o.locks) || !s.freshLocks.equal(o.freshLocks) {
		return false
	}
	return slices.Equal(s.resultBits, o.resultBits) && slices.Equal(s.releasesParam, o.releasesParam)
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
// ownership through helpers in any analyzed package. Every wrapper around
// the pools (cdr.AcquireEncoder, giop.ReleaseMessage, dacapo.PutPacket,
// ...) is derived here from the bufpool entry points it calls.
func poolSummarize(prog *Program, pf *progFunc, s *Summary) {
	info := pf.pkg.Info
	// An //coollint:acquires annotation is authoritative; otherwise a
	// function that returns the result of an acquire call (directly or
	// through a single local) is itself an acquire helper.
	s.acquires = funcAnnotated(pf.decl, "acquires") || returnsAcquired(prog, pf)
	// releasesParam: the body releases parameter i itself (a release
	// entry point or a callee summary) or element-appends it into
	// escaping storage (queue handoff), in which case the queue's drainer
	// owns the release and the call counts as one for the caller.
	// Annotated //coollint:releases functions free whatever they are
	// handed.
	releasesAll := funcAnnotated(pf.decl, "releases")
	for i, param := range pf.params {
		eff, _ := callEffectIn(prog, info, pf.decl.Body, param)
		s.releasesParam[i] = releasesAll || eff == effRelease || queuesParam(info, pf, param)
	}
}

// poolOp classifies a pool entry point.
type poolOp uint8

const (
	opNone poolOp = iota
	opAcquire
	opRelease
)

// intrinsicPoolOp is the one table of pool entry points: the shared
// arena's Get/Put, a typed bufpool.Pool's Get/Put, and the decode/release
// pair of a codec reached through an interface, which has no summary.
// Every other acquire or release helper is derived by poolSummarize.
func intrinsicPoolOp(callee types.Object) poolOp {
	const bufpool = "cool/internal/bufpool"
	switch {
	case isFunc(callee, bufpool, "Get"), isMethod(callee, bufpool, "Get"),
		isInterfaceMethod(callee, "UnmarshalPooled"):
		return opAcquire
	case isFunc(callee, bufpool, "Put"), isMethod(callee, bufpool, "Put"),
		isInterfaceMethod(callee, "ReleaseMessage"):
		return opRelease
	}
	return opNone
}

// acquiresPooled reports whether calling callee returns ownership of a
// pooled object, by the intrinsic table or the callee's summary.
func acquiresPooled(prog *Program, callee types.Object) bool {
	if callee == nil {
		return false
	}
	if intrinsicPoolOp(callee) == opAcquire {
		return true
	}
	sum := prog.summaryOf(callee)
	return sum != nil && sum.acquires
}

// returnsAcquired reports whether pf returns ownership of an object it
// acquired: `return bufpool.Get(n)` or `b := bufpool.Get(n); ...; return b`.
func returnsAcquired(prog *Program, pf *progFunc) bool {
	info := pf.pkg.Info
	// Locals bound to an acquire call's result.
	acquired := make(map[types.Object]bool)
	ast.Inspect(pf.decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !acquiresPooled(prog, calleeOf(info, call)) {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := objOf(info, id); obj != nil {
				acquired[obj] = true
			}
		}
		return true
	})

	found := false
	forEachOwnReturn(pf.decl.Body, func(ret *ast.ReturnStmt) {
		if len(ret.Results) == 0 {
			return
		}
		switch r := ast.Unparen(ret.Results[0]).(type) {
		case *ast.CallExpr:
			found = found || acquiresPooled(prog, calleeOf(info, r))
		case *ast.Ident:
			found = found || acquired[objOf(info, r)]
		}
	})
	return found
}

// poolEffect is what one call does with a pooled object handed to it,
// ordered by strength: a call that passes the object twice has the
// stronger effect.
type poolEffect uint8

const (
	effNone     poolEffect = iota // not passed (or only read by a builtin or conversion)
	effLend                       // an analyzed callee that keeps no hold: the caller still owns it
	effTransfer                   // a callee without a summary: ownership is assumed to leave
	effRelease                    // released or queued: the caller's obligation ends
)

// callEffect classifies how call treats obj. Only obj itself or a
// reslice of it counts as passing it: a field reached through obj is
// another object (Encoder.grow's bufpool.Put(e.buf) releases the buffer,
// not the encoder). Arguments are mapped to the callee's receiver-first
// parameter indexes.
func callEffect(prog *Program, info *types.Info, call *ast.CallExpr, obj types.Object) poolEffect {
	callee := calleeOf(info, call)
	if callee == nil {
		if tv, ok := info.Types[call.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
			return effNone // len(b), copy(b, x), []byte(s): no ownership moves
		}
		for _, a := range call.Args {
			if isObjExpr(info, a, obj) {
				return effTransfer // a func value: code this analysis cannot see
			}
		}
		return effNone
	}
	recv := 0
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = 1
	}
	op, sum := intrinsicPoolOp(callee), prog.summaryOf(callee)
	eff := effNone
	pass := func(i int) {
		e := effLend
		switch {
		case op == opRelease && i >= recv:
			e = effRelease // the released object is always an argument
		case op != opNone:
			e = effNone
		case sum == nil:
			e = effTransfer
		case i < len(sum.releasesParam) && sum.releasesParam[i]:
			e = effRelease
		}
		eff = max(eff, e)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && recv == 1 && isObjExpr(info, sel.X, obj) {
		pass(0)
	}
	for i, a := range call.Args {
		if isObjExpr(info, a, obj) {
			pass(i + recv)
		}
	}
	return eff
}

// callEffectIn folds callEffect over every call in node outside nested
// function literals, returning the strongest effect and the position of
// the call that had it.
func callEffectIn(prog *Program, info *types.Info, node ast.Node, obj types.Object) (eff poolEffect, pos token.Pos) {
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok || eff == effRelease {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if e := callEffect(prog, info, call, obj); e > eff {
				eff, pos = e, call.Pos()
			}
		}
		return true
	})
	return eff, pos
}

// isObjExpr reports whether e is obj itself or a reslice of it.
func isObjExpr(info *types.Info, e ast.Expr, obj types.Object) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return objOf(info, x) == obj
		case *ast.SliceExpr:
			e = x.X
		default:
			return false
		}
	}
}

// isInterfaceMethod reports whether obj is the method name of an
// interface type.
func isInterfaceMethod(obj types.Object, name string) bool {
	if !isMethod(obj, "", name) {
		return false
	}
	recv := obj.Type().(*types.Signature).Recv()
	return types.IsInterface(recv.Type())
}

// queuesParam reports whether the body stores parameter `param` itself
// into escaping storage by element-append — `w.q = append(w.q, p)`, the
// write-queue handoff idiom. Ownership moves to whoever drains the queue,
// so callers treat the call as a release of the argument.
func queuesParam(info *types.Info, pf *progFunc, param *types.Var) bool {
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
	return found
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
