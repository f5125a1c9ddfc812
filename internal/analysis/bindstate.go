package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// BindState is the typestate analyzer for the explicit-binding lifecycle
// (paper §4): proxies carry QoS requirements set through SetQoSParameter,
// are bound to an ORB, and die with it. The checks are driven by the
// declarative tables below so Chic-generated stubs — any named type whose
// method set matches the proxy shape — are covered without per-type
// code:
//
//   - no invocation (or QoS change) through a proxy whose origin ORB was
//     shut down earlier in the same function,
//   - the error results of the QoS declaration path (SetQoSParameter,
//     cool.TryQoS, qos.NewSet, Set.Validate) must not be discarded —
//     negotiation failure is the paper's central failure mode,
//   - a Pending from a deferred invocation must be consumed (Wait, Poll,
//     Cancel, or escape): an abandoned Pending strands the pooled reply
//     buffer.
var BindState = &Analyzer{
	Name: "bindstate",
	Doc:  "explicit-binding lifecycle: no use after ORB shutdown, QoS errors checked, Pendings consumed",
	Run:  runBindState,
}

// --- declarative model ------------------------------------------------

// bindClass is the lifecycle role of a value, detected structurally from
// its method set (so generated stubs match).
type bindClass int

const (
	classNone bindClass = iota
	// classProxy: named type with SetQoSParameter(qos.Set) error.
	classProxy
	// classORB: named type with Shutdown() and a Resolve method.
	classORB
	// classPending: named type with Wait, Poll, and Cancel methods.
	classPending
)

// bindEvent is an abstract lifecycle event.
type bindEvent int

const (
	evUse bindEvent = iota // any proxy method call
	evSetQoS
	evShutdown
)

// bindEventRules classifies method calls into events: the first rule
// whose class matches the receiver and whose method matches the call
// wins ("*" matches any method).
var bindEventRules = []struct {
	class  bindClass
	method string
	event  bindEvent
}{
	{classORB, "Shutdown", evShutdown},
	{classProxy, "SetQoSParameter", evSetQoS},
	{classProxy, "*", evUse},
}

// bindStateID is a typestate of an ORB (proxies take their state from
// their origin ORB).
type bindStateID int

const (
	stLive bindStateID = iota
	stDown
)

// bindTransitions is the state machine: an event either moves the state
// or reports a diagnostic.
var bindTransitions = []struct {
	from  bindStateID
	event bindEvent
	to    bindStateID
	diag  string
}{
	{stLive, evShutdown, stDown, ""},
	{stDown, evUse, stDown, "invocation through a proxy of an ORB that was shut down"},
	{stDown, evSetQoS, stDown, "SetQoSParameter on a proxy of an ORB that was shut down"},
}

// errorMustCheck lists the QoS-path calls whose error result must not be
// discarded. Methods are matched structurally (class + name) so stub
// wrappers count too.
var errorMustCheck = []struct {
	class  bindClass // classNone: package-level function
	pkg    string    // for package-level functions
	name   string
	reason string
}{
	{classProxy, "", "SetQoSParameter", "negotiation failure surfaces here"},
	{classNone, "cool", "TryQoS", "invalid QoS parameters surface here"},
	{classNone, "cool/internal/qos", "NewSet", "invalid QoS parameters surface here"},
	{classNone, "cool/internal/qos", "TryQoS", "invalid QoS parameters surface here"},
}

// --- implementation ---------------------------------------------------

func runBindState(pass *Pass) {
	bs := &bindStateChecker{pass: pass, classes: make(map[types.Type]bindClass)}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				bs.checkBody(fn.Body)
			}
		}
	}
}

type bindStateChecker struct {
	pass    *Pass
	classes map[types.Type]bindClass // memoized structural classification
}

// classOf classifies a type by its method shape.
func (bs *bindStateChecker) classOf(t types.Type) bindClass {
	if t == nil {
		return classNone
	}
	if c, ok := bs.classes[t]; ok {
		return c
	}
	c := classNone
	switch {
	case hasMethodSig(t, "SetQoSParameter", 1, 1, isErrorResult):
		c = classProxy
	case hasMethodSig(t, "Shutdown", 0, 0, nil) && (hasMethod(t, "Resolve") || hasMethod(t, "ResolveString")):
		c = classORB
	case hasMethod(t, "Wait") && hasMethod(t, "Poll") && hasMethod(t, "Cancel"):
		c = classPending
	}
	bs.classes[t] = c
	return c
}

// hasMethod reports whether t (or *t) has a method with the given name.
func hasMethod(t types.Type, name string) bool {
	return lookupMethod(t, name) != nil
}

// hasMethodSig additionally checks arity and an optional result
// predicate.
func hasMethodSig(t types.Type, name string, params, results int, resCheck func(*types.Signature) bool) bool {
	fn := lookupMethod(t, name)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != params || sig.Results().Len() != results {
		return false
	}
	return resCheck == nil || resCheck(sig)
}

func isErrorResult(sig *types.Signature) bool {
	return sig.Results().Len() == 1 && sig.Results().At(0).Type().String() == "error"
}

// lookupMethod finds a method on t, trying the pointer type as well.
func lookupMethod(t types.Type, name string) *types.Func {
	n := namedOf(t)
	if n == nil {
		return nil
	}
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(n), true, n.Obj().Pkg(), name)
	if fn, ok := obj.(*types.Func); ok {
		return fn
	}
	return nil
}

// methodEvent classifies one call against the event table.
func (bs *bindStateChecker) methodEvent(call *ast.CallExpr) (recv ast.Expr, class bindClass, event bindEvent, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return nil, classNone, 0, false
	}
	if _, isMethod := bs.pass.Info.Selections[sel]; !isMethod {
		return nil, classNone, 0, false
	}
	c := bs.classOf(typeOf(bs.pass.Info, sel.X))
	if c == classNone {
		return nil, classNone, 0, false
	}
	for _, rule := range bindEventRules {
		if rule.class != c {
			continue
		}
		if rule.method == "*" || rule.method == sel.Sel.Name {
			return sel.X, c, rule.event, true
		}
	}
	return nil, classNone, 0, false
}

// checkBody runs the three checks over one function body.
func (bs *bindStateChecker) checkBody(body *ast.BlockStmt) {
	bs.checkShutdownOrder(body)
	bs.checkDiscardedErrors(body)
	bs.checkAbandonedPendings(body)
}

// --- use after Shutdown ------------------------------------------------

// bindEventSite is one classified call in source order.
type bindEventSite struct {
	pos   token.Pos
	event bindEvent
	// origin is the ORB object the event applies to (the receiver for
	// evShutdown, the derived origin for proxy events; nil when unknown).
	origin types.Object
	// scope is the enclosing block of a Shutdown call: the shutdown only
	// dominates uses inside that block after it.
	scope *ast.BlockStmt
}

func (bs *bindStateChecker) checkShutdownOrder(body *ast.BlockStmt) {
	info := bs.pass.Info

	// Derivation: proxy variable -> origin ORB object. A proxy assigned
	// from a method call on an ORB (Resolve, ResolveString) or built from
	// another derived proxy (stub constructors) inherits the origin.
	origin := make(map[types.Object]types.Object)
	originOf := func(e ast.Expr) types.Object {
		if id := rootIdent(e); id != nil {
			obj := objOf(info, id)
			if obj == nil {
				return nil
			}
			if bs.classOf(obj.Type()) == classORB {
				return obj
			}
			if o, ok := origin[obj]; ok {
				return o
			}
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) == 0 {
				return true
			}
			// Find an origin anywhere on the RHS (receiver or argument).
			var found types.Object
			for _, r := range as.Rhs {
				ast.Inspect(r, func(m ast.Node) bool {
					if found != nil {
						return false
					}
					if e, ok := m.(ast.Expr); ok {
						if o := originOf(e); o != nil {
							found = o
							return false
						}
					}
					return true
				})
			}
			if found == nil {
				return true
			}
			for _, l := range as.Lhs {
				id, ok := ast.Unparen(l).(*ast.Ident)
				if !ok {
					continue
				}
				obj := objOf(info, id)
				if obj == nil || bs.classOf(obj.Type()) != classProxy {
					continue
				}
				if origin[obj] != found {
					origin[obj] = found
					changed = true
				}
			}
			return true
		})
	}

	// Collect classified events in source order. Shutdown calls inside
	// defer statements run at exit and impose no ordering.
	var sites []bindEventSite
	blockOf := enclosingBlocks(body)
	ast.Inspect(body, func(n ast.Node) bool {
		if ds, ok := n.(*ast.DeferStmt); ok {
			_ = ds
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, class, event, ok := bs.methodEvent(call)
		if !ok {
			return true
		}
		site := bindEventSite{pos: call.Pos(), event: event}
		switch class {
		case classORB:
			if id := rootIdent(recv); id != nil {
				site.origin = objOf(info, id)
			}
			site.scope = blockOf[call.Pos()]
		case classProxy:
			site.origin = originOf(recv)
		}
		if site.origin != nil {
			sites = append(sites, site)
		}
		return true
	})
	sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })

	// Drive the state machine per ORB object.
	type orbState struct {
		id    bindStateID
		scope *ast.BlockStmt
		pos   token.Pos
	}
	states := make(map[types.Object]*orbState)
	for _, site := range sites {
		st := states[site.origin]
		if st == nil {
			st = &orbState{id: stLive}
			states[site.origin] = st
		}
		for _, tr := range bindTransitions {
			if tr.from != st.id || tr.event != site.event {
				continue
			}
			if tr.diag != "" {
				// Only report when the shutdown lexically dominates the use:
				// same enclosing block, use after the shutdown.
				if st.scope != nil && st.scope.Pos() <= site.pos && site.pos <= st.scope.End() && site.pos > st.pos {
					bs.pass.Reportf(site.pos, "%s", tr.diag)
				}
				break
			}
			st.id = tr.to
			if site.event == evShutdown {
				st.scope = site.scope
				st.pos = site.pos
			}
			break
		}
	}
}

// enclosingBlocks maps every position to its innermost enclosing block.
func enclosingBlocks(body *ast.BlockStmt) map[token.Pos]*ast.BlockStmt {
	out := make(map[token.Pos]*ast.BlockStmt)
	var walk func(n ast.Node, blk *ast.BlockStmt)
	walk = func(n ast.Node, blk *ast.BlockStmt) {
		ast.Inspect(n, func(m ast.Node) bool {
			if b, ok := m.(*ast.BlockStmt); ok && b != n {
				walk(b, b)
				return false
			}
			if m != nil {
				out[m.Pos()] = blk
			}
			return true
		})
	}
	walk(body, body)
	return out
}

// --- discarded QoS errors ----------------------------------------------

func (bs *bindStateChecker) checkDiscardedErrors(body *ast.BlockStmt) {
	info := bs.pass.Info

	match := func(call *ast.CallExpr) (string, bool) {
		// Package-level functions.
		if callee := calleeOf(info, call); callee != nil {
			for _, rule := range errorMustCheck {
				if rule.class == classNone && isFunc(callee, rule.pkg, rule.name) {
					return rule.name + " error discarded (" + rule.reason + ")", true
				}
			}
		}
		// Class methods.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			c := bs.classOf(typeOf(info, sel.X))
			for _, rule := range errorMustCheck {
				if rule.class != classNone && rule.class == c && rule.name == sel.Sel.Name {
					return rule.name + " error discarded (" + rule.reason + ")", true
				}
			}
		}
		return "", false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
				if msg, ok := match(call); ok {
					bs.pass.Reportf(call.Pos(), "%s", msg)
				}
			}
		case *ast.AssignStmt:
			// The error result assigned to the blank identifier.
			if len(s.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			msg, ok := match(call)
			if !ok {
				return true
			}
			// The error is the last result; report if its lvalue is blank.
			if last, okL := s.Lhs[len(s.Lhs)-1].(*ast.Ident); okL && last.Name == "_" {
				bs.pass.Reportf(call.Pos(), "%s", msg)
			}
		}
		return true
	})
}

// --- abandoned Pendings ------------------------------------------------

func (bs *bindStateChecker) checkAbandonedPendings(body *ast.BlockStmt) {
	info := bs.pass.Info
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		// Only deferred-invocation shapes: a method call returning a
		// Pending-class first result.
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if _, isMethodCall := info.Selections[sel]; !isMethodCall {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		if id.Name == "_" {
			if bs.classOfResult(call) == classPending {
				bs.pass.Reportf(call.Pos(),
					"deferred invocation discarded; Wait, Poll, or Cancel must run to recycle the pooled reply")
			}
			return true
		}
		obj := objOf(info, id)
		if obj == nil || bs.classOf(obj.Type()) != classPending {
			return true
		}
		if !bs.usedAgain(body, id, obj) {
			bs.pass.Reportf(call.Pos(),
				"pending %s is never consumed; Wait, Poll, or Cancel must run to recycle the pooled reply", id.Name)
		}
		return true
	})
}

// classOfResult classifies the first result type of a call.
func (bs *bindStateChecker) classOfResult(call *ast.CallExpr) bindClass {
	t := typeOf(bs.pass.Info, call)
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return classNone
		}
		t = tup.At(0).Type()
	}
	return bs.classOf(t)
}

// usedAgain reports whether obj is mentioned anywhere besides its
// defining identifier. A pure discard (`_ = p`) keeps the compiler quiet
// about an unused variable but does not consume the pending, so it does
// not count.
func (bs *bindStateChecker) usedAgain(body *ast.BlockStmt, def *ast.Ident, obj types.Object) bool {
	discarded := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		if l, ok := as.Lhs[0].(*ast.Ident); !ok || l.Name != "_" {
			return true
		}
		if r, ok := ast.Unparen(as.Rhs[0]).(*ast.Ident); ok {
			discarded[r] = true
		}
		return true
	})
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || id == def || discarded[id] {
			return true
		}
		if objOf(bs.pass.Info, id) == obj {
			used = true
		}
		return true
	})
	return used
}
