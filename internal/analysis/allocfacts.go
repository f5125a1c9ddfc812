package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the allocation-effect layer of the interprocedural engine
// (coollint v4): every function body is classified into heap-allocation
// sites — make/new, growing appends, interface boxing, closure and
// goroutine creation, string conversions, formatting calls, map writes —
// with a cold-path analysis that exempts failure branches, and the results
// are propagated bottom-up through synchronous callees as a Summary bit so
// hotalloc can prune its reachability walk. Arena and pool allocators
// (bufpool, pooled CDR encoders, pooled GIOP messages, interned operation
// names, //coollint:allocator functions) are sanctioned: calls to them are
// ownership transfers, not allocations, and their internals are audited
// from their own //coollint:hotpath roots rather than through callers.

// Allocation-site kinds, as rendered in diagnostics.
const (
	allocMake    = "make"
	allocNew     = "new"
	allocAppend  = "growing append"
	allocBox     = "interface boxing"
	allocClosure = "closure creation"
	allocGo      = "goroutine creation"
	allocConv    = "string conversion"
	allocFmt     = "formatting call"
	allocMapW    = "map write"
)

// allocSite is one classified warm allocation site.
type allocSite struct {
	pos  token.Pos
	kind string
	// what is a short rendering of the allocating expression for the
	// diagnostic ("fmt.Errorf", "append into local tmp").
	what string
}

// allocCall is one warm, synchronous, module-internal call edge with its
// source position — the links hotalloc chains into root→site paths.
type allocCall struct {
	callee *types.Func
	pos    token.Pos
}

// allocFuncFacts is the allocation view of one function: its directive
// role plus the warm sites and warm synchronous call edges of its body.
// Sites and edges in cold regions (error branches, panic exits,
// sync.Once payloads) or on //coollint:allocok lines are excluded.
type allocFuncFacts struct {
	// hotRoot marks a //coollint:hotpath reachability root.
	hotRoot bool
	// coldFunc marks a //coollint:coldpath function: never descended
	// into, its own sites exempt (once-per-connection setup and the
	// like).
	coldFunc bool
	// allocator marks a //coollint:allocator function: part of the
	// arena/pool machinery, its own sites are sanctioned and calls to it
	// are ownership transfers.
	allocator bool

	warmSites []allocSite
	warmCalls []allocCall
}

// allocFactsOf returns the (cached) allocation facts for a function. The
// local facts depend only on the AST and on callee *sanction* status —
// computed bottom-up, lower-SCC callees are final when a caller is
// scanned (acquire helpers are never recursive in practice).
func (p *Program) allocFactsOf(pf *progFunc) *allocFuncFacts {
	if f := p.allocFacts[pf.obj]; f != nil {
		return f
	}
	f := collectAllocFacts(p, pf)
	p.allocFacts[pf.obj] = f
	return f
}

// allocSummarize folds the allocation facts into the Summary: warmAllocs
// is set when the function or any warm synchronous callee carries at
// least one warm unsanctioned allocation site. The bit is monotone, so
// the SCC fixpoint converges.
func allocSummarize(prog *Program, pf *progFunc, s *Summary) {
	facts := prog.allocFactsOf(pf)
	if len(facts.warmSites) > 0 {
		s.warmAllocs = true
		return
	}
	for _, call := range facts.warmCalls {
		if cs := prog.sums[call.callee]; cs != nil && cs.warmAllocs {
			s.warmAllocs = true
			return
		}
	}
}

// collectAllocFacts walks one function body and classifies its warm
// allocation sites and call edges.
func collectAllocFacts(prog *Program, pf *progFunc) *allocFuncFacts {
	facts := &allocFuncFacts{}
	if funcAnnotated(pf.decl, "hotpath") {
		facts.hotRoot = true
	}
	if funcAnnotated(pf.decl, "coldpath") {
		facts.coldFunc = true
	}
	if funcAnnotated(pf.decl, "allocator") {
		facts.allocator = true
	}
	if facts.coldFunc || facts.allocator {
		// Exempt bodies: cold functions run off the latency path,
		// allocator internals are the sanctioned pool machinery.
		return facts
	}
	c := &allocCollector{
		prog:   prog,
		pf:     pf,
		info:   pf.pkg.Info,
		facts:  facts,
		exempt: make(map[ast.Node]bool),
		sig:    pf.obj.Type().(*types.Signature),
	}
	for _, s := range pf.decl.Body.List {
		c.walk(s, false)
	}
	return facts
}

// allocCollector carries the walk state for one function body.
type allocCollector struct {
	prog  *Program
	pf    *progFunc
	info  *types.Info
	facts *allocFuncFacts
	sig   *types.Signature
	// exempt marks append calls proven amortized (self-append into a
	// persistent destination) and FuncLits that run at most once
	// (sync.Once payloads).
	exempt map[ast.Node]bool
}

// site records one allocation site unless it is cold or its line carries
// a //coollint:allocok <reason> annotation.
func (c *allocCollector) site(pos token.Pos, kind, what string, cold bool) {
	if cold || c.prog.allocOKAt(c.pf.pkg, pos) {
		return
	}
	c.facts.warmSites = append(c.facts.warmSites, allocSite{pos: pos, kind: kind, what: what})
}

// walk visits n, threading the cold-region flag.
func (c *allocCollector) walk(n ast.Node, cold bool) {
	switch x := n.(type) {
	case nil:
		return
	case *ast.BlockStmt:
		bcold := cold || stmtsCold(c.info, x.List)
		for _, s := range x.List {
			c.walk(s, bcold)
		}
		return
	case *ast.CaseClause:
		for _, e := range x.List {
			c.walk(e, cold)
		}
		bcold := cold || stmtsCold(c.info, x.Body)
		for _, s := range x.Body {
			c.walk(s, bcold)
		}
		return
	case *ast.CommClause:
		if x.Comm != nil {
			c.walk(x.Comm, cold)
		}
		bcold := cold || stmtsCold(c.info, x.Body)
		for _, s := range x.Body {
			c.walk(s, bcold)
		}
		return
	case *ast.IfStmt:
		if x.Init != nil {
			c.walk(x.Init, cold)
		}
		c.walk(x.Cond, cold)
		thenCold, elseCold := errBranchCold(c.info, x.Cond)
		c.walk(x.Body, cold || thenCold)
		if x.Else != nil {
			c.walk(x.Else, cold || elseCold)
		}
		return
	case *ast.GoStmt:
		// The spawn itself is the warm cost; the payload runs on another
		// goroutine (its arguments are still evaluated here).
		c.site(x.Pos(), allocGo, "go statement", cold)
		for _, a := range x.Call.Args {
			c.walk(a, cold)
		}
		return
	case *ast.DeferStmt:
		// A deferred call runs before return on this goroutine: treat it
		// as synchronous.
		c.walk(x.Call, cold)
		return
	case *ast.FuncLit:
		if !c.exempt[x] && closureCaptures(c.info, x) {
			c.site(x.Pos(), allocClosure, "func literal captures variables", cold)
		}
		// The body executes at an unknown time; direct callers audit it
		// when they invoke it.
		return
	case *ast.ReturnStmt:
		if res := c.sig.Results(); len(x.Results) == res.Len() {
			for i, r := range x.Results {
				c.boxed(res.At(i).Type(), r, cold, "return")
			}
		}
		for _, r := range x.Results {
			c.walk(r, cold)
		}
		return
	case *ast.AssignStmt:
		c.assign(x, cold)
		return
	case *ast.ValueSpec:
		if x.Type != nil {
			if t := typeOf(c.info, x.Type); t != nil {
				for _, v := range x.Values {
					c.boxed(t, v, cold, "declaration")
				}
			}
		}
		for _, v := range x.Values {
			c.walk(v, cold)
		}
		return
	case *ast.CallExpr:
		c.call(x, cold)
		return
	case *ast.IndexExpr:
		// The compiler recognizes m[string(b)] lookups and elides the key
		// copy; the conversion allocates only when the key is stored
		// (map writes are handled in assign, which bypasses this case).
		if t := typeOf(c.info, x.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				if call, ok := ast.Unparen(x.Index).(*ast.CallExpr); ok {
					if tv, ok := c.info.Types[call.Fun]; ok && tv.IsType() {
						c.exempt[call] = true
					}
				}
			}
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
				c.site(x.Pos(), allocNew, "&"+types.ExprString(cl.Type)+"{...}", cold)
				for _, e := range cl.Elts {
					c.walk(e, cold)
				}
				return
			}
		}
	case *ast.CompositeLit:
		if t := typeOf(c.info, x); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map:
				c.site(x.Pos(), allocMake, types.ExprString(x.Type)+" literal", cold)
			}
		}
	}
	children(n, func(ch ast.Node) { c.walk(ch, cold) })
}

// children invokes f for each direct child node of n.
func children(n ast.Node, f func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if first {
			first = false
			return true
		}
		f(c)
		return false
	})
}

// assign handles map writes, amortized-append exemptions, and boxing at
// assignment boundaries.
func (c *allocCollector) assign(as *ast.AssignStmt, cold bool) {
	if len(as.Lhs) == len(as.Rhs) {
		for i := range as.Rhs {
			if call := appendCallIn(c.info, as.Rhs[i]); call != nil && amortizedAppend(as.Lhs[i], call) {
				c.exempt[call] = true
			}
		}
	}
	for _, l := range as.Lhs {
		if ix, ok := ast.Unparen(l).(*ast.IndexExpr); ok {
			if t := typeOf(c.info, ix.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					c.site(l.Pos(), allocMapW, "store into "+types.ExprString(ix.X), cold)
				}
			}
		}
	}
	if as.Tok == token.ASSIGN && len(as.Lhs) == len(as.Rhs) {
		for i := range as.Rhs {
			c.boxed(typeOf(c.info, as.Lhs[i]), as.Rhs[i], cold, "assignment")
		}
	}
	for _, l := range as.Lhs {
		// Walk map-write targets piecewise so the key conversion is not
		// mistaken for a lookup (written keys are copied into the map).
		if ix, ok := ast.Unparen(l).(*ast.IndexExpr); ok {
			c.walk(ix.X, cold)
			c.walk(ix.Index, cold)
			continue
		}
		c.walk(l, cold)
	}
	for _, r := range as.Rhs {
		c.walk(r, cold)
	}
}

// call classifies one call expression: builtin allocators, string
// conversions, formatting helpers, sanctioned pool entry points, module
// call edges, and boxing at the argument boundary.
func (c *allocCollector) call(call *ast.CallExpr, cold bool) {
	info := c.info

	// Type conversions: string↔[]byte/[]rune copy; conversion to an
	// interface type boxes.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := typeOf(info, call.Args[0])
		if isStringByteConv(dst, src) {
			if !c.exempt[call] {
				c.site(call.Pos(), allocConv, types.ExprString(call.Fun)+"(...)", cold)
			}
		} else {
			c.boxed(dst, call.Args[0], cold, "conversion")
		}
		c.walk(call.Args[0], cold)
		return
	}

	// Builtins resolve through Uses, not calleeOf (which only yields
	// *types.Func).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := objOf(info, id).(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "make":
				c.site(call.Pos(), allocMake, types.ExprString(call), cold)
			case "new":
				c.site(call.Pos(), allocNew, types.ExprString(call), cold)
			case "append":
				if !c.exempt[call] {
					c.site(call.Pos(), allocAppend, "append not proven amortized", cold)
				}
			}
			for _, a := range call.Args {
				c.walk(a, cold)
			}
			return
		}
	}

	callee := calleeOf(info, call)

	if callee != nil {
		// sync.Once payloads run once: exempt the literal and its body.
		if isMethod(callee, "sync", "Do") {
			for _, a := range call.Args {
				if fl, ok := ast.Unparen(a).(*ast.FuncLit); ok {
					c.exempt[fl] = true
				}
			}
			cold = true
		}
		if isFormatCall(callee) {
			// One site for the whole formatting call; boxing its
			// variadic arguments is folded in.
			c.site(call.Pos(), allocFmt, calleeDisplay(callee), cold)
			for _, a := range call.Args {
				c.walk(a, cold)
			}
			return
		}
		if allocSanctioned(c.prog, callee) {
			// Pool/arena entry points: ownership transfer, not an
			// allocation; internals are audited from their own roots.
			for _, a := range call.Args {
				c.walk(a, cold)
			}
			return
		}
		if fn, isFn := callee.(*types.Func); isFn {
			if target := c.prog.funcs[fn]; target != nil {
				if !cold && !allocColdDecl(target.decl) && !c.prog.allocOKAt(c.pf.pkg, call.Pos()) {
					c.facts.warmCalls = append(c.facts.warmCalls, allocCall{callee: fn, pos: call.Pos()})
				}
			}
		}
	}

	if sig, ok := typeUnderlying(typeOf(info, call.Fun)).(*types.Signature); ok {
		c.callBoxes(sig, call, cold)
	}
	c.walk(call.Fun, cold)
	for _, a := range call.Args {
		c.walk(a, cold)
	}
}

// callBoxes reports arguments boxed into interface parameters.
func (c *allocCollector) callBoxes(sig *types.Signature, call *ast.CallExpr, cold bool) {
	params := sig.Params()
	for i, a := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // the slice is passed through whole
			}
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		c.boxed(pt, a, cold, "argument")
	}
}

// boxed records an interface-boxing site: a concrete, non-pointer-shaped
// value converted to an interface type allocates its data word.
func (c *allocCollector) boxed(dst types.Type, e ast.Expr, cold bool, ctx string) {
	if dst == nil {
		return
	}
	if _, isIface := dst.Underlying().(*types.Interface); !isIface {
		return
	}
	t := typeOf(c.info, e)
	if t == nil || isNilIdent(c.info, e) {
		return
	}
	if _, isIface := t.Underlying().(*types.Interface); isIface {
		return
	}
	if isPointerShaped(t) || isZeroSized(t) {
		return
	}
	c.site(e.Pos(), allocBox, types.TypeString(t, nil)+" into interface at "+ctx, cold)
}

// isZeroSized reports whether t occupies no storage (empty structs,
// zero-length arrays): boxing such a value uses the runtime's shared
// zero base and does not allocate (e.g. binary.BigEndian into
// binary.ByteOrder).
func isZeroSized(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !isZeroSized(u.Field(i).Type()) {
				return false
			}
		}
		return true
	case *types.Array:
		return u.Len() == 0 || isZeroSized(u.Elem())
	}
	return false
}

// --- cold-path classification -----------------------------------------

// errBranchCold classifies an if condition: the branch dominated by a
// non-nil error check is a failure path and exempt.
func errBranchCold(info *types.Info, cond ast.Expr) (thenCold, elseCold bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false, false
	}
	if be.Op != token.NEQ && be.Op != token.EQL {
		return false, false
	}
	operand := ast.Unparen(be.X)
	if isNilIdent(info, operand) {
		operand = ast.Unparen(be.Y)
	} else if !isNilIdent(info, be.Y) {
		return false, false
	}
	if !implementsError(typeOf(info, operand)) {
		return false, false
	}
	if be.Op == token.NEQ {
		return true, false
	}
	return false, true
}

// stmtsCold reports whether a statement list is a failure exit: its
// terminal statement panics or returns a definitely-non-nil error (a
// formatting-constructor call or a non-nil error variable/field).
func stmtsCold(info *types.Info, list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := objOf(info, id).(*types.Builtin); isBuiltin {
					return true
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range last.Results {
			r = ast.Unparen(r)
			if call, ok := r.(*ast.CallExpr); ok {
				if isFormatCall(calleeOf(info, call)) {
					return true
				}
				continue
			}
			// A named error value (sentinel var, err field) in the result
			// list marks a propagated failure; nil and non-error results
			// do not.
			switch r.(type) {
			case *ast.Ident, *ast.SelectorExpr:
				if !isNilIdent(info, r) && implementsError(typeOf(info, r)) {
					return true
				}
			}
		}
	}
	return false
}

// --- helpers ----------------------------------------------------------

// appendCallIn returns e as a builtin append call, or nil.
func appendCallIn(info *types.Info, e ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil
	}
	if b, isBuiltin := objOf(info, id).(*types.Builtin); !isBuiltin || b.Name() != "append" {
		return nil
	}
	return call
}

// amortizedAppend recognizes the pooled-growth idiom `x = append(x, ...)`
// / `x = append(x[:0], ...)` where x is a persistent destination (field,
// element, or deref): capacity sticks across calls, so steady-state warm
// cost is zero. Fresh locals do not qualify.
func amortizedAppend(lhs ast.Expr, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	lhs = ast.Unparen(lhs)
	switch lhs.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return false
	}
	base := ast.Unparen(call.Args[0])
	if se, ok := base.(*ast.SliceExpr); ok {
		base = ast.Unparen(se.X)
	}
	return types.ExprString(lhs) == types.ExprString(base)
}

// closureCaptures reports whether a function literal captures enclosing
// variables (capture-free literals compile to static functions and do
// not allocate).
func closureCaptures(info *types.Info, fl *ast.FuncLit) bool {
	captures := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if captures {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := objOf(info, id).(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= fl.Pos() && v.Pos() <= fl.End() {
			return true // declared inside the literal
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level, not a capture
		}
		captures = true
		return false
	})
	return captures
}

// isFormatCall recognizes eager formatting helpers: everything in fmt,
// errors.New, and the strconv formatters.
func isFormatCall(callee types.Object) bool {
	if callee == nil || callee.Pkg() == nil {
		return false
	}
	switch callee.Pkg().Path() {
	case "fmt":
		return true
	case "errors":
		return callee.Name() == "New"
	case "strconv":
		n := callee.Name()
		return strings.HasPrefix(n, "Format") || strings.HasPrefix(n, "Append") ||
			n == "Itoa" || n == "Quote"
	}
	return false
}

// allocSanctioned reports whether a call target is part of the sanctioned
// arena/pool machinery: the pool entry points, interned operation
// names, sync.Pool itself, //coollint:allocator functions, and helpers
// whose summaries show them returning pooled objects.
func allocSanctioned(prog *Program, callee types.Object) bool {
	if intrinsicPoolOp(callee) != opNone {
		return true
	}
	if isFunc(callee, "cool/internal/giop", "InternOp") {
		return true
	}
	if isMethod(callee, "sync", "Get") || isMethod(callee, "sync", "Put") {
		return true
	}
	fn, ok := callee.(*types.Func)
	if !ok {
		return false
	}
	if pf := prog.funcs[fn]; pf != nil {
		if funcAnnotated(pf.decl, "allocator") {
			return true
		}
		if sum := prog.sums[fn]; sum != nil && sum.acquires {
			return true
		}
	}
	return false
}

// allocColdDecl reports a //coollint:coldpath function declaration.
func allocColdDecl(decl *ast.FuncDecl) bool {
	return funcAnnotated(decl, "coldpath")
}

// isPointerShaped reports whether values of t fit an interface data word
// without allocation (pointers, channels, maps, funcs, unsafe.Pointer).
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// isStringByteConv reports a string↔[]byte/[]rune conversion (copies the
// contents).
func isStringByteConv(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	return (isStringType(dst) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(dst) && isStringType(src))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// implementsError reports whether t implements the error interface.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) ||
		types.Implements(types.NewPointer(t), errorIface)
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// typeUnderlying is Underlying with a nil guard.
func typeUnderlying(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// calleeDisplay renders a callee for diagnostics ("fmt.Errorf").
func calleeDisplay(callee types.Object) string {
	if callee == nil {
		return "call"
	}
	if callee.Pkg() != nil {
		return callee.Pkg().Name() + "." + callee.Name()
	}
	return callee.Name()
}

// funcDisplay renders a module function for path diagnostics
// ("orb.clientConn.readLoop").
func funcDisplay(fn *types.Func) string {
	prefix := ""
	if fn.Pkg() != nil {
		prefix = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n := namedOf(t); n != nil && n.Obj() != nil {
			return prefix + n.Obj().Name() + "." + fn.Name()
		}
	}
	return prefix + fn.Name()
}

// allocOKAt reports whether pos sits on a line annotated
// //coollint:allocok <reason> (a whole-line comment annotates the next
// line, a trailing comment its own). A reason is required: a bare
// annotation is ignored.
func (p *Program) allocOKAt(pkg *Package, pos token.Pos) bool {
	tf := pkg.Fset.File(pos)
	if tf == nil {
		return false
	}
	if p.allocOK == nil {
		p.allocOK = make(map[*token.File]map[int]string)
	}
	lines, ok := p.allocOK[tf]
	if !ok {
		lines = make(map[int]string)
		for _, f := range pkg.Files {
			if pkg.Fset.File(f.Pos()) != tf {
				continue
			}
			src := pkg.Src[tf.Name()]
			const prefix = "//coollint:allocok"
			for _, cg := range f.Comments {
				for _, cmt := range cg.List {
					if !strings.HasPrefix(cmt.Text, prefix) {
						continue
					}
					reason := strings.TrimSpace(cmt.Text[len(prefix):])
					if reason == "" {
						continue
					}
					line := pkg.Fset.Position(cmt.Slash).Line
					if isLineStart(pkg.Fset, cmt.Slash, src) {
						lines[line+1] = reason
					} else {
						lines[line] = reason
					}
				}
			}
		}
		p.allocOK[tf] = lines
	}
	_, annotated := lines[tf.Line(pos)]
	return annotated
}
