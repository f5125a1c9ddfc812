package analysis

import (
	"go/ast"
	"go/types"
)

// calleeOf resolves the called function or method object of a call
// expression, or nil for calls through function values and conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun]; ok {
			if _, isFunc := obj.(*types.Func); isFunc {
				return obj
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj() // method (value or pointer receiver)
		}
		if obj, ok := info.Uses[fun.Sel]; ok {
			if _, isFunc := obj.(*types.Func); isFunc {
				return obj // package-qualified function
			}
		}
	}
	return nil
}

// isFunc reports whether obj is the function pkgPath.name (a package-level
// function, not a method).
func isFunc(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() != pkgPath || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isMethod reports whether obj is a method with the given name; pkgPath
// may be empty to match any package.
func isMethod(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return pkgPath == "" || (fn.Pkg() != nil && fn.Pkg().Path() == pkgPath)
}

// rootIdent peels selectors, indexing, slicing, stars, and parens down to
// the base identifier of an expression chain (w.buf[2:] -> w), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// usesObject reports whether expr mentions obj anywhere (including inside
// nested function literals).
func usesObject(info *types.Info, expr ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// objOf resolves an identifier's object through either Uses or Defs.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj, ok := info.Uses[id]; ok {
		return obj
	}
	return info.Defs[id]
}

// typeString returns the fully-qualified string of an expression's type,
// or "".
func typeString(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	return tv.Type.String()
}

// namedOf unwraps pointers and aliases to the *types.Named beneath a type,
// or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Named:
			return x
		case *types.Alias:
			t = types.Unalias(x)
		default:
			return nil
		}
	}
}

// funcDeclsOf indexes the package's function declarations by their object,
// so analyzers can consult annotations on same-package helpers.
func funcDeclsOf(pass *Pass) map[types.Object]*ast.FuncDecl {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj := pass.Info.Defs[fd.Name]; obj != nil {
				decls[obj] = fd
			}
		}
	}
	return decls
}

// nilCheckOf decodes a condition of the form `x != nil` or `x == nil`
// where x is a plain identifier, returning x's object and the operator
// sense (true for !=).
func nilCheckOf(info *types.Info, cond ast.Expr) (types.Object, bool, bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return nil, false, false
	}
	if be.Op.String() != "!=" && be.Op.String() != "==" {
		return nil, false, false
	}
	var idExpr, nilExpr ast.Expr = be.X, be.Y
	if isNilIdent(info, idExpr) {
		idExpr, nilExpr = be.Y, be.X
	}
	if !isNilIdent(info, nilExpr) {
		return nil, false, false
	}
	id, ok := ast.Unparen(idExpr).(*ast.Ident)
	if !ok {
		return nil, false, false
	}
	obj := objOf(info, id)
	if obj == nil {
		return nil, false, false
	}
	return obj, be.Op.String() == "!=", true
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := objOf(info, id)
	_, isNil := obj.(*types.Nil)
	return isNil
}
