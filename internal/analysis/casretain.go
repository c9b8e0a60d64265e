package analysis

import (
	"go/ast"
	"go/types"
)

// CasRetain enforces the pipeline's CAS ownership contract: an
// Engine.Process implementation borrows its *cas.CAS strictly for the
// duration of the call. qatk.Toolkit.FeatureSets resets one CAS for
// each report it analyses, and the collection runner dead-letters CASes
// after Process returns, so a retained reference — in a struct field, a
// package-level variable, or a goroutine that outlives the call — would
// see the next report's layers, or a CAS another consumer now owns.
var CasRetain = &Analyzer{
	Name: "casretain",
	Doc: "Engine.Process must not retain its *cas.CAS argument (or memory reachable " +
		"from it) in struct fields, package-level variables, or escaping goroutines.",
	Run: runCasRetain,
}

func runCasRetain(pass *Pass) error {
	eachFunc(pass, func(decl *ast.FuncDecl) {
		if decl.Recv == nil || decl.Name.Name != "Process" {
			return
		}
		casParam := casParamObj(pass, decl)
		if casParam == nil {
			return
		}
		recv := receiverObj(pass, decl)
		checkRetention(pass, decl.Body, casParam, recv)
	})
	return nil
}

// casParamObj returns the *types.Var of the first parameter whose type is
// *cas.CAS (matched by package path suffix, so test fixtures with their
// own module path are covered), nil if none.
func casParamObj(pass *Pass, decl *ast.FuncDecl) *types.Var {
	for _, field := range decl.Type.Params.List {
		t := pass.Info.TypeOf(field.Type)
		ptr, ok := t.(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := ptr.Elem().(*types.Named)
		if !ok || named.Obj().Name() != "CAS" || named.Obj().Pkg() == nil {
			continue
		}
		if !pathIs(named.Obj().Pkg().Path(), "internal/cas") {
			continue
		}
		for _, name := range field.Names {
			if obj, ok := pass.Info.Defs[name].(*types.Var); ok {
				return obj
			}
		}
	}
	return nil
}

// receiverObj returns the receiver variable's object, nil for anonymous
// receivers.
func receiverObj(pass *Pass, decl *ast.FuncDecl) types.Object {
	for _, field := range decl.Recv.List {
		for _, name := range field.Names {
			if obj := pass.Info.Defs[name]; obj != nil {
				return obj
			}
		}
	}
	return nil
}

// checkRetention walks a Process body for stores of CAS-derived memory
// into locations that outlive the call.
func checkRetention(pass *Pass, body *ast.BlockStmt, casParam *types.Var, recv types.Object) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, stmt, casParam, recv)
		case *ast.GoStmt:
			if usesObject(pass.Info, stmt.Call, casParam) {
				pass.Reportf(stmt.Pos(), "goroutine",
					"goroutine launched from Process captures the CAS parameter %q; it may outlive the call", casParam.Name())
			}
		}
		return true
	})
}

// checkAssign flags `escaping = casDerived` assignments.
func checkAssign(pass *Pass, stmt *ast.AssignStmt, casParam *types.Var, recv types.Object) {
	for i, lhs := range stmt.Lhs {
		loc := escapeKind(pass, lhs, recv)
		if loc == "" {
			continue
		}
		// Align RHS with LHS; for n:=1 tuple assignments check the single RHS.
		var rhs ast.Expr
		if len(stmt.Rhs) == len(stmt.Lhs) {
			rhs = stmt.Rhs[i]
		} else {
			rhs = stmt.Rhs[0]
		}
		if !usesObject(pass.Info, rhs, casParam) {
			continue
		}
		if t := pass.Info.TypeOf(rhs); t != nil && !carriesReference(t) {
			continue // a copied string/int cannot retain CAS memory
		}
		pass.Reportf(stmt.Pos(), loc,
			"Process stores CAS-derived memory (via parameter %q) into a %s; the CAS is only borrowed for the call", casParam.Name(), escapeNoun(loc))
	}
}

// escapeKind classifies an assignment target: "field-store" when rooted
// at the method receiver, "global-store" when rooted at a package-level
// variable, "" for locals.
func escapeKind(pass *Pass, lhs ast.Expr, recv types.Object) string {
	root := rootIdent(lhs)
	if root == nil {
		return ""
	}
	obj := pass.Info.Uses[root]
	if obj == nil {
		obj = pass.Info.Defs[root]
	}
	if obj == nil {
		return ""
	}
	if recv != nil && obj == recv {
		// Plain `recv = ...` rebinding is not a store; require a selector
		// or index so we only flag writes *through* the receiver.
		if _, ok := lhs.(*ast.Ident); ok {
			return ""
		}
		return "field-store"
	}
	if v, ok := obj.(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
		return "global-store"
	}
	return ""
}

func escapeNoun(kind string) string {
	if kind == "global-store" {
		return "package-level variable"
	}
	return "struct field"
}

// carriesReference reports whether a value of type t can hold a pointer
// into CAS-owned memory. Basic values (and strings, which are immutable
// copies once extracted) are safe.
func carriesReference(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesReference(u.Field(i).Type()) {
				return true
			}
		}
		return false
	case *types.Array:
		return carriesReference(u.Elem())
	default:
		return true // pointers, slices, maps, chans, interfaces, funcs
	}
}
