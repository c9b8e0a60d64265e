package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// All returns the registered analyzers in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		CasRetain,
		ErrAttr,
		Determinism,
		PanicContract,
		MetricName,
		VFSOnly,
		CtxFlow,
		GoroLeak,
		GuardedBy,
		HotAlloc,
		Suppression,
	}
}

// Suppression is the driver-implemented check over //lint:ignore comments
// themselves: malformed suppressions (unknown analyzer, missing reason)
// and stale suppressions (ones that matched no diagnostic this run) are
// findings. It is registered so -help-checks documents it and so the
// driver accepts qatklint/suppression in lint:ignore comments (which only
// makes sense for the malformed category; unused-suppression findings can
// never be suppressed — delete the stale comment instead). Run is a no-op
// because the work happens in the driver, which sees every suppression
// and every diagnostic at once.
var Suppression = &Analyzer{
	Name: "suppression",
	Doc: "lint:ignore comments must be well-formed (qatklint/<check> + mandatory reason) " +
		"and must actually suppress something: a suppression that matches no diagnostic " +
		"during the run is reported as category \"unused\" so suppressions cannot outlive " +
		"the code they excused.",
	Run: func(*Pass) error { return nil },
}

// isInternalPkg reports whether path is inside the module's internal tree.
func isInternalPkg(path string) bool {
	return strings.Contains(path, "/internal/") || strings.HasPrefix(path, "internal/")
}

// pathIs reports whether an import path is the named project package,
// module prefix notwithstanding (e.g. pathIs(p, "internal/cas") matches
// both "repro/internal/cas" and a test module's "qatktest/internal/cas").
func pathIs(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// depends reports whether the pass package transitively imports the
// project package identified by suffix (see pathIs).
func depends(pass *Pass, suffix string) bool {
	for dep := range pass.Deps {
		if pathIs(dep, suffix) {
			return true
		}
	}
	return false
}

// calleeFunc resolves the *types.Func a call expression invokes, nil for
// builtins, function values and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	f, _ := obj.(*types.Func)
	return f
}

// isBuiltinCall reports whether a call invokes the named builtin
// (e.g. panic, recover, append).
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// rootIdent returns the leftmost identifier of a selector/index/deref
// chain, nil when the expression is rooted elsewhere (e.g. a call).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
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

// usesObject reports whether the expression mentions the given object.
func usesObject(info *types.Info, node ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// eachFunc invokes fn for every function or method declaration with a
// body in the pass's files.
func eachFunc(pass *Pass, fn func(decl *ast.FuncDecl)) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// --- intra-procedural held-lock analysis ---------------------------------
//
// walkHeld is the reusable block analysis underneath guardedby (and any
// future "must hold X here" check): a single source-order walk of a
// function body that tracks which sync.Mutex / sync.RWMutex expressions
// are held at each visited node. The tracking is deliberately
// flow-conservative:
//
//   - branch and loop bodies see a copy of the held set, so a release on
//     one path never unlocks a sibling path;
//   - defer X.Unlock() does not release (the lock stays held to return);
//   - a `go` statement's payload is visited with an empty held set — the
//     goroutine does not inherit the caller's critical section.
//
// Locks are keyed by the object identity of the root identifier plus the
// selected field path, so `t := s.tracer; t.mu.Lock(); t.ring[0] = x`
// resolves the lock and the access to the same key.

// lockMode distinguishes shared from exclusive acquisition.
type lockMode int

const (
	lockRead  lockMode = iota // RLock
	lockWrite                 // Lock
)

// heldSet maps a lock key (see lockExprKey) to the strongest mode held.
type heldSet map[string]lockMode

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// lockMethods maps the sync (R)Lock/(R)Unlock methods to their effect.
var lockMethods = map[string]struct {
	acquire bool
	mode    lockMode
}{
	"(*sync.Mutex).Lock":      {true, lockWrite},
	"(*sync.Mutex).Unlock":    {false, lockWrite},
	"(*sync.RWMutex).Lock":    {true, lockWrite},
	"(*sync.RWMutex).Unlock":  {false, lockWrite},
	"(*sync.RWMutex).RLock":   {true, lockRead},
	"(*sync.RWMutex).RUnlock": {false, lockRead},
}

// lockExprKey renders a lock (or access base) expression as a stable key:
// the root identifier's object identity followed by the selected field
// path. ok is false for expressions rooted in calls, indexes or other
// shapes the analysis does not model.
func lockExprKey(info *types.Info, e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if obj == nil {
			return "", false
		}
		return fmt.Sprintf("%p", obj), true
	case *ast.SelectorExpr:
		if _, isField := info.Selections[x]; !isField {
			// Package-qualified name: key by the named object itself.
			if obj := info.Uses[x.Sel]; obj != nil {
				return fmt.Sprintf("%p", obj), true
			}
			return "", false
		}
		base, ok := lockExprKey(info, x.X)
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	case *ast.StarExpr:
		return lockExprKey(info, x.X)
	default:
		return "", false
	}
}

// lockCallEffect reports whether call is a sync lock acquire/release and
// returns the affected lock key.
func lockCallEffect(info *types.Info, call *ast.CallExpr) (key string, acquire bool, mode lockMode, ok bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false, 0, false
	}
	eff, isLock := lockMethods[fn.FullName()]
	if !isLock {
		return "", false, 0, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, 0, false
	}
	key, keyOK := lockExprKey(info, sel.X)
	if !keyOK {
		return "", false, 0, false
	}
	return key, eff.acquire, eff.mode, true
}

// walkHeld walks a function body in source order, invoking visit for
// every leaf statement and every header expression of compound
// statements, together with the lock set held at that point. The visitor
// must not recurse into nested statements itself — walkHeld hands them
// over with their own (copied) held sets.
func walkHeld(info *types.Info, body *ast.BlockStmt, visit func(n ast.Node, held heldSet)) {
	walkHeldStmts(info, body.List, heldSet{}, visit)
}

func walkHeldStmts(info *types.Info, stmts []ast.Stmt, held heldSet, visit func(n ast.Node, held heldSet)) {
	for _, stmt := range stmts {
		walkHeldStmt(info, stmt, held, visit)
	}
}

func walkHeldStmt(info *types.Info, stmt ast.Stmt, held heldSet, visit func(n ast.Node, held heldSet)) {
	visitExpr := func(e ast.Expr) {
		if e != nil {
			visit(e, held)
		}
	}
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		walkHeldStmts(info, s.List, held.clone(), visit)
	case *ast.IfStmt:
		if s.Init != nil {
			walkHeldStmt(info, s.Init, held, visit)
		}
		visitExpr(s.Cond)
		walkHeldStmt(info, s.Body, held.clone(), visit)
		if s.Else != nil {
			walkHeldStmt(info, s.Else, held.clone(), visit)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			walkHeldStmt(info, s.Init, held, visit)
		}
		visitExpr(s.Cond)
		inner := held.clone()
		walkHeldStmt(info, s.Body, inner, visit)
		if s.Post != nil {
			walkHeldStmt(info, s.Post, inner, visit)
		}
	case *ast.RangeStmt:
		visitExpr(s.Key)
		visitExpr(s.Value)
		visitExpr(s.X)
		walkHeldStmt(info, s.Body, held.clone(), visit)
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkHeldStmt(info, s.Init, held, visit)
		}
		visitExpr(s.Tag)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				visitExpr(e)
			}
			walkHeldStmts(info, cc.Body, held.clone(), visit)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			walkHeldStmt(info, s.Init, held, visit)
		}
		walkHeldStmt(info, s.Assign, held, visit)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			walkHeldStmts(info, cc.Body, held.clone(), visit)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			inner := held.clone()
			if cc.Comm != nil {
				walkHeldStmt(info, cc.Comm, inner, visit)
			}
			walkHeldStmts(info, cc.Body, inner, visit)
		}
	case *ast.LabeledStmt:
		walkHeldStmt(info, s.Stmt, held, visit)
	case *ast.GoStmt:
		// The goroutine body runs outside this critical section.
		visit(s.Call, heldSet{})
	case *ast.DeferStmt:
		// Visited under the current set; deliberately no release effect,
		// so `defer mu.Unlock()` keeps the lock held to function end.
		visit(s.Call, held)
	case *ast.ExprStmt:
		visit(s, held)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if key, acquire, mode, ok := lockCallEffect(info, call); ok {
				if acquire {
					if cur, has := held[key]; !has || mode > cur {
						held[key] = mode
					}
				} else {
					delete(held, key)
				}
			}
		}
	default:
		// Leaf statements: assignments, returns, sends, declarations...
		visit(stmt, held)
	}
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements the error interface (and is
// not the untyped nil).
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return types.Implements(t, errorType)
}
