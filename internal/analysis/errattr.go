package analysis

import (
	"go/ast"
	"strconv"
	"strings"
)

// ErrAttr enforces the error-attribution contract behind the pipeline's
// dead-letter layer: every error that can cross an internal package
// boundary names its origin package, wrapped causes stay inspectable with
// errors.Is/errors.As (%w, never %v), and sentinel comparisons go through
// errors.Is so wrapping cannot silently break them.
// The prefix rule applies where errors are born at the package boundary:
// inside exported functions and methods, and in exported package-level
// sentinel variables. Errors built by unexported helpers are exempt — the
// contract there is that the exported entry point wraps them once with
// the package prefix (e.g. reldb.ApplyFrame wrapping applyRecord's
// errors), and prefixing both layers would double-attribute every message.
var ErrAttr = &Analyzer{
	Name: "errattr",
	Doc: "errors born at an internal package's boundary (exported funcs, exported sentinels) " +
		"must carry a \"<pkg>: \" prefix; fmt.Errorf must wrap error arguments with %w; " +
		"compare errors with errors.Is/errors.As, not ==.",
	Run: runErrAttr,
}

func runErrAttr(pass *Pass) error {
	internal := isInternalPkg(pass.Pkg.Path())
	pkgName := pass.Pkg.Name()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			boundary := false
			switch d := decl.(type) {
			case *ast.FuncDecl:
				boundary = internal && ast.IsExported(d.Name.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, name := range vs.Names {
							if ast.IsExported(name.Name) {
								boundary = internal
							}
						}
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.CallExpr:
					checkErrorCall(pass, e, boundary, pkgName)
				case *ast.BinaryExpr:
					checkErrorComparison(pass, e)
				}
				return true
			})
		}
	}
	return nil
}

// checkErrorCall inspects errors.New and fmt.Errorf call sites.
func checkErrorCall(pass *Pass, call *ast.CallExpr, boundary bool, pkgName string) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 {
		return
	}
	full := fn.Pkg().Path() + "." + fn.Name()
	switch full {
	case "errors.New":
		if boundary {
			checkPrefix(pass, call.Args[0], pkgName)
		}
	case "fmt.Errorf":
		if boundary {
			checkPrefix(pass, call.Args[0], pkgName)
		}
		checkWrapVerbs(pass, call)
	}
}

// checkPrefix requires the (constant) message to start with "<pkg>: " or
// "<pkg> " — the latter admits formats like "bundle %s: ..." that splice
// an identifier between package name and colon. Formats beginning with %w
// are pure wraps whose cause already carries attribution.
func checkPrefix(pass *Pass, arg ast.Expr, pkgName string) {
	lit, ok := ast.Unparen(arg).(*ast.BasicLit)
	if !ok {
		return // dynamic format strings are out of scope
	}
	text, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if strings.HasPrefix(text, pkgName+": ") || strings.HasPrefix(text, pkgName+" ") ||
		strings.HasPrefix(text, "%w") {
		return
	}
	pass.Reportf(lit.Pos(), "missing-prefix",
		"error message %q does not carry the %q package prefix; errors crossing an internal boundary must be attributable", abbreviate(text), pkgName+": ")
}

// checkWrapVerbs flags fmt.Errorf verbs that format an error-typed
// argument with %v/%s/%q instead of wrapping it with %w.
func checkWrapVerbs(pass *Pass, call *ast.CallExpr) {
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	verbs, ok := parseVerbs(format)
	if !ok {
		return // indexed or otherwise exotic format; do not guess
	}
	args := call.Args[1:]
	for i, verb := range verbs {
		if i >= len(args) {
			return // malformed call; vet's printf check owns this
		}
		if verb != 'v' && verb != 's' && verb != 'q' {
			continue
		}
		t := pass.Info.TypeOf(args[i])
		if t == nil || !isErrorType(t) {
			continue
		}
		pass.Reportf(args[i].Pos(), "verbatim-error",
			"error argument formatted with %%%c; use %%w so the cause stays inspectable with errors.Is/errors.As", verb)
	}
}

// parseVerbs returns the verb letter consuming each successive argument.
// Star width/precision count as arguments (reported as '*'). ok=false on
// explicit argument indexes, which this simple scanner does not model.
func parseVerbs(format string) (verbs []rune, ok bool) {
	runes := []rune(format)
	for i := 0; i < len(runes); i++ {
		if runes[i] != '%' {
			continue
		}
		i++
		if i < len(runes) && runes[i] == '%' {
			continue
		}
		for i < len(runes) {
			c := runes[i]
			if c == '[' {
				return nil, false
			}
			if c == '*' {
				verbs = append(verbs, '*')
			}
			if strings.ContainsRune("+-# 0123456789.*", c) {
				i++
				continue
			}
			verbs = append(verbs, c)
			break
		}
	}
	return verbs, true
}

// checkErrorComparison flags ==/!= between two error values (nil stays
// allowed: `err != nil` is the idiom, not a sentinel comparison).
func checkErrorComparison(pass *Pass, e *ast.BinaryExpr) {
	if e.Op.String() != "==" && e.Op.String() != "!=" {
		return
	}
	xt, yt := pass.Info.TypeOf(e.X), pass.Info.TypeOf(e.Y)
	if !isErrorType(xt) || !isErrorType(yt) {
		return
	}
	pass.Reportf(e.Pos(), "sentinel-compare",
		"direct %s comparison of errors breaks under wrapping; use errors.Is or errors.As", e.Op)
}

// abbreviate shortens long message literals for diagnostics.
func abbreviate(s string) string {
	if len(s) > 40 {
		return s[:37] + "..."
	}
	return s
}
