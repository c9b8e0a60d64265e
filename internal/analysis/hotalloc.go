package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// HotAlloc is the compile-time allocation gate for hot-path functions.
// PR 3/5 pinned the observability fast paths at "0 allocs/op" with
// benchmarks; a benchmark only fails after someone runs it. This
// analyzer turns the claim into a static contract: annotate a function
//
//	//qatk:hotpath
//	func (c *Counter) Add(delta float64) { ... }
//
// and the analyzer shells out to `go build -trimpath -gcflags=<pkg>=-m=2`
// for the annotated package, parses the compiler's escape-analysis
// diagnostics, and reports every heap escape ("x escapes to heap", interface boxing
// included) or heap move ("moved to heap: x") whose position falls
// inside an annotated function. The evidence is the real compiler's
// escape analysis, so the gate cannot drift from what the binary does —
// and the inverted-index kernel can be held to zero allocations from
// day one.
//
// An allocation that is the point of the function (a returned result
// slice) is acknowledged in place with
//
//	//qatk:allowalloc <reason>
//
// on the allocating line or the line above; the reason is mandatory.
// Unlike //lint:ignore, allowalloc is scoped to hotalloc and reads as
// API documentation: "this function returns fresh memory".
//
// String-literal subjects (`"..." escapes to heap`) are ignored — they
// are the compiler accounting for panic/error message constants on cold
// paths inlined into the function, not per-call allocations.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "functions annotated //qatk:hotpath must not heap-allocate: the analyzer " +
		"runs the compiler's escape analysis (go build -gcflags=-m=2) and fails on " +
		"any escape or heap move inside an annotated function unless the line " +
		"carries //qatk:allowalloc <reason>.",
	Run: runHotAlloc,
}

// hotFunc is one annotated function's position range.
type hotFunc struct {
	name      string
	file      string
	startLine int
	endLine   int
}

func runHotAlloc(pass *Pass) error {
	hot := collectHotFuncs(pass)
	if len(hot) == 0 {
		return nil
	}
	allow := collectAllowAlloc(pass)

	dir, importPath := passPackageDir(pass)
	if dir == "" {
		return nil // no build context (driver was handed no Program)
	}
	diags, err := escapeDiagnostics(dir, importPath)
	if err != nil {
		return fmt.Errorf("analysis: hotalloc: %w", err)
	}
	files := map[string]bool{}
	for _, f := range pass.Files {
		files[pass.Fset.Position(f.Pos()).Filename] = true
	}
	if err := checkResolved(diags, files, importPath); err != nil {
		return err
	}
	for _, d := range diags {
		fn := containingHotFunc(hot, d.file, d.line)
		if fn == nil {
			continue
		}
		// Report under the function's fset-absolute filename so
		// //lint:ignore suppression keys line up.
		if allow[fmt.Sprintf("%s:%d", fn.file, d.line)] {
			continue
		}
		pass.ReportPosf(token.Position{Filename: fn.file, Line: d.line, Column: d.col}, "escape",
			"%s in hot-path function %s (//qatk:hotpath); restructure to stay on the stack or acknowledge with //qatk:allowalloc <reason>", d.msg, fn.name)
	}
	return nil
}

// checkResolved fails when the compiler printed escapes for the package
// but none of their positions names one of its files: the position
// format drifted, and matching nothing would pass every hot path
// unchecked.
func checkResolved(diags []escapeDiag, files map[string]bool, importPath string) error {
	for _, d := range diags {
		if files[d.file] {
			return nil
		}
	}
	if len(diags) == 0 {
		return nil
	}
	return fmt.Errorf("analysis: hotalloc: none of the %d escape positions the compiler printed for %s (first %s:%d) resolves to a file of the package",
		len(diags), importPath, diags[0].file, diags[0].line)
}

// collectHotFuncs finds //qatk:hotpath annotated declarations.
func collectHotFuncs(pass *Pass) []hotFunc {
	var out []hotFunc
	eachFunc(pass, func(fd *ast.FuncDecl) {
		if !hasDirective(fd.Doc, "qatk:hotpath") {
			return
		}
		start := pass.Fset.Position(fd.Pos())
		end := pass.Fset.Position(fd.End())
		out = append(out, hotFunc{
			name:      fd.Name.Name,
			file:      start.Filename,
			startLine: start.Line,
			endLine:   end.Line,
		})
	})
	return out
}

// collectAllowAlloc maps "file:line" keys covered by a
// //qatk:allowalloc comment (its own line and the line below). A bare
// allowalloc with no reason is a finding: acknowledged allocations need
// the why recorded next to them.
func collectAllowAlloc(pass *Pass) map[string]bool {
	allow := map[string]bool{}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, "qatk:allowalloc") {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				reason := strings.TrimSpace(strings.TrimPrefix(text, "qatk:allowalloc"))
				if reason == "" {
					pass.Reportf(c.Pos(), "bad-annotation",
						"//qatk:allowalloc requires a reason explaining the acknowledged allocation")
					continue
				}
				allow[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = true
				allow[fmt.Sprintf("%s:%d", pos.Filename, pos.Line+1)] = true
			}
		}
	}
	return allow
}

// passPackageDir recovers the directory and import path of the pass's
// package from the shared Program.
func passPackageDir(pass *Pass) (dir, importPath string) {
	if pass.Prog == nil {
		return "", ""
	}
	for _, pkg := range pass.Prog.Pkgs {
		if pkg.Types == pass.Pkg {
			return pkg.Dir, pkg.ImportPath
		}
	}
	return "", ""
}

// escapeDiag is one parsed compiler escape diagnostic.
type escapeDiag struct {
	file string // absolute for a file of the package, else as printed
	line int
	col  int
	msg  string
}

// escapeDiagnostics builds the package with -m=2 and parses the escape
// analysis output. The go build cache replays compiler diagnostics on
// cache hits, so repeated runs stay fast without -a. It replays them as
// the first build printed them, so the build uses -trimpath: positions
// then read "<import path>/<file>" whichever directory compiled the
// package, and a developer's own -m=2 build (without -trimpath) is a
// different cache entry.
func escapeDiagnostics(dir, importPath string) ([]escapeDiag, error) {
	cmd := exec.Command("go", "build", "-trimpath", "-gcflags="+importPath+"=-m=2", importPath)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build %s: %w (%s)", importPath, err, lastLines(out.String(), 5))
	}

	// -m=2 prints each escape twice: a detail header ("x escapes to
	// heap:" with the flow trace) and a summary line, which for heap
	// moves reads "moved to heap: x". Dedupe by position, keeping the
	// later (summary) message.
	var diags []escapeDiag
	seen := map[string]int{}
	for _, line := range strings.Split(out.String(), "\n") {
		d, ok := parseEscapeLine(dir, importPath, line)
		if !ok {
			continue
		}
		key := fmt.Sprintf("%s:%d:%d", d.file, d.line, d.col)
		if i, dup := seen[key]; dup {
			diags[i].msg = d.msg
			continue
		}
		seen[key] = len(diags)
		diags = append(diags, d)
	}
	return diags, nil
}

// parseEscapeLine extracts an escape/move diagnostic from one line of
// `-trimpath -m=2` output ("repro/pkg/file.go:10:12: x escapes to
// heap"). A position in a file of the package, "<importPath>/<file>",
// resolves to that file in dir, the absolute filename the fileset uses;
// any other position (code inlined from another package) is kept as
// printed, so that checkResolved sees it. Indented flow detail,
// non-escape chatter (inlining decisions) and string-literal subjects
// are rejected.
func parseEscapeLine(dir, importPath, line string) (escapeDiag, bool) {
	parts := strings.SplitN(line, ":", 4)
	if len(parts) != 4 {
		return escapeDiag{}, false
	}
	lineNo, err1 := strconv.Atoi(parts[1])
	col, err2 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil {
		return escapeDiag{}, false
	}
	msg := parts[3]
	if strings.HasPrefix(msg, "   ") {
		return escapeDiag{}, false // flow detail line
	}
	msg = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(msg), ":"))
	var subject string
	switch {
	case strings.HasSuffix(msg, " escapes to heap"):
		subject = strings.TrimSuffix(msg, " escapes to heap")
	case strings.HasPrefix(msg, "moved to heap: "):
		subject = strings.TrimPrefix(msg, "moved to heap: ")
	default:
		return escapeDiag{}, false
	}
	if strings.HasPrefix(subject, `"`) {
		return escapeDiag{}, false // message constant on an inlined cold path
	}
	file := parts[0]
	if name, ok := strings.CutPrefix(file, importPath+"/"); ok && !strings.Contains(name, "/") {
		file = filepath.Join(dir, name)
	}
	return escapeDiag{file: file, line: lineNo, col: col, msg: msg}, true
}

// containingHotFunc returns the annotated function covering file:line.
func containingHotFunc(hot []hotFunc, file string, line int) *hotFunc {
	for i := range hot {
		h := &hot[i]
		if h.file == file && line >= h.startLine && line <= h.endLine {
			return h
		}
	}
	return nil
}

// lastLines returns the last n non-empty lines of s for error context.
func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}
