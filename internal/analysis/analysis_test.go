package analysis

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

const fixtureDir = "testdata/src/qatktest"

// The fixture module is loaded once: type checking its stdlib
// dependencies from source is the expensive part, and every test below
// reads the same immutable results.
var (
	fixOnce  sync.Once
	fixFset  *token.FileSet
	fixPkgs  []*Package
	fixDiags []Diagnostic
	fixErr   error
)

func loadFixtures(t *testing.T) (*token.FileSet, []*Package, []Diagnostic) {
	t.Helper()
	fixOnce.Do(func() {
		fixFset = token.NewFileSet()
		fixPkgs, fixErr = Load(fixFset, fixtureDir)
		if fixErr != nil {
			return
		}
		fixDiags, fixErr = Run(fixFset, fixPkgs, All())
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixFset, fixPkgs, fixDiags
}

// TestLoadFixtureModule checks the driver loads a multi-package module
// with go list + go/parser + go/types: every fixture package is present,
// type checked, and carries its transitive dependency set.
func TestLoadFixtureModule(t *testing.T) {
	_, pkgs, _ := loadFixtures(t)

	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	for _, want := range []string{
		"qatktest/internal/cas",
		"qatktest/internal/retain",
		"qatktest/internal/errs",
		"qatktest/internal/panics",
		"qatktest/internal/pipeline",
		"qatktest/internal/obs",
		"qatktest/internal/reldb",
		"qatktest/datagen",
		"qatktest/metrics",
		"qatktest/suppress",
		"qatktest/ctxflow",
		"qatktest/goroleak",
		"qatktest/guarded",
		"qatktest/hotalloc",
	} {
		p := byPath[want]
		if p == nil {
			t.Fatalf("package %s not loaded (got %v)", want, keys(byPath))
		}
		if !p.Root {
			t.Errorf("%s: not marked as a root package", want)
		}
		if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
			t.Errorf("%s: incomplete package: types=%v info=%v files=%d", want, p.Types, p.Info, len(p.Files))
		}
	}
	if !byPath["qatktest/internal/retain"].Deps["qatktest/internal/cas"] {
		t.Error("retain package is missing its cas dependency in Deps")
	}
	if len(byPath["qatktest/internal/errs"].Info.Uses) == 0 {
		t.Error("errs package was not type checked (empty Uses map)")
	}
}

// wantRe matches `// want <analyzer> "substring"` expectation comments in
// the fixture sources.
var wantRe = regexp.MustCompile(`// want (\w+) "([^"]+)"`)

type expectation struct {
	file     string // absolute
	line     int
	analyzer string
	substr   string
}

// fixtureExpectations scans the fixture sources for want comments,
// skipping the suppress package (asserted explicitly in TestSuppression).
func fixtureExpectations(t *testing.T) []expectation {
	t.Helper()
	var exps []expectation
	err := filepath.Walk(fixtureDir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		if strings.Contains(filepath.ToSlash(path), "/suppress/") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				exps = append(exps, expectation{file: abs, line: i + 1, analyzer: m[1], substr: m[2]})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) == 0 {
		t.Fatal("no want comments found in fixtures")
	}
	return exps
}

// TestAnalyzersMatchWantComments is the golden-file check: every want
// comment must be satisfied by a finding on that exact file:line, and
// every finding (outside the suppress fixtures) must be announced by a
// want comment — unexpected findings are failures too.
func TestAnalyzersMatchWantComments(t *testing.T) {
	_, _, diags := loadFixtures(t)
	exps := fixtureExpectations(t)

	var surplus []Diagnostic
	for _, d := range diags {
		if strings.Contains(filepath.ToSlash(d.File), "/suppress/") {
			continue
		}
		matched := false
		for i, e := range exps {
			if e.file == d.File && e.line == d.Line && e.analyzer == d.Analyzer &&
				strings.Contains(d.Message, e.substr) {
				exps = append(exps[:i], exps[i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			surplus = append(surplus, d)
		}
	}
	for _, e := range exps {
		t.Errorf("missing finding: %s:%d: %s (message containing %q)",
			e.file, e.line, e.analyzer, e.substr)
	}
	for _, d := range surplus {
		t.Errorf("unexpected finding: %s", d.String())
	}
}

// TestPositions checks every diagnostic carries a plausible position:
// an absolute file inside the fixture tree, a positive line and column.
func TestPositions(t *testing.T) {
	_, _, diags := loadFixtures(t)
	absFixtures, err := filepath.Abs(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("fixtures produced no diagnostics")
	}
	for _, d := range diags {
		if !filepath.IsAbs(d.File) || !strings.HasPrefix(d.File, absFixtures) {
			t.Errorf("%s: file not under the fixture tree", d.String())
		}
		if d.Line <= 0 || d.Col <= 0 {
			t.Errorf("%s: non-positive position", d.String())
		}
	}
	// Diagnostics come out sorted by file, then line, then column.
	if !sort.SliceIsSorted(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	}) {
		t.Error("diagnostics are not sorted by position")
	}
}

// TestSuppression asserts the //lint:ignore semantics on the suppress
// fixture package: a reasoned suppression silences the next line, a
// reasonless or unknown-check one is itself a finding and silences
// nothing.
func TestSuppression(t *testing.T) {
	_, _, diags := loadFixtures(t)
	var inFile []Diagnostic
	for _, d := range diags {
		if strings.HasSuffix(filepath.ToSlash(d.File), "/suppress/suppress.go") {
			inFile = append(inFile, d)
		}
	}
	var malformed, unused, errattr, paniccontract int
	for _, d := range inFile {
		switch {
		case d.Analyzer == "suppression" && d.Category == "unused":
			unused++
			if !strings.Contains(d.Message, "matched no diagnostic") {
				t.Errorf("unexpected stale-suppression diagnostic: %s", d.String())
			}
		case d.Analyzer == "suppression":
			malformed++
			if !strings.Contains(d.Message, "requires a reason") && !strings.Contains(d.Message, "unknown check") {
				t.Errorf("unexpected suppression diagnostic: %s", d.String())
			}
		case d.Analyzer == "errattr":
			errattr++
		case d.Analyzer == "paniccontract":
			paniccontract++
		default:
			t.Errorf("unexpected analyzer in suppress fixture: %s", d.String())
		}
	}
	if malformed != 2 {
		t.Errorf("malformed suppressions reported = %d, want 2 (reasonless + unknown check)", malformed)
	}
	// Unused's suppression matches nothing: exactly one stale finding.
	if unused != 1 {
		t.Errorf("stale suppressions reported = %d, want 1", unused)
	}
	// Four %v sites exist; the well-formed suppressions silence the ones
	// in Wrapped and MultiDiag.
	if errattr != 2 {
		t.Errorf("surviving errattr findings = %d, want 2 (two suppressed)", errattr)
	}
	// MultiDiag's suppression names errattr only: the paniccontract
	// finding sharing the line survives.
	if paniccontract != 1 {
		t.Errorf("surviving paniccontract findings = %d, want 1 (multi-diagnostic line)", paniccontract)
	}
}

// TestHotAllocGate pins the acceptance behavior of the allocation gate:
// a //qatk:hotpath function that heap-allocates IS a finding (the fixture
// would fail the lint), while stack-only, acknowledged and suppressed
// allocations are not.
func TestHotAllocGate(t *testing.T) {
	_, _, diags := loadFixtures(t)
	var hits []Diagnostic
	for _, d := range diags {
		if d.Analyzer == "hotalloc" && strings.HasSuffix(filepath.ToSlash(d.File), "/hotalloc/hotalloc.go") {
			hits = append(hits, d)
		}
	}
	if len(hits) == 0 {
		t.Fatal("hotalloc produced no findings on its fixture: the gate does not fail on heap escapes")
	}
	var boxed, moved bool
	for _, d := range hits {
		if strings.Contains(d.Message, "escapes to heap") && strings.Contains(d.Message, "Box") {
			boxed = true
		}
		if strings.Contains(d.Message, "moved to heap") && strings.Contains(d.Message, "Escape") {
			moved = true
		}
		for _, clean := range []string{"Sum", "Cold", "Acknowledged", "Tolerated"} {
			if strings.Contains(d.Message, "function "+clean) {
				t.Errorf("hotalloc flagged %s, want clean (stack-only/unannotated/acknowledged/suppressed): %s", clean, d.String())
			}
		}
	}
	if !boxed {
		t.Error("interface boxing in Box was not reported")
	}
	if !moved {
		t.Error("heap move in Escape was not reported")
	}
}

// TestHotAllocResolvesCompilerPositions: the compiler prints escape
// positions relative to the directory the build ran in; they resolve to
// the fileset's absolute filenames, and a build whose escapes resolve to
// no file of the package is an error rather than a silent pass.
func TestHotAllocResolvesCompilerPositions(t *testing.T) {
	dir := filepath.Join(string(filepath.Separator), "mod", "pkg")
	for line, want := range map[string]string{
		"./hot.go:12:9: make([]int, n) escapes to heap":          filepath.Join(dir, "hot.go"),
		"../other/x.go:3:1: moved to heap: v":                    filepath.Join(dir, "..", "other", "x.go"),
		filepath.Join(dir, "abs.go") + ":7:2: p escapes to heap": filepath.Join(dir, "abs.go"),
	} {
		d, ok := parseEscapeLine(dir, line)
		if !ok || d.file != want {
			t.Errorf("parseEscapeLine(%q) = %+v, %v; want file %s", line, d, ok, want)
		}
	}
	files := map[string]bool{filepath.Join(dir, "hot.go"): true}
	hit := escapeDiag{file: filepath.Join(dir, "hot.go"), line: 12}
	miss := escapeDiag{file: "hot.go", line: 12}
	if err := checkResolved([]escapeDiag{miss, hit}, files, "mod/pkg"); err != nil {
		t.Errorf("resolvable escapes rejected: %v", err)
	}
	if err := checkResolved(nil, files, "mod/pkg"); err != nil {
		t.Errorf("a package without escapes rejected: %v", err)
	}
	if err := checkResolved([]escapeDiag{miss}, files, "mod/pkg"); err == nil {
		t.Error("escapes resolving to no file of the package passed")
	}
}

// TestWriteJSONRoundTrip checks the machine-readable output: parseable
// JSON, keyed by "file:line", round-tripping every field.
func TestWriteJSONRoundTrip(t *testing.T) {
	_, _, diags := loadFixtures(t)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	var decoded map[string][]Diagnostic
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	total := 0
	for key, group := range decoded {
		for _, d := range group {
			total++
			if d.Key() != key {
				t.Errorf("finding %s filed under wrong key %q", d.String(), key)
			}
		}
	}
	if total != len(diags) {
		t.Fatalf("JSON round trip lost findings: %d in, %d out", len(diags), total)
	}
	want := map[string][]Diagnostic{}
	for _, d := range diags {
		want[d.Key()] = append(want[d.Key()], d)
	}
	if !reflect.DeepEqual(decoded, want) {
		t.Error("decoded JSON does not match the source diagnostics")
	}
}

// TestRunCommand drives the CLI end to end: exit 1 iff findings, exit 0
// on a clean module, exit 2 on load failure, -json and -help-checks.
func TestRunCommand(t *testing.T) {
	t.Run("findings", func(t *testing.T) {
		var out, errs bytes.Buffer
		code := RunCommand([]string{"-C", fixtureDir, "./..."}, &out, &errs)
		if code != ExitFindings {
			t.Fatalf("exit = %d, want %d (stderr: %s)", code, ExitFindings, errs.String())
		}
		text := out.String()
		if !strings.Contains(text, "qatklint/casretain") || !strings.Contains(text, "qatklint/paniccontract") {
			t.Errorf("text output is missing analyzer IDs:\n%s", text)
		}
		// Paths are relativized against -C and keyed file:line:col.
		if !regexp.MustCompile(`(?m)^internal/retain/retain\.go:\d+:\d+: qatklint/casretain: `).MatchString(text) {
			t.Errorf("output lines are not relative file:line:col format:\n%s", text)
		}
	})

	t.Run("json", func(t *testing.T) {
		var out, errs bytes.Buffer
		code := RunCommand([]string{"-json", "-C", fixtureDir, "./..."}, &out, &errs)
		if code != ExitFindings {
			t.Fatalf("exit = %d, want %d (stderr: %s)", code, ExitFindings, errs.String())
		}
		var decoded map[string][]Diagnostic
		if err := json.Unmarshal(out.Bytes(), &decoded); err != nil {
			t.Fatalf("-json output is not valid JSON: %v", err)
		}
		if len(decoded) == 0 {
			t.Fatal("-json output is empty")
		}
		for key := range decoded {
			if !regexp.MustCompile(`:\d+$`).MatchString(key) {
				t.Errorf("JSON key %q is not file:line", key)
			}
		}
	})

	t.Run("clean", func(t *testing.T) {
		var out, errs bytes.Buffer
		code := RunCommand([]string{"-C", "testdata/src/clean", "./..."}, &out, &errs)
		if code != ExitClean {
			t.Fatalf("exit = %d, want %d (stdout: %s stderr: %s)", code, ExitClean, out.String(), errs.String())
		}
		if out.Len() != 0 {
			t.Errorf("clean module produced output: %s", out.String())
		}
	})

	t.Run("load-error", func(t *testing.T) {
		var out, errs bytes.Buffer
		code := RunCommand([]string{"-C", "testdata/no-such-dir", "./..."}, &out, &errs)
		if code != ExitError {
			t.Fatalf("exit = %d, want %d", code, ExitError)
		}
		if errs.Len() == 0 {
			t.Error("load failure reported nothing on stderr")
		}
	})

	t.Run("help-checks", func(t *testing.T) {
		var out, errs bytes.Buffer
		code := RunCommand([]string{"-help-checks"}, &out, &errs)
		if code != ExitClean {
			t.Fatalf("exit = %d, want %d", code, ExitClean)
		}
		for _, a := range All() {
			if !strings.Contains(out.String(), a.ID()) {
				t.Errorf("-help-checks output is missing %s", a.ID())
			}
		}
	})
}

// TestDiagnosticFormats pins the two output shapes the Makefile and
// editors consume.
func TestDiagnosticFormats(t *testing.T) {
	d := Diagnostic{
		Analyzer: "errattr", Category: "missing-prefix",
		File: "internal/kb/store.go", Line: 42, Col: 9,
		Message: "error message lacks prefix",
	}
	if got, want := d.String(), "internal/kb/store.go:42:9: qatklint/errattr: error message lacks prefix"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got, want := d.Key(), "internal/kb/store.go:42"; got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
}

func keys(m map[string]*Package) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
