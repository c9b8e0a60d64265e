package eval

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// mediumCorpus is big enough for the experiment shapes to be visible but
// fast enough for the unit-test loop.
func mediumCorpus(t testing.TB) *datagen.Corpus {
	t.Helper()
	cfg := datagen.Config{
		Seed:          3,
		Bundles:       1600,
		Singletons:    150,
		CodesPerPart:  []int{60, 45, 35, 28, 22, 18, 14, 12, 8, 6},
		ArticleCodes:  120,
		Components:    300,
		Symptoms:      280,
		Locations:     20,
		Solutions:     20,
		ZipfS:         1.35,
		MechanicTypoP: 0.10,
		SupplierTypoP: 0.02,
		AbbrevP:       0.15,
	}
	c, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func smallCorpus(t testing.TB) *datagen.Corpus {
	t.Helper()
	c, err := datagen.Generate(datagen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mustRun is Run for tests, failing the test on engine errors.
func mustRun(t *testing.T, e *Experiment, v Variant) *Result {
	t.Helper()
	r, err := e.Run(v)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCrossValidate runs the full protocol on the small corpus.
func TestCrossValidate(t *testing.T) {
	c := smallCorpus(t)
	res := mustRun(t, New(c.Taxonomy, c.Bundles), Variant{Name: "bow-j", Model: kb.BagOfWords, Sim: core.Jaccard{}})
	if res.Accuracy[1] <= 0 || res.Accuracy[25] < res.Accuracy[1] {
		t.Fatalf("accuracy = %v", res.Accuracy)
	}
	if res.KBNodes == 0 || res.TestBundles == 0 || res.Variant != "bow-j" {
		t.Fatalf("result metadata = %+v", res)
	}
}

// TestCrossValidateWithPreprocessing cross-validates a variant with both
// optional preprocessing engines on.
func TestCrossValidateWithPreprocessing(t *testing.T) {
	c := smallCorpus(t)
	e := New(c.Taxonomy, c.Bundles)
	e.Folds, e.Ks = 3, []int{1, 10}
	res := mustRun(t, e, Variant{Name: "bow-j-spell-stem", Model: kb.BagOfWords, Sim: core.Jaccard{},
		SpellNorm: true, Stemming: true})
	if res.Accuracy[10] <= 0.3 {
		t.Fatalf("preprocessed accuracy collapsed: %v", res.Accuracy)
	}
}

// TestRunAllMatchesRun: over an interleaved list that mixes toolkit
// configurations and test sources and repeats configurations out of
// order, RunAll returns every variant's result at its index, equal to that
// variant's own Run.
func TestRunAllMatchesRun(t *testing.T) {
	c := smallCorpus(t)
	e := New(c.Taxonomy, c.Bundles)
	e.Clock = nil
	std := StandardVariants()
	boc := std[2]
	boc.Name = "bag-of-concepts + jaccard, again"
	variants := []Variant{
		std[2],
		SourceVariants("mechanic:", bundle.SourceMechanic)[0],
		std[0],
		{Name: "bow-j-spell-stem", Model: kb.BagOfWords, Sim: core.Jaccard{}, SpellNorm: true, Stemming: true},
		std[3],
		SourceVariants("supplier:", bundle.SourceSupplier)[2],
		std[1],
		boc,
	}
	got, err := e.RunAll(variants)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(variants) {
		t.Fatalf("RunAll returned %d results for %d variants", len(got), len(variants))
	}
	for i, v := range variants {
		if want := mustRun(t, e, v); !reflect.DeepEqual(got[i], want) {
			t.Errorf("result %d (%s):\n got %+v\nwant %+v", i, v.Name, got[i], want)
		}
	}
}

// TestEmptyTestSourcesMeanAllTestSources: empty test sources, like nil,
// mean every test-phase source. They must not fall back to the training
// sources, whose final OEM report and error-code description hold the
// answer.
func TestEmptyTestSourcesMeanAllTestSources(t *testing.T) {
	c := smallCorpus(t)
	e := New(c.Taxonomy, c.Bundles)
	e.Clock = nil
	v := Variant{Name: "boc-j", Model: kb.BagOfConcepts, Sim: core.Jaccard{}}
	empty := v
	empty.TestSources = []bundle.Source{}
	if got, want := mustRun(t, e, empty), mustRun(t, e, v); !reflect.DeepEqual(got, want) {
		t.Errorf("empty test sources: acc@1 %.3f, want %.3f as with nil", got.Accuracy[1], want.Accuracy[1])
	}
	for _, model := range []kb.FeatureModel{kb.BagOfWords, kb.BagOfConcepts} {
		got, err := e.RunCandidateSetBaseline(model, []bundle.Source{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.RunCandidateSetBaseline(model, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("candidate set baseline (%s), empty test sources: acc@1 %.3f, want %.3f as with nil",
				model, got.Accuracy[1], want.Accuracy[1])
		}
	}
}

func TestStratifiedFoldsPartitionAndBalance(t *testing.T) {
	c := mediumCorpus(t)
	bundles := bundle.FilterMultiOccurrence(c.Bundles)
	folds := StratifiedFolds(bundles, 5, 1)
	seen := map[int]bool{}
	total := 0
	for _, f := range folds {
		total += len(f)
		for _, idx := range f {
			if seen[idx] {
				t.Fatalf("index %d in two folds", idx)
			}
			seen[idx] = true
		}
	}
	if total != len(bundles) {
		t.Fatalf("folds cover %d of %d", total, len(bundles))
	}
	// Balance: folds within ±10% of each other.
	min, max := len(folds[0]), len(folds[0])
	for _, f := range folds {
		if len(f) < min {
			min = len(f)
		}
		if len(f) > max {
			max = len(f)
		}
	}
	if max-min > len(bundles)/10 {
		t.Fatalf("folds unbalanced: min %d max %d", min, max)
	}
}

func TestStratifiedFoldsSpreadCodes(t *testing.T) {
	// A code with >= folds bundles must appear in more than one fold.
	bundles := []*bundle.Bundle{}
	for i := 0; i < 10; i++ {
		bundles = append(bundles, &bundle.Bundle{RefNo: string(rune('a' + i)), PartID: "P", ErrorCode: "X"})
	}
	folds := StratifiedFolds(bundles, 5, 1)
	for _, f := range folds {
		if len(f) != 2 {
			t.Fatalf("stratification uneven: %v", folds)
		}
	}
}

func TestStratifiedFoldsDeterministic(t *testing.T) {
	c := mediumCorpus(t)
	bundles := bundle.FilterMultiOccurrence(c.Bundles)
	a := StratifiedFolds(bundles, 5, 42)
	b := StratifiedFolds(bundles, 5, 42)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("folds differ between runs")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("folds differ between runs")
			}
		}
	}
}

// TestEvaluationBitIdentical runs the full stratified 5-fold
// cross-validation twice with the same seed and requires bit-identical
// results — the reproducibility contract qatklint/determinism guards.
// The clock is disabled so wall-clock timing cannot differ between runs.
func TestEvaluationBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation in -short mode")
	}
	c := mediumCorpus(t)
	run := func() (*Result, *Result) {
		e := New(c.Taxonomy, c.Bundles)
		e.Clock = nil
		r := mustRun(t, e, Variant{Name: "bow-j", Model: kb.BagOfWords, Sim: core.Jaccard{}})
		return r, e.RunFrequencyBaseline()
	}
	r1, f1 := run()
	r2, f2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("5-fold evaluation not bit-identical across runs:\n%#v\n%#v", r1, r2)
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Fatalf("frequency baseline not bit-identical across runs:\n%#v\n%#v", f1, f2)
	}
	for _, k := range DefaultKs {
		if r1.Accuracy[k] != r2.Accuracy[k] {
			t.Fatalf("accuracy@%d differs: %v vs %v", k, r1.Accuracy[k], r2.Accuracy[k])
		}
	}
}

// TestExperimentShapes checks the qualitative result structure of the
// paper's experiments on a mid-sized corpus (the exact paper-scale numbers
// are produced by cmd/experiments and the benchmarks).
func TestExperimentShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation in -short mode")
	}
	c := mediumCorpus(t)
	e := New(c.Taxonomy, c.Bundles)

	bowJ := mustRun(t, e, Variant{Name: "bow-j", Model: kb.BagOfWords, Sim: core.Jaccard{}})
	bocJ := mustRun(t, e, Variant{Name: "boc-j", Model: kb.BagOfConcepts, Sim: core.Jaccard{}})
	bocO := mustRun(t, e, Variant{Name: "boc-o", Model: kb.BagOfConcepts, Sim: core.Overlap{}})
	freq := e.RunFrequencyBaseline()
	cand, err := e.RunCandidateSetBaseline(kb.BagOfWords, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Fig. 11 ordering at k=1: bag-of-words > bag-of-concepts > frequency
	// baseline > candidate set; bag-of-concepts+overlap below baseline.
	if !(bowJ.Accuracy[1] > bocJ.Accuracy[1]) {
		t.Errorf("bag-of-words (%.2f) should beat bag-of-concepts (%.2f) at k=1",
			bowJ.Accuracy[1], bocJ.Accuracy[1])
	}
	if !(bocJ.Accuracy[1] > freq.Accuracy[1]) {
		t.Errorf("bag-of-concepts+jaccard (%.2f) should beat the frequency baseline (%.2f)",
			bocJ.Accuracy[1], freq.Accuracy[1])
	}
	if !(bocO.Accuracy[1] < freq.Accuracy[1]) {
		t.Errorf("bag-of-concepts+overlap (%.2f) should fall below the frequency baseline (%.2f) at k=1",
			bocO.Accuracy[1], freq.Accuracy[1])
	}
	if !(cand.Accuracy[1] < freq.Accuracy[1]) {
		t.Errorf("candidate-set baseline (%.2f) should be the weakest at k=1", cand.Accuracy[1])
	}
	// Curves are monotone in k and high by k=25 for the real classifiers.
	prev := 0.0
	for _, k := range DefaultKs {
		if bowJ.Accuracy[k] < prev {
			t.Fatalf("accuracy not monotone in k: %v", bowJ.Accuracy)
		}
		prev = bowJ.Accuracy[k]
	}
	if bowJ.Accuracy[25] < 0.9 {
		t.Errorf("bag-of-words @25 = %.2f, want >= 0.9", bowJ.Accuracy[25])
	}
}

func TestExperimentSourceShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation in -short mode")
	}
	c := mediumCorpus(t)
	e := New(c.Taxonomy, c.Bundles)
	freq := e.RunFrequencyBaseline()

	// Fig. 12: mechanic-only below the frequency baseline at every k.
	mech := mustRun(t, e, Variant{Name: "mech", Model: kb.BagOfWords, Sim: core.Jaccard{},
		TestSources: []bundle.Source{bundle.SourceMechanic}})
	for _, k := range []int{1, 5, 10} {
		if mech.Accuracy[k] >= freq.Accuracy[k] {
			t.Errorf("mechanic-only @%d = %.2f not below baseline %.2f", k, mech.Accuracy[k], freq.Accuracy[k])
		}
	}

	// Fig. 13: supplier-only close to the full test sources.
	full := mustRun(t, e, Variant{Name: "full", Model: kb.BagOfWords, Sim: core.Jaccard{}})
	sup := mustRun(t, e, Variant{Name: "sup", Model: kb.BagOfWords, Sim: core.Jaccard{},
		TestSources: []bundle.Source{bundle.SourceSupplier}})
	if diff := full.Accuracy[1] - sup.Accuracy[1]; diff > 0.15 || diff < -0.15 {
		t.Errorf("supplier-only @1 = %.2f too far from full %.2f", sup.Accuracy[1], full.Accuracy[1])
	}
	if sup.Accuracy[1] <= mech.Accuracy[1] {
		t.Error("supplier report should be far more informative than the mechanic report")
	}
}

func TestFeasibilityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation in -short mode")
	}
	c := mediumCorpus(t)
	e := New(c.Taxonomy, c.Bundles)
	bow := mustRun(t, e, Variant{Name: "bow", Model: kb.BagOfWords, Sim: core.Jaccard{}})
	boc := mustRun(t, e, Variant{Name: "boc", Model: kb.BagOfConcepts, Sim: core.Jaccard{}})
	// §5.2.2: bag-of-concepts classifies several times faster and its
	// knowledge base is smaller (configuration-instance dedup + fewer
	// features).
	if boc.SecPerBundle >= bow.SecPerBundle {
		t.Errorf("bag-of-concepts (%.6fs) should be faster than bag-of-words (%.6fs)",
			boc.SecPerBundle, bow.SecPerBundle)
	}
	if boc.KBNodes >= bow.KBNodes {
		t.Errorf("bag-of-concepts KB (%d nodes) should be smaller than bag-of-words (%d)",
			boc.KBNodes, bow.KBNodes)
	}
	if boc.CandidateSize >= bow.CandidateSize {
		t.Errorf("bag-of-concepts candidate sets (%.1f) should be smaller than bag-of-words (%.1f)",
			boc.CandidateSize, bow.CandidateSize)
	}
}

func TestStopwordRemovalKeepsAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation in -short mode")
	}
	c := mediumCorpus(t)
	e := New(c.Taxonomy, c.Bundles)
	plain := mustRun(t, e, Variant{Name: "bow", Model: kb.BagOfWords, Sim: core.Jaccard{}})
	nostop := mustRun(t, e, Variant{Name: "bow-nostop", Model: kb.BagOfWords, Sim: core.Jaccard{}, Stopwords: true})
	diff := nostop.Accuracy[1] - plain.Accuracy[1]
	if diff < -0.05 || diff > 0.08 {
		t.Errorf("stopword removal changed accuracy materially: %.3f vs %.3f", nostop.Accuracy[1], plain.Accuracy[1])
	}
}

func TestResultSeries(t *testing.T) {
	r := &Result{Accuracy: AccuracyAtK{5: 0.5, 1: 0.1, 25: 0.9}}
	s := r.Series()
	if len(s) != 3 || s[0][0] != 1 || s[2][0] != 25 || s[1][1] != 0.5 {
		t.Fatalf("series = %v", s)
	}
}

func TestPrintTables(t *testing.T) {
	r := &Result{Variant: "v", Accuracy: AccuracyAtK{1: 0.5, 5: 0.75}, SecPerBundle: 0.001, KBNodes: 10}
	var sbA, sbB testWriter
	PrintTable(&sbA, "title", []*Result{r}, []int{1, 5})
	if sbA.String() == "" || !contains(sbA.String(), "50.0%") {
		t.Fatalf("table output: %q", sbA.String())
	}
	PrintTiming(&sbB, []*Result{r})
	if !contains(sbB.String(), "v") {
		t.Fatalf("timing output: %q", sbB.String())
	}
}

type testWriter struct{ b []byte }

func (w *testWriter) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }
func (w *testWriter) String() string              { return string(w.b) }

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestWriteCSV(t *testing.T) {
	r := &Result{Variant: "v,with comma", Accuracy: AccuracyAtK{1: 0.5, 5: 0.75}}
	var w testWriter
	if err := WriteCSV(&w, []*Result{r}, []int{1, 5}); err != nil {
		t.Fatal(err)
	}
	out := w.String()
	if !contains(out, "acc@1") || !contains(out, "0.5000") || !contains(out, "\"v,with comma\"") {
		t.Fatalf("csv:\n%s", out)
	}
}

func TestSourceVariantsShape(t *testing.T) {
	vs := SourceVariants("mech:", bundle.SourceMechanic)
	if len(vs) != 4 {
		t.Fatalf("variants = %d", len(vs))
	}
	for _, v := range vs {
		if len(v.TestSources) != 1 || v.TestSources[0] != bundle.SourceMechanic {
			t.Fatalf("variant %q sources = %v", v.Name, v.TestSources)
		}
		if v.Name[:5] != "mech:" {
			t.Fatalf("variant name %q", v.Name)
		}
	}
}

func TestStdDev(t *testing.T) {
	r := &Result{PerFold: []AccuracyAtK{{1: 0.5}, {1: 0.7}, {1: 0.6}}}
	got := r.StdDev(1)
	if got < 0.099 || got > 0.101 { // sample stddev of {0.5,0.7,0.6} = 0.1
		t.Fatalf("stddev = %v", got)
	}
	if (&Result{}).StdDev(1) != 0 {
		t.Fatal("stddev of no folds should be 0")
	}
	if (&Result{PerFold: []AccuracyAtK{{1: 0.5}}}).StdDev(1) != 0 {
		t.Fatal("stddev of one fold should be 0")
	}
}

// TestFoldSpansAndStallGuards: a cross-validation of two variants that
// share a toolkit opens one eval.fold span per fold, each holding an
// eval.variant span per variant, and a variant stalled in a fold trips
// one stall, whose guard names the variant and the fold.
func TestFoldSpansAndStallGuards(t *testing.T) {
	c := smallCorpus(t)
	e := New(c.Taxonomy, c.Bundles)
	e.Clock = nil
	now := time.Unix(1_700_000_000, 0)
	dir := t.TempDir()
	rec := flight.New(flight.Config{
		Dir:            dir,
		Clock:          func() time.Time { return now },
		Logger:         obs.NewLogger(io.Discard, obs.LevelError),
		StallDeadline:  time.Minute,
		GoroutineLimit: -1,
		MinInterval:    -1,
	})
	defer rec.Close()
	e.Tracer = obs.NewTracer(64)
	e.Flight = rec
	variants := StandardVariants()[2:]

	// The classifier of the second variant in fold 2 (the sixth built)
	// stalls at its first bundle: the clock passes the deadline and the
	// watchdog ticks.
	built := 0
	classifier := func(v Variant, mem *kb.Memory, testFeats [][]string) foldClassifier {
		clf := e.rank(v, mem, testFeats)
		if built++; built != 2*len(variants)+2 {
			return clf
		}
		stalled := false
		return func(idx int) ([]core.ScoredCode, int) {
			if !stalled {
				stalled = true
				now = now.Add(2 * time.Minute)
				rec.Tick(now)
			}
			return clf(idx)
		}
	}
	if _, err := e.crossValidateAll(variants, classifier); err != nil {
		t.Fatal(err)
	}

	folds := map[uint64]string{}
	var nested []string
	spans := e.Tracer.Snapshot()
	for _, s := range spans {
		if s.Name == spanFold && s.ParentID == 0 {
			folds[s.SpanID] = s.Attrs[0].Value
		}
	}
	for _, s := range spans {
		if s.Name == spanVariant {
			nested = append(nested, folds[s.ParentID]+" "+s.Attrs[0].Value)
		}
	}
	slices.Sort(nested)
	var want []string
	for f := 0; f < e.Folds; f++ {
		for _, v := range variants {
			want = append(want, strconv.Itoa(f)+" "+v.Name)
		}
	}
	if len(folds) != e.Folds || !slices.Equal(nested, want) {
		t.Errorf("fold spans %v holding variant spans %q, want %d folds holding %q", folds, nested, e.Folds, want)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var guards []string
	for _, entry := range entries {
		b, err := flight.ReadBundle(filepath.Join(dir, entry.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if b.Reason == flight.ReasonStall {
			guards = append(guards, b.Details["guard"])
		}
	}
	if want := []string{"eval.variant:bag-of-concepts + overlap eval.fold:2"}; !slices.Equal(guards, want) {
		t.Errorf("stalls named guards %q, want %q", guards, want)
	}
}
