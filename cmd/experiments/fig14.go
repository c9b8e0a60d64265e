package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/annotate"
	"repro/internal/bundle"
	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/kb"
	"repro/internal/nhtsa"
	"repro/internal/qatk"
	"repro/internal/taxext"
	"repro/internal/textproc"
)

func jaccard() core.Similarity { return core.Jaccard{} }

// largestPart returns the part ID with the most bundles.
func largestPart(bundles []*bundle.Bundle) string {
	counts := map[string]int{}
	best := ""
	for _, b := range bundles {
		counts[b.PartID]++
		if best == "" || counts[b.PartID] > counts[best] ||
			(counts[b.PartID] == counts[best] && b.PartID < best) {
			best = b.PartID
		}
	}
	return best
}

// runFig14 regenerates the error-distribution comparison of §5.4/Fig. 14:
// the internal knowledge base classifies ODI-style complaints, and the two
// sources' top error codes are printed side by side.
func runFig14(w io.Writer, corpus *datagen.Corpus) {
	// Build the full knowledge base from all internal bundles
	// (bag-of-concepts: language-independent, the §5.4 choice).
	filtered := bundle.FilterMultiOccurrence(corpus.Bundles)
	boc := qatk.New(corpus.Taxonomy)
	clf := compare.NewClassifier(must(boc.Train(filtered)), boc)

	gcfg := nhtsa.DefaultGenerateConfig()
	if len(corpus.Bundles) < 1000 {
		gcfg.Complaints = 300
	}
	complaints, labels := nhtsa.GenerateLabeled(gcfg, corpus)

	// The QUEST comparison screen (Fig. 14) shows the distribution for one
	// component class; use the part with the most data.
	part := largestPart(filtered)
	var partBundles []*bundle.Bundle
	for _, b := range filtered {
		if b.PartID == part {
			partBundles = append(partBundles, b)
		}
	}
	var partComplaints []nhtsa.Complaint
	for _, cm := range complaints {
		if cm.Component == part {
			partComplaints = append(partComplaints, cm)
		}
	}
	public := must(clf.ComplaintDistribution(partComplaints))
	internal := compare.InternalDistribution(partBundles)

	fmt.Fprintf(w, "== Figure 14 — error distribution for part %s: internal vs public source ==\n", part)
	compare.PrintSideBySide(w, internal, public, 3)
	fmt.Fprintf(w, "top-10 head overlap: %d codes shared\n", compare.HeadOverlap(internal, public, 10))

	// The §5.4 cross-source accuracy claim, measurable on the synthetic
	// labels: bag-of-concepts transfers across text types, bag-of-words
	// does not.
	bocAcc := must(compare.CrossSourceAccuracy(clf, complaints, labels))
	bow := qatk.New(corpus.Taxonomy, qatk.WithModel(kb.BagOfWords))
	bowAcc := must(compare.CrossSourceAccuracy(compare.NewClassifier(must(bow.Train(filtered)), bow), complaints, labels))
	fmt.Fprintf(w, "cross-source top-1 accuracy: bag-of-concepts %.1f%%, bag-of-words %.1f%% (§5.4)\n\n",
		100*bocAcc, 100*bowAcc)
}

// runExtension runs the taxonomy-adaptation experiment the paper names as
// future work: per-fold mining of uncovered domain terms, then
// bag-of-concepts CV with the extended taxonomy.
func runExtension(w io.Writer, corpus *datagen.Corpus) {
	e := eval.New(corpus.Taxonomy, corpus.Bundles)
	plain := must(e.Run(eval.Variant{Name: "bag-of-concepts + jaccard (legacy taxonomy)",
		Model: kb.BagOfConcepts, Sim: core.Jaccard{}}))
	adapted, added, err := taxext.Evaluate(corpus.Taxonomy, corpus.Bundles,
		taxext.DefaultConfig(), core.Jaccard{}, 5, 1, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "extension:", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, "== Extension — taxonomy adaptation (§5.2.2 outlook, §6) ==")
	fmt.Fprintf(w, "%-52s", "variant")
	for _, k := range eval.DefaultKs {
		fmt.Fprintf(w, "  @%-5d", k)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-52s", plain.Variant)
	for _, k := range eval.DefaultKs {
		fmt.Fprintf(w, "  %5.1f%%", 100*plain.Accuracy[k])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-52s", fmt.Sprintf("bag-of-concepts + jaccard (adapted, +%d concepts)", added))
	for _, k := range eval.DefaultKs {
		fmt.Fprintf(w, "  %5.1f%%", 100*adapted[k])
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
}

// runPreprocessing runs the second §6 future-work experiment: the optional
// linguistic preprocessing engines (taxonomy-vocabulary spelling
// normalization and language-dependent stemming) cross-validated against
// the plain pipeline.
func runPreprocessing(w io.Writer, corpus *datagen.Corpus) {
	variants := []eval.Variant{
		{Name: "bag-of-words + jaccard (plain)", Model: kb.BagOfWords, Sim: jaccard()},
		{Name: "bag-of-words + jaccard + spell norm", Model: kb.BagOfWords, Sim: jaccard(), SpellNorm: true},
		{Name: "bag-of-words + jaccard + spell norm + stems", Model: kb.BagOfWords, Sim: jaccard(), SpellNorm: true, Stemming: true},
		{Name: "bag-of-concepts + jaccard (plain)", Model: kb.BagOfConcepts, Sim: jaccard()},
		{Name: "bag-of-concepts + jaccard + spell norm", Model: kb.BagOfConcepts, Sim: jaccard(), SpellNorm: true},
	}
	results := must(eval.New(corpus.Taxonomy, corpus.Bundles).RunAll(variants))
	eval.PrintTable(w, "== Extension — linguistic preprocessing (§6) ==", results, nil)
	fmt.Fprintln(w)
}

// runCoverage reproduces the §4.5.3 annotator comparison: the legacy
// annotator finds no taxonomy concepts in a large share of the bundles
// (2,530 of 7,500 in the paper), the trie annotator covers all of them.
func runCoverage(w io.Writer, corpus *datagen.Corpus) {
	legacy := annotate.NewLegacyAnnotator(corpus.Taxonomy)
	modern := annotate.NewConceptAnnotator(corpus.Taxonomy)
	legacyZero, modernZero := 0, 0
	for _, b := range corpus.Bundles {
		cl := b.CAS()
		if err := (textproc.Tokenizer{}).Process(cl); err != nil {
			continue
		}
		cm := b.CAS()
		if err := (textproc.Tokenizer{}).Process(cm); err != nil {
			continue
		}
		if err := legacy.Process(cl); err == nil && len(cl.Concepts()) == 0 {
			legacyZero++
		}
		if err := modern.Process(cm); err == nil && len(cm.Concepts()) == 0 {
			modernZero++
		}
	}
	fmt.Fprintln(w, "== Annotator coverage (§4.5.3) ==")
	fmt.Fprintf(w, "%-36s %10s %18s\n", "annotator", "zero-concept bundles", "paper")
	fmt.Fprintf(w, "%-36s %10d of %d %12s\n", "legacy (single-word, case-sensitive)", legacyZero, len(corpus.Bundles), "2530 of 7500")
	fmt.Fprintf(w, "%-36s %10d of %d %12s\n", "trie (multiword, multilingual)", modernZero, len(corpus.Bundles), "0 of 7500")
	fmt.Fprintln(w)
}
