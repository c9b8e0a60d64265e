// Command experiments regenerates every table and figure of the paper's
// evaluation (chapter 5) on the synthetic corpus:
//
//	experiments -fig 11        error-code prediction, all reports (Fig. 11)
//	experiments -fig 12        mechanic report only (Fig. 12)
//	experiments -fig 13        supplier report only (Fig. 13)
//	experiments -fig 14        error distribution vs public source (Fig. 14)
//	experiments -stats         corpus statistics vs §3.2
//	experiments -feasibility   runtime per bundle, §5.2.2
//	experiments -coverage      legacy vs trie annotator coverage, §4.5.3
//	experiments -extension     taxonomy-adaptation extension experiment, §6
//	experiments -preproc       linguistic-preprocessing extension experiment, §6
//	experiments -all           everything above
//
// Use -small for a fast scaled-down corpus (shapes become noisier) and
// -csv <dir> to export the accuracy tables for plotting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bundle"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/qatk"
)

func main() { run(os.Stdout, os.Args[1:]) }

// run parses the command line and prints the selected experiments to w.
func run(w io.Writer, args []string) {
	flags := flag.NewFlagSet("experiments", flag.ExitOnError)
	fig := flags.Int("fig", 0, "figure to regenerate (11, 12, 13, 14)")
	stats := flags.Bool("stats", false, "print corpus statistics (§3.2)")
	feas := flags.Bool("feasibility", false, "print runtime feasibility (§5.2.2)")
	coverage := flags.Bool("coverage", false, "print annotator coverage ablation (§4.5.3)")
	extension := flags.Bool("extension", false, "print the taxonomy-adaptation extension experiment (§5.2.2/§6)")
	preproc := flags.Bool("preproc", false, "print the linguistic-preprocessing extension experiment (§6)")
	all := flags.Bool("all", false, "run everything")
	small := flags.Bool("small", false, "use the small test corpus instead of paper scale")
	seed := flags.Int64("seed", 1, "corpus generation seed")
	csvDir := flags.String("csv", "", "also write accuracy tables as CSV into this directory")
	flags.Parse(args)
	csvOut = *csvDir
	if csvOut != "" {
		if err := os.MkdirAll(csvOut, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "csv dir:", err)
			os.Exit(1)
		}
	}

	cfg := datagen.DefaultConfig()
	if *small {
		cfg = datagen.SmallConfig()
	}
	cfg.Seed = *seed

	fmt.Fprintf(os.Stderr, "generating corpus (%d bundles, seed %d)...\n", cfg.Bundles, cfg.Seed)
	corpus, err := datagen.Generate(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}

	ran := false
	if *stats || *all {
		runStats(w, corpus, !*small)
		ran = true
	}
	if *fig == 11 || *all {
		runFig11(w, corpus)
		ran = true
	}
	if *fig == 12 || *all {
		runFig1213(w, corpus, bundle.SourceMechanic, "Figure 12 — mechanic reports only")
		ran = true
	}
	if *fig == 13 || *all {
		runFig1213(w, corpus, bundle.SourceSupplier, "Figure 13 — supplier reports only")
		ran = true
	}
	if *fig == 14 || *all {
		runFig14(w, corpus)
		ran = true
	}
	if *feas || *all {
		runFeasibility(w, corpus)
		ran = true
	}
	if *coverage || *all {
		runCoverage(w, corpus)
		ran = true
	}
	if *extension || *all {
		runExtension(w, corpus)
		ran = true
	}
	if *preproc || *all {
		runPreprocessing(w, corpus)
		ran = true
	}
	if !ran {
		flags.Usage()
		os.Exit(2)
	}
}

func runStats(w io.Writer, corpus *datagen.Corpus, paperScale bool) {
	fmt.Fprintln(w, "== Corpus statistics (§3.2) ==")
	corpus.Stats().Print(w, paperScale)
	fmt.Fprintln(w)
}

// csvOut is the directory for CSV exports ("" = disabled).
var csvOut string

// writeCSV exports one figure's accuracy table when -csv is set.
func writeCSV(name string, results []*eval.Result) {
	if csvOut == "" {
		return
	}
	f, err := os.Create(csvOut + "/" + name + ".csv")
	if err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
		return
	}
	defer f.Close()
	if err := eval.WriteCSV(f, results, nil); err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
	}
}

// must aborts the experiment run when an evaluation fails; the figures
// are meaningless on partial data.
func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	return v
}

func runFig11(w io.Writer, corpus *datagen.Corpus) {
	e := eval.New(corpus.Taxonomy, corpus.Bundles)
	results := must(e.RunAll(eval.StandardVariants()))
	results = append(results, e.RunFrequencyBaseline())
	results = append(results, must(e.RunCandidateSetBaseline(kb.BagOfWords, nil)))
	results = append(results, must(e.RunCandidateSetBaseline(kb.BagOfConcepts, nil)))
	eval.PrintTable(w, "== Figure 11 — experiment 1: all reports ==", results, nil)
	writeCSV("fig11", results)
	fmt.Fprintln(w)
}

func runFig1213(w io.Writer, corpus *datagen.Corpus, src bundle.Source, title string) {
	e := eval.New(corpus.Taxonomy, corpus.Bundles)
	variants := eval.SourceVariants(string(src)+":", src)
	results := must(e.RunAll(variants))
	results = append(results, e.RunFrequencyBaseline())
	results = append(results, must(e.RunCandidateSetBaseline(kb.BagOfWords, []bundle.Source{src})))
	results = append(results, must(e.RunCandidateSetBaseline(kb.BagOfConcepts, []bundle.Source{src})))
	eval.PrintTable(w, "== "+title+" ==", results, nil)
	writeCSV("fig"+map[bundle.Source]string{bundle.SourceMechanic: "12", bundle.SourceSupplier: "13"}[src], results)
	fmt.Fprintln(w)
}

func runFeasibility(w io.Writer, corpus *datagen.Corpus) {
	e := eval.New(corpus.Taxonomy, corpus.Bundles)
	variants := []eval.Variant{
		{Name: "bag-of-words + jaccard", Model: kb.BagOfWords, Sim: jaccard()},
		{Name: "bag-of-words + jaccard + stopword removal", Model: kb.BagOfWords, Sim: jaccard(), Stopwords: true},
		{Name: "bag-of-concepts + jaccard", Model: kb.BagOfConcepts, Sim: jaccard()},
	}
	results := must(e.RunAll(variants))
	fmt.Fprintln(w, "== Feasibility (§5.2.2) — classification runtime ==")
	eval.PrintTiming(w, results)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "accuracy (stopword removal must not change accuracy materially):")
	eval.PrintTable(w, "", results, nil)
	fmt.Fprintln(w)

	// Per-engine preprocessing cost over the full corpus, via a traced
	// training run (where the time goes before classification): each
	// engine invocation is a span, and the tracer's per-name aggregation
	// yields the per-engine table.
	tracer := obs.NewTracer(256)
	_, stats, err := qatk.New(corpus.Taxonomy).TrainRun(context.Background(), corpus.Bundles, pipeline.RunConfig{
		DeadLetter: func(d pipeline.DeadLetter) error {
			fmt.Fprintf(os.Stderr, "pipeline: skipping bundle %d (%s): %v\n", d.Index, d.DocID, d.Err)
			return nil
		},
		ErrorBudget: 25,
		Tracer:      tracer,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipeline:", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, "preprocessing cost per engine (full corpus):")
	pipeline.PrintSpanReport(w, tracer.Stats())
	pipeline.PrintRunStats(w, stats)
	fmt.Fprintln(w)
}
