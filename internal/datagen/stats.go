package datagen

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/annotate"
	"repro/internal/bundle"
	"repro/internal/textproc"
)

// CorpusStats are the §3.2 statistics of a generated corpus, used both in
// tests (asserting the paper's numbers) and by `experiments -stats`.
type CorpusStats struct {
	Bundles             int
	PartIDs             int
	ArticleCodes        int
	ErrorCodes          int
	SingletonCodes      int
	MultiCodes          int
	MultiBundles        int // bundles whose code appears more than once
	MaxCodesPerPart     int
	PartsWithOver10     int
	AvgWordsPerText     float64
	AvgConceptsPerText  float64 // concept *mentions*, as the paper counts
	TaxonomyConceptsDE  int
	TaxonomyConceptsEN  int
	BundlesWithInitial  int
	DistinctSymptomSets int
}

// Stats computes the corpus statistics. Token and concept counts run the
// actual QATK preprocessing over every bundle's test-phase text, so they
// measure exactly what the classifier sees.
func (c *Corpus) Stats() CorpusStats {
	st := CorpusStats{
		Bundles:            len(c.Bundles),
		PartIDs:            len(c.Parts),
		TaxonomyConceptsDE: c.Taxonomy.CountConceptsWithLanguage("de"),
		TaxonomyConceptsEN: c.Taxonomy.CountConceptsWithLanguage("en"),
	}
	articles := map[string]bool{}
	codeCounts := map[string]int{}
	for _, b := range c.Bundles {
		articles[b.ArticleCode] = true
		codeCounts[b.ErrorCode]++
		if b.HasReport(bundle.SourceInitialOEM) {
			st.BundlesWithInitial++
		}
	}
	st.ArticleCodes = len(articles)
	st.ErrorCodes = len(codeCounts)
	for _, n := range codeCounts {
		if n == 1 {
			st.SingletonCodes++
		} else {
			st.MultiCodes++
			st.MultiBundles += n
		}
	}
	for pi, p := range c.Parts {
		n := len(p.Codes)
		if n > st.MaxCodesPerPart {
			st.MaxCodesPerPart = n
		}
		if n > 10 {
			st.PartsWithOver10++
		}
		_ = pi
	}

	ann := annotate.NewConceptAnnotator(c.Taxonomy)
	totalWords, totalConcepts := 0, 0
	symptomSets := map[string]bool{}
	for _, spec := range c.Codes {
		key := fmt.Sprint(spec.Symptoms)
		symptomSets[key] = true
	}
	st.DistinctSymptomSets = len(symptomSets)
	for _, b := range c.Bundles {
		cs := b.CAS(bundle.TestSources()...)
		if err := (textproc.Tokenizer{}).Process(cs); err != nil {
			continue
		}
		if err := ann.Process(cs); err != nil {
			continue
		}
		totalWords += len(cs.Tokens())
		totalConcepts += len(cs.Concepts())
	}
	if len(c.Bundles) > 0 {
		st.AvgWordsPerText = float64(totalWords) / float64(len(c.Bundles))
		st.AvgConceptsPerText = float64(totalConcepts) / float64(len(c.Bundles))
	}
	return st
}

// Print writes a human-readable stats table next to the paper's numbers.
func (st CorpusStats) Print(w io.Writer, paperScale bool) {
	type row struct {
		name  string
		got   string
		paper string
	}
	rows := []row{
		{"data bundles", fmt.Sprint(st.Bundles), "7500"},
		{"part IDs", fmt.Sprint(st.PartIDs), "31"},
		{"article codes", fmt.Sprint(st.ArticleCodes), "831"},
		{"distinct error codes", fmt.Sprint(st.ErrorCodes), "1271"},
		{"singleton error codes", fmt.Sprint(st.SingletonCodes), "718"},
		{"classes after filtering", fmt.Sprint(st.MultiCodes), "553"},
		{"bundles after filtering", fmt.Sprint(st.MultiBundles), "6782"},
		{"max codes for one part ID", fmt.Sprint(st.MaxCodesPerPart), "146"},
		{"part IDs with >10 codes", fmt.Sprint(st.PartsWithOver10), "25 of 31 (min)"},
		{"avg words per text", fmt.Sprintf("%.1f", st.AvgWordsPerText), "~70"},
		{"avg concept mentions per text", fmt.Sprintf("%.1f", st.AvgConceptsPerText), "~26"},
		{"taxonomy concepts (de)", fmt.Sprint(st.TaxonomyConceptsDE), "~1800"},
		{"taxonomy concepts (en)", fmt.Sprint(st.TaxonomyConceptsEN), "~1900"},
	}
	fmt.Fprintf(w, "%-32s %12s %16s\n", "statistic", "generated", "paper (§3.2)")
	for _, r := range rows {
		paper := r.paper
		if !paperScale {
			paper = "-"
		}
		fmt.Fprintf(w, "%-32s %12s %16s\n", r.name, r.got, paper)
	}
}

// SortedCodes returns all code specs ordered by code, for deterministic
// iteration in tools.
func (c *Corpus) SortedCodes() []*CodeSpec {
	out := make([]*CodeSpec, 0, len(c.Codes))
	for _, s := range c.Codes {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}
