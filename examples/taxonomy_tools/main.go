// Taxonomy tools: working with the domain-specific resource (§4.5.3) —
// saving/loading the custom XML format, editing concepts, expanding
// synonyms, and measuring the coverage difference between the legacy
// annotator and the optimized trie annotator on messy multilingual text.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/annotate"
	"repro/internal/bundle"
	"repro/internal/cas"
	"repro/internal/datagen"
	"repro/internal/taxonomy"
	"repro/internal/textproc"
)

func main() {
	cfg := datagen.SmallConfig()
	corpus, err := datagen.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	tax := corpus.Taxonomy

	// --- XML round trip --------------------------------------------------
	dir, err := os.MkdirTemp("", "taxonomy")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "taxonomy.xml")
	if err := tax.SaveFile(path); err != nil {
		log.Fatal(err)
	}
	loaded, err := taxonomy.LoadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	st := loaded.ComputeStats()
	fmt.Printf("taxonomy: %d concepts (%d components, %d symptoms), %d multiword terms\n",
		st.Concepts, st.ByKind[taxonomy.KindComponent], st.ByKind[taxonomy.KindSymptom], st.Multiwords)

	// --- editor operations ------------------------------------------------
	first := loaded.Concepts()[0]
	if err := loaded.AddSynonym(first.ID, "en", "wobbly bracket"); err != nil {
		log.Fatal(err)
	}
	if err := loaded.Rename(first.ID, first.Path+"/Renamed"); err != nil {
		log.Fatal(err)
	}
	added := loaded.ExpandSynonyms()
	fmt.Printf("editor: added 1 synonym + 1 rename; synonym expansion generated %d variants\n\n", added)

	// --- annotator ablation: legacy vs trie -------------------------------
	legacy := annotate.NewLegacyAnnotator(tax)
	modern := annotate.NewConceptAnnotator(tax)
	legacyZero, modernZero, legacyMentions, modernMentions := 0, 0, 0, 0
	for _, b := range corpus.Bundles {
		lc, mc := analyze(b, legacy), analyze(b, modern)
		if lc == 0 {
			legacyZero++
		}
		if mc == 0 {
			modernZero++
		}
		legacyMentions += lc
		modernMentions += mc
	}
	n := len(corpus.Bundles)
	fmt.Println("annotator coverage on the messy corpus (cf. §4.5.3):")
	fmt.Printf("  legacy (single-word, case-sensitive, German-only): %4d mentions, %d/%d bundles with none\n",
		legacyMentions, legacyZero, n)
	fmt.Printf("  trie   (multiword, multilingual, synonym-rich):    %4d mentions, %d/%d bundles with none\n",
		modernMentions, modernZero, n)
}

// analyze runs tokenizer + the given annotator and counts concept mentions.
func analyze(b *bundle.Bundle, engine interface{ Process(*cas.CAS) error }) int {
	c := b.CAS()
	if err := (textproc.Tokenizer{}).Process(c); err != nil {
		log.Fatal(err)
	}
	if err := engine.Process(c); err != nil {
		log.Fatal(err)
	}
	return len(c.Concepts())
}
