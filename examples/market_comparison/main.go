// Market comparison: the §5.4 use-case extension. The internal knowledge
// base classifies complaints from a public source (an ODI-style consumer
// complaints corpus covering several makes) into the OEM's own error-code
// schema, and the error distributions of both sources are contrasted —
// the business-intelligence view behind Fig. 14.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/bundle"
	"repro/internal/compare"
	"repro/internal/datagen"
	"repro/internal/kb"
	"repro/internal/nhtsa"
	"repro/internal/qatk"
)

func main() {
	cfg := datagen.SmallConfig()
	cfg.Seed = 21
	corpus, err := datagen.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	internalBundles := bundle.FilterMultiOccurrence(corpus.Bundles)

	// Bag-of-concepts is the right model across sources: it is "in
	// principle independent of the document language or other text
	// features" (§5.4), and ODI complaints are a very different text type.
	tk := qatk.New(corpus.Taxonomy, qatk.WithModel(kb.BagOfConcepts))
	store, err := tk.Train(internalBundles)
	if err != nil {
		log.Fatal(err)
	}

	complaints := nhtsa.Generate(nhtsa.GenerateConfig{Seed: 22, Complaints: 600, ZipfS: 1.1}, corpus)
	fmt.Printf("classifying %d public complaints covering makes %v\n\n",
		len(complaints), nhtsa.MakesIn(complaints))

	clf := compare.NewClassifier(store, tk)
	public, err := clf.ComplaintDistribution(complaints)
	if err != nil {
		log.Fatal(err)
	}
	internal := compare.InternalDistribution(internalBundles)

	compare.PrintSideBySide(os.Stdout, internal, public, 5)
	fmt.Printf("\ncodes shared between the two top-10 lists: %d\n", compare.HeadOverlap(internal, public, 10))
	fmt.Println("\ninterpretation: codes over-represented in the public source relative to")
	fmt.Println("the internal data hint at brand-specific weaknesses or shared-supplier")
	fmt.Println("issues worth investigating (§5.4).")
}
