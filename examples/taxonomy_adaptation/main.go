// Taxonomy adaptation: the paper's own roadmap, executed (§5.2.2:
// "Adapting the taxonomy thus suggests itself as a next step"; §6:
// "enhancing the domain-specific taxonomy"). The example mines the
// classified warranty bundles for domain terms the legacy taxonomy misses,
// extends the taxonomy with them, and shows how far the industrially
// feasible bag-of-concepts classifier moves toward — and past —
// bag-of-words once the resource fits the task.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/kb"
	"repro/internal/taxext"
)

func main() {
	cfg := datagen.SmallConfig()
	cfg.Bundles = 900
	cfg.Singletons = 70
	cfg.CodesPerPart = []int{44, 32, 22, 15, 11}
	cfg.ArticleCodes = 70
	corpus, err := datagen.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Step 1: see what the miner proposes on the full corpus.
	proposals, err := taxext.Mine(corpus.Taxonomy, corpus.Bundles)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mined %d uncovered domain terms; the strongest:\n", len(proposals))
	for i, p := range proposals {
		if i == 8 {
			break
		}
		fmt.Printf("  %-18s habitual wording of %s (support %d, confidence %.2f)\n",
			p.Term, p.ErrorCode, p.Support, p.Confidence)
	}

	// Step 2: the honest measurement — mining per CV fold from training
	// data only, then classifying the held-out fold with the extended
	// taxonomy.
	e := eval.New(corpus.Taxonomy, corpus.Bundles)
	plain, err := e.Run(eval.Variant{Name: "boc", Model: kb.BagOfConcepts, Sim: core.Jaccard{}})
	if err != nil {
		log.Fatal(err)
	}
	bow, err := e.Run(eval.Variant{Name: "bow", Model: kb.BagOfWords, Sim: core.Jaccard{}})
	if err != nil {
		log.Fatal(err)
	}
	a, err := taxext.NewAdaptation(e.Taxonomy, e.Bundles)
	if err != nil {
		log.Fatal(err)
	}
	adapted, err := e.RunAdapted(eval.Variant{Name: "boc adapted", Model: kb.BagOfConcepts, Sim: core.Jaccard{}}, a.Adapt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n5-fold cross-validated accuracy@1 / @10:\n")
	fmt.Printf("  bag-of-words                     %5.1f%% / %5.1f%%   (accurate but slow, not language-independent)\n",
		100*bow.Accuracy[1], 100*bow.Accuracy[10])
	fmt.Printf("  bag-of-concepts, legacy taxonomy %5.1f%% / %5.1f%%   (fast, but the resource misses task vocabulary)\n",
		100*plain.Accuracy[1], 100*plain.Accuracy[10])
	fmt.Printf("  bag-of-concepts, adapted (+%d)   %5.1f%% / %5.1f%%   (fast AND accurate)\n",
		a.Added(), 100*adapted.Accuracy[1], 100*adapted.Accuracy[10])
}
