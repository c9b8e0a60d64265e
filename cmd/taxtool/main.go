// Command taxtool maintains the domain-specific taxonomy (the role of the
// legacy editor GUI in the paper's stack, §4.5.3) and automates its
// extension (§6, [12]):
//
//	taxtool stats   -tax taxonomy.xml
//	taxtool list    -tax taxonomy.xml -kind symptom
//	taxtool add     -tax taxonomy.xml -id 9001 -kind symptom -path Noise/Rattle -lang en -terms "rattle,rattling noise"
//	taxtool synonym -tax taxonomy.xml -id 9001 -lang de -terms klappern
//	taxtool rename  -tax taxonomy.xml -id 9001 -path Noise/Rattling
//	taxtool remove  -tax taxonomy.xml -id 9001
//	taxtool expand  -tax taxonomy.xml
//	taxtool mine    -tax taxonomy.xml -data ./data [-apply]
//
// Mutating commands rewrite the XML file in place.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bundle"
	"repro/internal/reldb"
	"repro/internal/taxext"
	"repro/internal/taxonomy"
)

func main() {
	taxPath := flag.String("tax", "taxonomy.xml", "taxonomy XML file")
	id := flag.Int("id", 0, "concept ID")
	kind := flag.String("kind", "", "concept kind (component|symptom|location|solution)")
	path := flag.String("path", "", "concept path")
	lang := flag.String("lang", "", "language code")
	terms := flag.String("terms", "", "comma-separated synonym terms")
	data := flag.String("data", "data", "data directory (for mine)")
	apply := flag.Bool("apply", false, "apply mined proposals to the taxonomy")
	if len(os.Args) < 2 || strings.HasPrefix(os.Args[1], "-") {
		flag.Usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	if err := flag.CommandLine.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if err := run(cmd, *taxPath, *id, *kind, *path, *lang, *terms, *data, *apply); err != nil {
		fmt.Fprintln(os.Stderr, "taxtool:", err)
		os.Exit(1)
	}
}

func run(cmd, taxPath string, id int, kind, path, lang, terms, data string, apply bool) error {
	tax, err := taxonomy.LoadFile(taxPath)
	if err != nil {
		return err
	}
	save := func() error { return tax.SaveFile(taxPath) }
	splitTerms := func() []string {
		var out []string
		for _, t := range strings.Split(terms, ",") {
			if t = strings.TrimSpace(t); t != "" {
				out = append(out, t)
			}
		}
		return out
	}

	switch cmd {
	case "stats":
		st := tax.ComputeStats()
		fmt.Printf("concepts: %d\n", st.Concepts)
		for _, k := range taxonomy.Kinds() {
			fmt.Printf("  %-10s %d\n", k, st.ByKind[k])
		}
		for _, l := range tax.Languages() {
			fmt.Printf("language %s: %d concepts, %d synonym entries\n",
				l, st.PerLang[l], st.Synonyms[l])
		}
		fmt.Printf("multiword terms: %d\n", st.Multiwords)
		return nil
	case "list":
		concepts := tax.Concepts()
		if kind != "" {
			concepts = tax.ByKind(taxonomy.Kind(kind))
		}
		for _, c := range concepts {
			fmt.Printf("%6d  %-10s %-40s", c.ID, c.Kind, c.Path)
			for _, l := range c.Languages() {
				fmt.Printf("  %s: %s", l, strings.Join(c.Synonyms[l], " | "))
			}
			fmt.Println()
		}
		return nil
	case "add":
		if id == 0 {
			id = tax.MaxID() + 1
		}
		if lang == "" || len(splitTerms()) == 0 {
			return fmt.Errorf("add needs -lang and -terms")
		}
		err := tax.Add(taxonomy.Concept{
			ID: id, Kind: taxonomy.Kind(kind), Path: path,
			Synonyms: map[string][]string{lang: splitTerms()},
		})
		if err != nil {
			return err
		}
		fmt.Printf("added concept %d\n", id)
		return save()
	case "synonym":
		for _, t := range splitTerms() {
			if err := tax.AddSynonym(id, lang, t); err != nil {
				return err
			}
		}
		return save()
	case "rename":
		if err := tax.Rename(id, path); err != nil {
			return err
		}
		return save()
	case "remove":
		if !tax.Remove(id) {
			return fmt.Errorf("no concept %d", id)
		}
		return save()
	case "expand":
		added := tax.ExpandSynonyms()
		fmt.Printf("synonym expansion generated %d variants\n", added)
		return save()
	case "mine":
		db, err := reldb.Open(filepath.Join(data, "db"))
		if err != nil {
			return err
		}
		defer db.Close()
		bundles, err := bundle.LoadAll(db)
		if err != nil {
			return err
		}
		var assigned []*bundle.Bundle
		for _, b := range bundles {
			if b.ErrorCode != "" {
				assigned = append(assigned, b)
			}
		}
		proposals, err := taxext.Mine(tax, bundle.FilterMultiOccurrence(assigned))
		if err != nil {
			return err
		}
		fmt.Printf("%d proposals:\n", len(proposals))
		limit := 30
		if len(proposals) < limit {
			limit = len(proposals)
		}
		for _, p := range proposals[:limit] {
			fmt.Printf("  %-20s -> %-8s support %3d  confidence %.2f\n",
				p.Term, p.ErrorCode, p.Support, p.Confidence)
		}
		if len(proposals) > limit {
			fmt.Printf("  ... and %d more\n", len(proposals)-limit)
		}
		if apply {
			ext, added, err := taxext.Apply(tax, proposals)
			if err != nil {
				return err
			}
			if err := ext.SaveFile(taxPath); err != nil {
				return err
			}
			fmt.Printf("applied: %d new concepts written to %s\n", added, taxPath)
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q (stats | list | add | synonym | rename | remove | expand | mine)", cmd)
	}
}
