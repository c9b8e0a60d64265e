// Package nhtsa models the public data source of the use-case extension
// (§5.4): the complaints database of the NHTSA Office of Defects
// Investigation (ODI), available via safercar.gov as tab-separated flat
// files. The environment is offline, so the package also generates an
// ODI-style synthetic complaint corpus: English-only consumer language, a
// different text type from the internal reports, covering vehicles of
// several manufacturers. Complaints are classified through the internal
// knowledge base to compare error distributions across sources.
package nhtsa

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/datagen"
	"repro/internal/reldb"
)

// Complaint is one ODI record (the fields our use case needs; the real
// FLAT_CMPL file has 49 columns, of which these are the relevant subset).
type Complaint struct {
	ODINumber int64
	Make      string
	Model     string
	Year      int
	Component string // ODI component designation
	CDescr    string // consumer complaint free text
}

// Makes used by the synthetic generator: the OEM itself and competitors.
var Makes = []string{"OEM", "RIVALIS", "AUTOVIA", "MOTORWERK"}

var models = []string{"ALPHA", "BETA", "GRANDE", "COMPACT", "SPORT"}

var consumerPhrases = []string{
	"while driving at highway speed", "the contact owns a", "the vehicle was taken to the dealer",
	"the failure occurred without warning", "the manufacturer was notified",
	"the dealer could not duplicate the failure", "the vehicle was repaired",
	"the failure mileage was", "the contact stated that", "no injuries were reported",
}

// GenerateConfig drives the synthetic complaint generator.
type GenerateConfig struct {
	Seed       int64
	Complaints int
	// ZipfS skews which error profiles dominate the public source; it is
	// deliberately different from the internal corpus so the side-by-side
	// distributions differ (Fig. 14).
	ZipfS float64
}

// DefaultGenerateConfig matches the QUEST mockup scale.
func DefaultGenerateConfig() GenerateConfig {
	return GenerateConfig{Seed: 2, Complaints: 2500, ZipfS: 1.1}
}

// Generate synthesizes complaints against the error-code profiles of an
// internal corpus: each complaint is caused by some error code, mentions
// that code's symptoms in consumer English, and never contains the
// internal detail vocabulary (consumers do not know root causes).
func Generate(cfg GenerateConfig, corpus *datagen.Corpus) []Complaint {
	complaints, _ := GenerateLabeled(cfg, corpus)
	return complaints
}

// GenerateLabeled is Generate plus the ground-truth error code underlying
// each complaint — unavailable for the real ODI data, but exactly what the
// cross-source accuracy claim of §5.4 needs to be tested at all.
func GenerateLabeled(cfg GenerateConfig, corpus *datagen.Corpus) ([]Complaint, []string) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	specs := corpus.SortedCodes()
	// Re-rank the codes with a shuffled Zipf so the public distribution
	// differs from the internal one.
	perm := rng.Perm(len(specs))
	weights := make([]float64, len(specs))
	var wsum float64
	for i := range specs {
		weights[i] = 1.0 / math.Pow(float64(perm[i]+1), cfg.ZipfS)
		wsum += weights[i]
	}
	var out []Complaint
	var labels []string
	for i := 0; i < cfg.Complaints; i++ {
		spec := specs[weightedPick(rng, weights, wsum)]
		labels = append(labels, spec.Code)
		var words []string
		words = append(words, strings.Fields(pickStr(rng, consumerPhrases))...)
		for _, s := range spec.Symptoms {
			if c, ok := corpus.Taxonomy.Get(s); ok {
				syns := c.Synonyms["en"]
				if len(syns) > 0 {
					words = append(words, strings.Fields(syns[rng.Intn(len(syns))])...)
				}
			}
		}
		for _, comp := range spec.Components {
			if c, ok := corpus.Taxonomy.Get(comp); ok {
				syns := c.Synonyms["en"]
				if len(syns) > 0 && rng.Float64() < 0.7 {
					words = append(words, strings.Fields(syns[rng.Intn(len(syns))])...)
				}
			}
		}
		words = append(words, strings.Fields(pickStr(rng, consumerPhrases))...)
		out = append(out, Complaint{
			ODINumber: 10000000 + int64(i),
			Make:      pickStr(rng, Makes),
			Model:     pickStr(rng, models),
			Year:      2009 + rng.Intn(7),
			Component: strings.ToUpper(spec.PartID),
			CDescr:    strings.ToUpper(strings.Join(words, " ")),
		})
	}
	return out, labels
}

func weightedPick(rng *rand.Rand, weights []float64, wsum float64) int {
	x := rng.Float64() * wsum
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

func pickStr(rng *rand.Rand, items []string) string { return items[rng.Intn(len(items))] }

// --- flat-file I/O -------------------------------------------------------

// WriteFlat writes complaints in the ODI tab-separated layout subset, one
// line per complaint, so that ReadFlat reads back what it wrote. A tab or
// line break inside the free text becomes a space. The make, model and
// component name things and cannot hold one: WriteFlat then writes
// nothing and returns an error.
func WriteFlat(w io.Writer, complaints []Complaint) error {
	for _, c := range complaints {
		for _, field := range []string{c.Make, c.Model, c.Component} {
			if strings.ContainsAny(field, "\t\r\n") {
				return fmt.Errorf("nhtsa: complaint %d: %q holds a tab or line break", c.ODINumber, field)
			}
		}
	}
	// The replacer works on bytes, so invalid UTF-8 in the text survives.
	flat := strings.NewReplacer("\t", " ", "\r", " ", "\n", " ")
	bw := bufio.NewWriter(w)
	for _, c := range complaints {
		if _, err := fmt.Fprintf(bw, "%d\t%s\t%s\t%d\t%s\t%s\n",
			c.ODINumber, c.Make, c.Model, c.Year, c.Component, flat.Replace(c.CDescr)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFlat parses the tab-separated layout written by WriteFlat. Lines
// end in "\n" or "\r\n"; blank lines are skipped. A carriage return
// inside a line, a record without exactly six fields and a number with
// anything but digits after an optional sign are errors.
func ReadFlat(r io.Reader) ([]Complaint, error) {
	var out []Complaint
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" {
			continue
		}
		if strings.ContainsRune(text, '\r') {
			return nil, fmt.Errorf("nhtsa: line %d: carriage return inside the line", line)
		}
		parts := strings.Split(text, "\t")
		if len(parts) != 6 {
			return nil, fmt.Errorf("nhtsa: line %d: %d fields, want 6", line, len(parts))
		}
		c := Complaint{Make: parts[1], Model: parts[2], Component: parts[4], CDescr: parts[5]}
		var err error
		if c.ODINumber, err = strconv.ParseInt(parts[0], 10, 64); err != nil {
			return nil, fmt.Errorf("nhtsa: line %d: bad ODI number %q", line, parts[0])
		}
		if c.Year, err = strconv.Atoi(parts[3]); err != nil {
			return nil, fmt.Errorf("nhtsa: line %d: bad year %q", line, parts[3])
		}
		out = append(out, c)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// --- relational persistence ----------------------------------------------

// TableComplaints is the reldb table for the imported public source.
const TableComplaints = "odi_complaints"

// CreateTables creates the complaints schema.
func CreateTables(db *reldb.DB) error {
	if err := db.CreateTable(reldb.Schema{
		Name: TableComplaints,
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.TInt},
			{Name: "odi_number", Type: reldb.TInt, NotNull: true},
			{Name: "make", Type: reldb.TString, NotNull: true},
			{Name: "model", Type: reldb.TString, NotNull: true},
			{Name: "year", Type: reldb.TInt, NotNull: true},
			{Name: "component", Type: reldb.TString, NotNull: true},
			{Name: "cdescr", Type: reldb.TString, NotNull: true},
		},
		PrimaryKey: "id",
	}); err != nil {
		return err
	}
	return db.CreateIndex(TableComplaints, "ix_odi_make", false, "make")
}

// Store writes complaints into the database.
func Store(db *reldb.DB, complaints []Complaint) error {
	tx := db.Begin()
	for _, c := range complaints {
		tx.Insert(TableComplaints, reldb.Row{
			nil, c.ODINumber, c.Make, c.Model, int64(c.Year), c.Component, c.CDescr,
		})
	}
	return tx.Commit()
}

// LoadAll reads all complaints, ordered by ODI number.
func LoadAll(db *reldb.DB) ([]Complaint, error) {
	res, err := db.Select(reldb.Query{Table: TableComplaints, OrderBy: "odi_number"})
	if err != nil {
		return nil, err
	}
	out := make([]Complaint, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, Complaint{
			ODINumber: row[1].(int64),
			Make:      row[2].(string),
			Model:     row[3].(string),
			Year:      int(row[4].(int64)),
			Component: row[5].(string),
			CDescr:    row[6].(string),
		})
	}
	return out, nil
}

// MakesIn returns the distinct makes present, sorted.
func MakesIn(complaints []Complaint) []string {
	set := map[string]bool{}
	for _, c := range complaints {
		set[c.Make] = true
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}
