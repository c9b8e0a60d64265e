package nhtsa

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/reldb"
)

func corpus(t testing.TB) *datagen.Corpus {
	t.Helper()
	c, err := datagen.Generate(datagen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateComplaints(t *testing.T) {
	c := corpus(t)
	cfg := GenerateConfig{Seed: 5, Complaints: 200, ZipfS: 1.1}
	complaints := Generate(cfg, c)
	if len(complaints) != 200 {
		t.Fatalf("complaints = %d", len(complaints))
	}
	seen := map[int64]bool{}
	for _, cm := range complaints {
		if seen[cm.ODINumber] {
			t.Fatalf("duplicate ODI number %d", cm.ODINumber)
		}
		seen[cm.ODINumber] = true
		if cm.CDescr == "" || cm.Make == "" || cm.Model == "" {
			t.Fatalf("incomplete complaint %+v", cm)
		}
		// ODI free text is upper-case English.
		if cm.CDescr != strings.ToUpper(cm.CDescr) {
			t.Fatalf("CDESCR not upper-case: %q", cm.CDescr)
		}
		if cm.Year < 2009 || cm.Year > 2016 {
			t.Fatalf("implausible year %d", cm.Year)
		}
	}
	if len(MakesIn(complaints)) < 2 {
		t.Fatal("complaints should cover several makes")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c := corpus(t)
	cfg := GenerateConfig{Seed: 5, Complaints: 50, ZipfS: 1.1}
	a := Generate(cfg, c)
	b := Generate(cfg, c)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("complaint %d differs", i)
		}
	}
}

func TestGenerateNoInternalDetailVocabulary(t *testing.T) {
	c := corpus(t)
	complaints := Generate(GenerateConfig{Seed: 5, Complaints: 100, ZipfS: 1.1}, c)
	details := map[string]bool{}
	for _, spec := range c.Codes {
		for _, w := range spec.DetailWords {
			details[strings.ToUpper(w)] = true
		}
	}
	for _, cm := range complaints {
		for _, w := range strings.Fields(cm.CDescr) {
			if details[w] {
				t.Fatalf("consumer text leaks internal detail word %q", w)
			}
		}
	}
}

func TestFlatFileRoundTrip(t *testing.T) {
	c := corpus(t)
	complaints := Generate(GenerateConfig{Seed: 5, Complaints: 30, ZipfS: 1.1}, c)
	var buf bytes.Buffer
	if err := WriteFlat(&buf, complaints); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlat(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(complaints) {
		t.Fatalf("round trip lost records: %d vs %d", len(got), len(complaints))
	}
	for i := range got {
		if got[i] != complaints[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, got[i], complaints[i])
		}
	}
}

func TestReadFlatErrors(t *testing.T) {
	if _, err := ReadFlat(strings.NewReader("only\tthree\tfields\n")); err == nil {
		t.Error("short record accepted")
	}
	if _, err := ReadFlat(strings.NewReader("x\tA\tB\t2010\tC\tD\n")); err == nil {
		t.Error("bad ODI number accepted")
	}
	if _, err := ReadFlat(strings.NewReader("1\tA\tB\tyear\tC\tD\n")); err == nil {
		t.Error("bad year accepted")
	}
	got, err := ReadFlat(strings.NewReader("\n\n"))
	if err != nil || len(got) != 0 {
		t.Errorf("blank lines: %v, %v", got, err)
	}
	for _, line := range []string{
		"12abc\tA\tB\t2010\tC\tD\n", // trailing text after the ODI number
		"1\tA\tB\t2015x\tC\tD\n",    // trailing text after the year
		"1\tA\r\tB\t2010\tC\tD\n",   // a carriage return inside the line
	} {
		if got, err := ReadFlat(strings.NewReader(line)); err == nil {
			t.Errorf("ReadFlat(%q) = %+v, want an error", line, got)
		}
	}
}

// TestWriteFlatWritesWhatReadFlatReads: every complaint WriteFlat writes
// comes back from ReadFlat, with a tab or line break in the free text read
// as a space, and a complaint whose make, model or component holds one is
// refused before anything is written.
func TestWriteFlatWritesWhatReadFlatReads(t *testing.T) {
	base := Complaint{ODINumber: 10000001, Make: "OEM", Model: "ALPHA", Year: 2012, Component: "P-17", CDescr: "RADIO DEAD"}
	for _, tc := range []struct {
		name, descr, want string
	}{
		{"line feed", "RADIO\nDEAD", "RADIO DEAD"},
		{"CRLF", "RADIO\r\nDEAD", "RADIO  DEAD"},
		{"trailing carriage return", "RADIO DEAD\r", "RADIO DEAD "},
		{"tab", "RADIO\tDEAD", "RADIO DEAD"},
		{"invalid UTF-8", "RADIO \xff DEAD", "RADIO \xff DEAD"},
	} {
		c := base
		c.CDescr = tc.descr
		var buf bytes.Buffer
		if err := WriteFlat(&buf, []Complaint{c, base}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := ReadFlat(&buf)
		if err != nil {
			t.Fatalf("%s: reading back %q: %v", tc.name, buf.String(), err)
		}
		c.CDescr = tc.want
		if len(got) != 2 || got[0] != c || got[1] != base {
			t.Errorf("%s: read back %+v, want [%+v %+v]", tc.name, got, c, base)
		}
	}
	for _, bad := range []Complaint{
		{ODINumber: 1, Make: "O\tEM", Model: "ALPHA", Year: 2012, Component: "P"},
		{ODINumber: 2, Make: "OEM", Model: "AL\nPHA", Year: 2012, Component: "P"},
		{ODINumber: 3, Make: "OEM", Model: "ALPHA", Year: 2012, Component: "P\r"},
	} {
		var buf bytes.Buffer
		if err := WriteFlat(&buf, []Complaint{base, bad}); err == nil || buf.Len() != 0 {
			t.Errorf("WriteFlat(%+v): error %v, wrote %q; want an error and nothing written", bad, err, buf.String())
		}
	}
}

// FuzzReadFlat: no input makes ReadFlat panic, and every complaint list it
// accepts comes back unchanged through WriteFlat and ReadFlat.
func FuzzReadFlat(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadFlat(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFlat(&buf, got); err != nil {
			t.Fatalf("WriteFlat of what ReadFlat accepted: %v\ninput %q", err, data)
		}
		again, err := ReadFlat(&buf)
		if err != nil {
			t.Fatalf("ReadFlat of what WriteFlat wrote (%q): %v", buf.String(), err)
		}
		if !slices.Equal(again, got) {
			t.Fatalf("round trip changed the complaints:\n got %+v\nwant %+v", again, got)
		}
	})
}

func TestRelationalRoundTrip(t *testing.T) {
	c := corpus(t)
	complaints := Generate(GenerateConfig{Seed: 5, Complaints: 25, ZipfS: 1.1}, c)
	db, err := reldb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := CreateTables(db); err != nil {
		t.Fatal(err)
	}
	if err := Store(db, complaints); err != nil {
		t.Fatal(err)
	}
	got, err := LoadAll(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(complaints) {
		t.Fatalf("loaded %d of %d", len(got), len(complaints))
	}
	// LoadAll orders by ODI number; the generator already emits ascending.
	for i := range got {
		if got[i] != complaints[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}
