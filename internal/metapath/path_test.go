package metapath

import (
	"errors"
	"testing"

	"hetesim/internal/hin"
)

// acmSchema mirrors Fig. 3(a): papers, authors, affiliations, terms,
// subjects, venues, conferences.
func acmSchema(t *testing.T) *hin.Schema {
	t.Helper()
	s := hin.NewSchema()
	s.MustAddType("author", 'A')
	s.MustAddType("paper", 'P')
	s.MustAddType("affiliation", 'F')
	s.MustAddType("term", 'T')
	s.MustAddType("subject", 'S')
	s.MustAddType("venue", 'V')
	s.MustAddType("conference", 'C')
	s.MustAddRelation("writes", "author", "paper")
	s.MustAddRelation("affiliated_with", "author", "affiliation")
	s.MustAddRelation("mentions", "paper", "term")
	s.MustAddRelation("about", "paper", "subject")
	s.MustAddRelation("published_in", "paper", "venue")
	s.MustAddRelation("part_of", "venue", "conference")
	return s
}

func TestParseCompact(t *testing.T) {
	s := acmSchema(t)
	p, err := Parse(s, "APVC")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
	wantTypes := []string{"author", "paper", "venue", "conference"}
	for i, ty := range p.Types() {
		if ty != wantTypes[i] {
			t.Errorf("type %d = %q, want %q", i, ty, wantTypes[i])
		}
	}
	if p.Source() != "author" || p.Target() != "conference" {
		t.Errorf("endpoints = %q..%q", p.Source(), p.Target())
	}
	// All three steps run with the schema direction (no inverses).
	for i, st := range p.Steps() {
		if st.Inverse {
			t.Errorf("step %d unexpectedly inverse", i)
		}
	}
}

func TestParseCompactWithInverseSteps(t *testing.T) {
	s := acmSchema(t)
	p, err := Parse(s, "CVPA")
	if err != nil {
		t.Fatal(err)
	}
	// conference->venue walks part_of backwards, etc.
	for i, st := range p.Steps() {
		if !st.Inverse {
			t.Errorf("step %d should be inverse", i)
		}
	}
	if p.Step(0).From() != "conference" || p.Step(0).To() != "venue" {
		t.Errorf("step 0 = %q->%q", p.Step(0).From(), p.Step(0).To())
	}
}

func TestParseVerboseAndQualified(t *testing.T) {
	s := acmSchema(t)
	p, err := Parse(s, "author > paper > venue")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || p.Target() != "venue" {
		t.Errorf("verbose parse wrong: %v", p)
	}
	// Ambiguity requires a qualifier.
	s.MustAddRelation("reviews", "author", "paper")
	if _, err := Parse(s, "AP"); !errors.Is(err, hin.ErrAmbiguous) {
		t.Errorf("ambiguous parse err = %v", err)
	}
	q, err := Parse(s, "author[reviews]>paper")
	if err != nil {
		t.Fatal(err)
	}
	if q.Step(0).Relation.Name != "reviews" {
		t.Errorf("qualified relation = %q", q.Step(0).Relation.Name)
	}
	// Qualified in inverse direction.
	r, err := Parse(s, "paper[reviews]>author")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Step(0).Inverse {
		t.Error("expected inverse step")
	}
}

func TestParseErrors(t *testing.T) {
	s := acmSchema(t)
	cases := []struct {
		spec string
		want error
	}{
		{"", ErrEmptyPath},
		{"A", ErrEmptyPath},
		{"author", hin.ErrUnknownType}, // no '>': read as compact abbreviations
		{"AX", hin.ErrUnknownType},
		{"AC", hin.ErrUnknownRelation},
		{"author>movie", hin.ErrUnknownType},
		{"author[nope]>paper", hin.ErrUnknownRelation},
		{"author[mentions]>paper", ErrBadSyntax},
		{"author[writes>paper", ErrBadSyntax},
		{"author>>paper", ErrBadSyntax},
	}
	for _, c := range cases {
		if _, err := Parse(s, c.spec); !errors.Is(err, c.want) {
			t.Errorf("Parse(%q) err = %v, want %v", c.spec, err, c.want)
		}
	}
}

func TestReverse(t *testing.T) {
	s := acmSchema(t)
	p := MustParse(s, "APVC")
	r := p.Reverse()
	if r.Source() != "conference" || r.Target() != "author" {
		t.Errorf("reverse endpoints = %q..%q", r.Source(), r.Target())
	}
	if !r.Equal(MustParse(s, "CVPA")) {
		t.Error("Reverse(APVC) != CVPA")
	}
	if !p.Reverse().Reverse().Equal(p) {
		t.Error("double reverse changed path")
	}
}

func TestIsSymmetric(t *testing.T) {
	s := acmSchema(t)
	for spec, want := range map[string]bool{
		"APA":     true,
		"APVCVPA": true,
		"APVC":    false,
		"APTPA":   true,
		"APVCV":   false,
		"AP":      false,
	} {
		if got := MustParse(s, spec).IsSymmetric(); got != want {
			t.Errorf("IsSymmetric(%s) = %v, want %v", spec, got, want)
		}
	}
}

func TestConcat(t *testing.T) {
	s := acmSchema(t)
	ap := MustParse(s, "AP")
	pv := MustParse(s, "PVC")
	got, err := ap.Concat(pv)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(MustParse(s, "APVC")) {
		t.Errorf("Concat = %v", got)
	}
	if _, err := pv.Concat(ap); !errors.Is(err, ErrNotChained) {
		t.Errorf("bad concat err = %v", err)
	}
}

func TestDecomposeEvenPath(t *testing.T) {
	s := acmSchema(t)
	p := MustParse(s, "APVCVPA") // length 6, meets at conference
	d := p.Decompose()
	if d.Middle != nil {
		t.Fatal("even path should have nil Middle")
	}
	if len(d.Left) != 3 || len(d.Right) != 3 {
		t.Fatalf("halves = %d,%d, want 3,3", len(d.Left), len(d.Right))
	}
	if d.Left[2].To() != "conference" || d.Right[0].From() != "conference" {
		t.Error("halves do not meet at conference")
	}
}

func TestDecomposeOddPath(t *testing.T) {
	s := acmSchema(t)
	p := MustParse(s, "APVC") // length 3, middle atomic relation is PV
	d := p.Decompose()
	if d.Middle == nil {
		t.Fatal("odd path must expose its middle atomic relation")
	}
	if d.Middle.Relation.Name != "published_in" || d.Middle.Inverse {
		t.Errorf("middle = %v", d.Middle)
	}
	if len(d.Left) != 1 || len(d.Right) != 1 {
		t.Fatalf("halves = %d,%d, want 1,1", len(d.Left), len(d.Right))
	}
	// Length-1 path: both halves empty, middle is the single step
	// (Definition 7, HeteSim on an atomic relation).
	d = MustParse(s, "AP").Decompose()
	if d.Middle == nil || len(d.Left) != 0 || len(d.Right) != 0 {
		t.Errorf("length-1 decomposition = %+v", d)
	}
	// The APSPVC example from the paper: meets at SP (step index 2).
	d = MustParse(s, "APSPVC").Decompose()
	if d.Middle == nil || d.Middle.Relation.Name != "about" || !d.Middle.Inverse {
		t.Errorf("APSPVC middle = %+v, want inverse of about (S->P)", d.Middle)
	}
}

func TestStringRoundTrip(t *testing.T) {
	s := acmSchema(t)
	for _, spec := range []string{"APVC", "CVPA", "APVCVPA", "APTPA", "AP"} {
		p := MustParse(s, spec)
		if got := p.String(); got != spec {
			t.Errorf("String = %q, want %q", got, spec)
		}
	}
	// With an ambiguous pair the string must fall back to verbose form
	// that re-parses to the same path.
	s.MustAddRelation("reviews", "author", "paper")
	p := MustParse(s, "author[reviews]>paper>venue")
	got := p.String()
	q, err := Parse(s, got)
	if err != nil {
		t.Fatalf("verbose String %q does not re-parse: %v", got, err)
	}
	if !q.Equal(p) {
		t.Errorf("verbose round trip changed path: %q", got)
	}
}

func TestNewValidatesChaining(t *testing.T) {
	s := acmSchema(t)
	writes, _ := s.RelationByName("writes")
	pub, _ := s.RelationByName("published_in")
	if _, err := New(s, nil); !errors.Is(err, ErrEmptyPath) {
		t.Errorf("empty New err = %v", err)
	}
	// writes: author->paper then published_in: paper->venue chains.
	if _, err := New(s, []Step{{Relation: writes}, {Relation: pub}}); err != nil {
		t.Errorf("valid chain err = %v", err)
	}
	// writes followed by writes does not chain (paper vs author).
	if _, err := New(s, []Step{{Relation: writes}, {Relation: writes}}); !errors.Is(err, ErrNotChained) {
		t.Errorf("broken chain err = %v", err)
	}
}

func TestStepAccessors(t *testing.T) {
	s := acmSchema(t)
	writes, _ := s.RelationByName("writes")
	st := Step{Relation: writes}
	if st.From() != "author" || st.To() != "paper" {
		t.Errorf("forward step = %q->%q", st.From(), st.To())
	}
	rev := st.Reversed()
	if rev.From() != "paper" || rev.To() != "author" || !rev.Inverse {
		t.Errorf("reversed step = %+v", rev)
	}
}

// TestStringRendersOnce pins String as a stored value: the router's routing
// key and every batch slot call it per request, so after the first call it
// must neither re-parse the path nor allocate.
func TestStringRendersOnce(t *testing.T) {
	s := acmSchema(t)
	for _, spec := range []string{"APVCVPA", "author[writes]>paper"} {
		p := MustParse(s, spec)
		first := p.String()
		if allocs := testing.AllocsPerRun(100, func() {
			if p.String() != first {
				t.Fatalf("String changed between calls on %q", spec)
			}
		}); allocs != 0 {
			t.Errorf("String on %q: %v allocs per call after the first, want 0", spec, allocs)
		}
		if r := p.Reverse(); r.Reverse().String() != first {
			t.Errorf("reverse of reverse renders %q, want %q", r.Reverse(), first)
		}
	}
}

// TestCompactAgreesWithReparse holds the step-by-step round-trip check of
// compact() to its definition — "Parse reads the abbreviations back as this
// exact path" — over every enumerated path of a schema with an ambiguous
// type pair (two relations author↔paper), a self-relation and a type
// without an abbreviation.
func TestCompactAgreesWithReparse(t *testing.T) {
	s := acmSchema(t)
	s.MustAddRelation("reviews", "author", "paper")
	s.MustAddRelation("cites", "paper", "paper")
	s.MustAddType("grant", 0)
	s.MustAddRelation("funds", "grant", "paper")
	checked, compacted := 0, 0
	for _, from := range []string{"author", "paper", "grant", "conference"} {
		for _, to := range []string{"author", "paper", "grant", "venue"} {
			paths, err := Enumerate(s, from, to, 4, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range paths {
				got, ok := p.compact()
				q, err := Parse(s, got)
				if want := got != "" && err == nil && q.Equal(p); ok != want {
					t.Fatalf("compact() of %v = %q, %v; re-parse says %v (%v)", p.steps, got, ok, want, err)
				}
				selfLoop := false // verbose notation cannot say "cites, backwards"; not String's doing
				for _, st := range p.steps {
					selfLoop = selfLoop || st.From() == st.To()
				}
				if r, err := Parse(s, p.String()); !selfLoop && (err != nil || !r.Equal(p)) {
					t.Fatalf("String %q does not re-parse to its path: %v", p, err)
				}
				checked++
				if ok {
					compacted++
				}
			}
		}
	}
	if checked < 100 || compacted == 0 || compacted == checked {
		t.Fatalf("checked %d paths, %d compact: the fixture does not exercise both renderings", checked, compacted)
	}
}
