// Package metapath implements relevance paths (Definition 2 of the paper):
// meta paths over a network schema, written A1 → A2 → ... → Al+1, that
// constrain which walks a relevance measure follows. It provides parsing
// from compact ("APVC") and verbose ("author>paper>venue>conference")
// notation, path reversal and symmetry testing, concatenation, and the
// decomposition of Definition 5 that splits an arbitrary path into two
// equal-length halves — flagging, for odd-length paths, the middle atomic
// relation that must itself be decomposed through edge objects
// (Definition 6).
package metapath

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"

	"hetesim/internal/hin"
)

// Common errors returned by path construction and parsing.
var (
	ErrEmptyPath  = errors.New("metapath: path needs at least two types")
	ErrBadSyntax  = errors.New("metapath: malformed path expression")
	ErrNotChained = errors.New("metapath: paths are not concatenable")
)

// Step is one relation traversal in a relevance path. When Inverse is set
// the step walks the relation backwards (R^-1), i.e. from Relation.Target to
// Relation.Source.
type Step struct {
	Relation hin.Relation
	Inverse  bool
}

// From returns the type the step departs from.
func (s Step) From() string {
	if s.Inverse {
		return s.Relation.Target
	}
	return s.Relation.Source
}

// To returns the type the step arrives at.
func (s Step) To() string {
	if s.Inverse {
		return s.Relation.Source
	}
	return s.Relation.Target
}

// Reversed returns the step traversed in the opposite direction.
func (s Step) Reversed() Step { return Step{Relation: s.Relation, Inverse: !s.Inverse} }

// Path is an immutable relevance path: a chain of steps whose endpoint types
// agree. The zero value is invalid; construct paths with New or Parse.
type Path struct {
	schema *hin.Schema
	steps  []Step

	render sync.Once // String's result: a path never changes, so it is rendered once
	str    string
}

// New builds a path from explicit steps, validating chaining. At least one
// step is required.
func New(schema *hin.Schema, steps []Step) (*Path, error) {
	if len(steps) == 0 {
		return nil, ErrEmptyPath
	}
	for i := 1; i < len(steps); i++ {
		if steps[i-1].To() != steps[i].From() {
			return nil, fmt.Errorf("%w: step %d arrives at %q but step %d departs from %q",
				ErrNotChained, i-1, steps[i-1].To(), i, steps[i].From())
		}
	}
	return &Path{schema: schema, steps: append([]Step(nil), steps...)}, nil
}

// Parse builds a path from a textual specification against a schema. Two
// notations are accepted:
//
//   - Compact: a string of type abbreviations, e.g. "APVC" (Fig. 3 of the
//     paper). Each adjacent pair must be connected by exactly one schema
//     relation (in either direction).
//   - Verbose: type names separated by '>', e.g.
//     "author>paper>venue>conference". A type may carry an explicit
//     relation for its outgoing step when several relations connect a pair:
//     "author[writes]>paper".
//
// The direction of each schema relation is resolved automatically: if the
// relation runs against the walk, the step traverses its inverse R^-1.
func Parse(schema *hin.Schema, spec string) (*Path, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, ErrEmptyPath
	}
	var typeNames []string
	var relNames []string // relNames[i] qualifies step i, "" = resolve
	if strings.Contains(spec, ">") {
		parts := strings.Split(spec, ">")
		for _, part := range parts {
			part = strings.TrimSpace(part)
			rel := ""
			if i := strings.IndexByte(part, '['); i >= 0 {
				if !strings.HasSuffix(part, "]") {
					return nil, fmt.Errorf("%w: unterminated relation qualifier in %q", ErrBadSyntax, part)
				}
				rel = part[i+1 : len(part)-1]
				part = strings.TrimSpace(part[:i])
			}
			if part == "" {
				return nil, fmt.Errorf("%w: empty type name in %q", ErrBadSyntax, spec)
			}
			typeNames = append(typeNames, part)
			relNames = append(relNames, rel)
		}
	} else {
		for i := 0; i < len(spec); i++ {
			name, err := schema.TypeByAbbrev(spec[i])
			if err != nil {
				return nil, fmt.Errorf("metapath: parsing %q: %w", spec, err)
			}
			typeNames = append(typeNames, name)
			relNames = append(relNames, "")
		}
	}
	if len(typeNames) < 2 {
		return nil, ErrEmptyPath
	}
	steps := make([]Step, 0, len(typeNames)-1)
	for i := 0; i+1 < len(typeNames); i++ {
		from, to := typeNames[i], typeNames[i+1]
		if !schema.HasType(from) {
			return nil, fmt.Errorf("metapath: %w: %q", hin.ErrUnknownType, from)
		}
		if !schema.HasType(to) {
			return nil, fmt.Errorf("metapath: %w: %q", hin.ErrUnknownType, to)
		}
		var st Step
		if relNames[i] != "" {
			rel, err := schema.RelationByName(relNames[i])
			if err != nil {
				return nil, fmt.Errorf("metapath: parsing %q: %w", spec, err)
			}
			switch {
			case rel.Source == from && rel.Target == to:
				st = Step{Relation: rel}
			case rel.Target == from && rel.Source == to:
				st = Step{Relation: rel, Inverse: true}
			default:
				return nil, fmt.Errorf("%w: relation %q does not connect %q and %q",
					ErrBadSyntax, rel.Name, from, to)
			}
		} else {
			rel, inv, err := schema.RelationBetween(from, to)
			if err != nil {
				return nil, fmt.Errorf("metapath: parsing %q: %w", spec, err)
			}
			st = Step{Relation: rel, Inverse: inv}
		}
		steps = append(steps, st)
	}
	return New(schema, steps)
}

// MustParse is Parse but panics on error; for statically known paths.
func MustParse(schema *hin.Schema, spec string) *Path {
	p, err := Parse(schema, spec)
	if err != nil {
		panic(err)
	}
	return p
}

// Schema returns the schema the path is defined on.
func (p *Path) Schema() *hin.Schema { return p.schema }

// Len returns the path length l: the number of relations.
func (p *Path) Len() int { return len(p.steps) }

// Steps returns a copy of the path's steps.
func (p *Path) Steps() []Step { return append([]Step(nil), p.steps...) }

// Step returns the i-th step.
func (p *Path) Step(i int) Step { return p.steps[i] }

// Types returns the l+1 type names visited by the path.
func (p *Path) Types() []string {
	ts := make([]string, 0, len(p.steps)+1)
	ts = append(ts, p.steps[0].From())
	for _, s := range p.steps {
		ts = append(ts, s.To())
	}
	return ts
}

// Source returns the type the path starts from (A1).
func (p *Path) Source() string { return p.steps[0].From() }

// Target returns the type the path ends at (Al+1).
func (p *Path) Target() string { return p.steps[len(p.steps)-1].To() }

// Reverse returns the reverse path P^-1, which defines the inverse of the
// composite relation defined by P.
func (p *Path) Reverse() *Path {
	rs := make([]Step, len(p.steps))
	for i, s := range p.steps {
		rs[len(p.steps)-1-i] = s.Reversed()
	}
	return &Path{schema: p.schema, steps: rs}
}

// Equal reports whether two paths traverse the same relations in the same
// directions.
func (p *Path) Equal(q *Path) bool {
	if len(p.steps) != len(q.steps) {
		return false
	}
	for i := range p.steps {
		if p.steps[i].Relation.Name != q.steps[i].Relation.Name ||
			p.steps[i].Inverse != q.steps[i].Inverse {
			return false
		}
	}
	return true
}

// IsSymmetric reports whether P equals its reverse P^-1 (e.g. APA, APCPA).
// Only symmetric paths guarantee HeteSim(a, a|P) = 1.
func (p *Path) IsSymmetric() bool { return p.Equal(p.Reverse()) }

// Concat returns the concatenated path (P Q), defined when P's target type
// equals Q's source type (Definition 2's concatenability).
func (p *Path) Concat(q *Path) (*Path, error) {
	if p.Target() != q.Source() {
		return nil, fmt.Errorf("%w: %q ends at %q but %q starts at %q",
			ErrNotChained, p, p.Target(), q, q.Source())
	}
	return New(p.schema, append(p.Steps(), q.Steps()...))
}

// Decomposition is the result of splitting a path per Definition 5 into two
// equal-length halves P = PL · PR meeting at a middle type.
//
// For even-length paths Middle is nil: Left and Right are the two halves and
// the meeting type is Left's target. For odd-length paths the walkers meet
// inside the middle atomic relation; Middle is that step, which must itself
// be decomposed through an edge-object type E (Definition 6): Left is the
// prefix before the middle step, Right the suffix after it, and the meeting
// type is E.
type Decomposition struct {
	Left   []Step
	Middle *Step
	Right  []Step
}

// Decompose splits the path per Definition 5.
func (p *Path) Decompose() Decomposition {
	l := len(p.steps)
	if l%2 == 0 {
		return Decomposition{
			Left:  append([]Step(nil), p.steps[:l/2]...),
			Right: append([]Step(nil), p.steps[l/2:]...),
		}
	}
	mid := (l - 1) / 2
	m := p.steps[mid]
	return Decomposition{
		Left:   append([]Step(nil), p.steps[:mid]...),
		Middle: &m,
		Right:  append([]Step(nil), p.steps[mid+1:]...),
	}
}

// String renders the path compactly when every visited type has an
// abbreviation and no step needed an explicit relation qualifier to be
// unambiguous; otherwise it falls back to verbose notation with relation
// qualifiers on every step.
func (p *Path) String() string {
	p.render.Do(func() { p.str = p.format() })
	return p.str
}

func (p *Path) format() string {
	if c, ok := p.compact(); ok {
		return c
	}
	var b strings.Builder
	for i, s := range p.steps {
		if i == 0 {
			b.WriteString(s.From())
		}
		fmt.Fprintf(&b, "[%s]>%s", s.Relation.Name, s.To())
	}
	return b.String()
}

// compact renders the path as type abbreviations and reports whether Parse
// would read that string back as this exact path: every visited type has an
// abbreviation and every step is the one relation connecting its two types,
// in the direction Parse resolves — checked step by step, not by re-parsing.
func (p *Path) compact() (string, bool) {
	types := p.schema.Types()
	abbrev := func(name string) byte {
		for _, nt := range types {
			if nt.Name == name {
				return nt.Abbrev
			}
		}
		return 0
	}
	c := make([]byte, 0, len(p.steps)+1)
	c = append(c, abbrev(p.Source()))
	for _, st := range p.steps {
		rel, inv, err := p.schema.RelationBetween(st.From(), st.To())
		if err != nil || rel.Name != st.Relation.Name || inv != st.Inverse {
			return "", false
		}
		c = append(c, abbrev(st.To()))
	}
	if bytes.IndexByte(c, 0) >= 0 || bytes.IndexByte(c, '>') >= 0 || len(bytes.TrimSpace(c)) != len(c) {
		return "", false // Parse would not read this as compact notation
	}
	return string(c), true
}
