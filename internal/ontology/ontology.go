// Package ontology models the ontology graph G_Ont = (V_Ont, E_Ont) of the
// paper (Sec. 2): a directed acyclic graph whose vertices are labels (types)
// and whose edges (ℓ', ℓ) state that ℓ' is a direct supertype of ℓ
// (SubClassOf / SubTypeOf).
//
// The ontology drives label generalization: a configuration maps each label
// to one of its direct supertypes, and stacking configurations layer by
// layer climbs the taxonomy.
package ontology

import (
	"errors"
	"fmt"
	"slices"

	"bigindex/internal/graph"
)

// ErrCycle is returned when adding a supertype edge would create a cycle;
// ontology graphs are DAGs by definition.
var ErrCycle = errors.New("ontology: supertype edge would create a cycle")

// Ontology is a DAG over labels. Labels are interned in the same dictionary
// as the data graph so data labels and ontology types are directly
// comparable.
type Ontology struct {
	dict *graph.Dict
	// supers[l] lists the direct supertypes of l, ascending.
	supers map[graph.Label][]graph.Label
	// subs[l] lists the direct subtypes of l, ascending.
	subs map[graph.Label][]graph.Label
	// depth memoizes Depth (distance to the deepest root above a label).
	depth map[graph.Label]int
}

// New returns an empty ontology over dict. Pass nil to create a fresh
// dictionary (useful in tests).
func New(dict *graph.Dict) *Ontology {
	if dict == nil {
		dict = graph.NewDict()
	}
	return &Ontology{
		dict:   dict,
		supers: make(map[graph.Label][]graph.Label),
		subs:   make(map[graph.Label][]graph.Label),
	}
}

// Dict returns the shared label dictionary.
func (o *Ontology) Dict() *graph.Dict { return o.dict }

// AddType interns name as a type and returns its label. Adding a type that
// already exists is a no-op.
func (o *Ontology) AddType(name string) graph.Label {
	l := o.dict.Intern(name)
	if _, ok := o.supers[l]; !ok {
		o.supers[l] = nil
	}
	if _, ok := o.subs[l]; !ok {
		o.subs[l] = nil
	}
	return l
}

// AddSupertype records that super is a direct supertype of sub
// ((super, sub) ∈ E_Ont). It rejects self-loops and edges that would close
// a cycle; both violate the DAG requirement of Sec. 2.
func (o *Ontology) AddSupertype(sub, super graph.Label) error {
	if sub == super {
		return fmt.Errorf("%w: self-loop on %q", ErrCycle, o.dict.Name(sub))
	}
	// A cycle appears iff sub is already a (transitive) supertype of super.
	if o.IsSupertype(sub, super) {
		return fmt.Errorf("%w: %q is already above %q", ErrCycle,
			o.dict.Name(sub), o.dict.Name(super))
	}
	o.ensure(sub)
	o.ensure(super)
	if !slices.Contains(o.supers[sub], super) {
		o.supers[sub] = insertSorted(o.supers[sub], super)
		o.subs[super] = insertSorted(o.subs[super], sub)
		o.depth = nil // invalidate memo
	}
	return nil
}

// AddSupertypeNames is AddSupertype with string arguments, interning both.
func (o *Ontology) AddSupertypeNames(sub, super string) error {
	return o.AddSupertype(o.AddType(sub), o.AddType(super))
}

func (o *Ontology) ensure(l graph.Label) {
	if _, ok := o.supers[l]; !ok {
		o.supers[l] = nil
	}
	if _, ok := o.subs[l]; !ok {
		o.subs[l] = nil
	}
}

func insertSorted(s []graph.Label, l graph.Label) []graph.Label {
	i, _ := slices.BinarySearch(s, l)
	return slices.Insert(s, i, l)
}

// Has reports whether l is a type known to the ontology.
func (o *Ontology) Has(l graph.Label) bool {
	_, ok := o.supers[l]
	return ok
}

// DirectSupertypes returns the direct supertypes of l (shared slice).
func (o *Ontology) DirectSupertypes(l graph.Label) []graph.Label {
	return o.supers[l]
}

// DirectSubtypes returns the direct subtypes of l (shared slice).
func (o *Ontology) DirectSubtypes(l graph.Label) []graph.Label {
	return o.subs[l]
}

// IsDirectSupertype reports whether (super, sub) ∈ E_Ont.
func (o *Ontology) IsDirectSupertype(super, sub graph.Label) bool {
	_, ok := slices.BinarySearch(o.supers[sub], super)
	return ok
}

// IsSupertype reports whether super is a (transitive, reflexive) supertype
// of sub: every label is a supertype of itself, matching the paper's
// candidate-filtering test "L(v) is a supertype of q" which must accept the
// keyword's own label at layer 0.
func (o *Ontology) IsSupertype(super, sub graph.Label) bool {
	if super == sub {
		return true
	}
	seen := map[graph.Label]bool{sub: true}
	stack := []graph.Label{sub}
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range o.supers[l] {
			if s == super {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// Supertypes returns all transitive supertypes of l, excluding l itself,
// in ascending label order.
func (o *Ontology) Supertypes(l graph.Label) []graph.Label {
	seen := map[graph.Label]bool{}
	stack := []graph.Label{l}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range o.supers[cur] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	out := make([]graph.Label, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// Roots returns the types with no supertype, ascending.
func (o *Ontology) Roots() []graph.Label {
	var rs []graph.Label
	for l, sup := range o.supers {
		if len(sup) == 0 {
			rs = append(rs, l)
		}
	}
	slices.Sort(rs)
	return rs
}

// NumTypes reports |V_Ont|.
func (o *Ontology) NumTypes() int { return len(o.supers) }

// NumEdges reports |E_Ont|.
func (o *Ontology) NumEdges() int {
	n := 0
	for _, s := range o.supers {
		n += len(s)
	}
	return n
}

// Depth returns the length of the longest supertype chain above l (0 for a
// root). The index hierarchy can be at most as deep as the ontology
// (Sec. 1's naive-method discussion), so Depth bounds layer counts.
func (o *Ontology) Depth(l graph.Label) int {
	if o.depth == nil {
		o.depth = make(map[graph.Label]int)
	}
	if d, ok := o.depth[l]; ok {
		return d
	}
	o.depth[l] = 0 // break accidental cycles defensively
	d := 0
	for _, s := range o.supers[l] {
		if sd := o.Depth(s) + 1; sd > d {
			d = sd
		}
	}
	o.depth[l] = d
	return d
}

// Height returns the height of the ontology DAG: the longest chain from any
// type to a root.
func (o *Ontology) Height() int {
	h := 0
	for l := range o.supers {
		if d := o.Depth(l); d > h {
			h = d
		}
	}
	return h
}

// Validate checks the DAG invariant by topological sorting and returns
// ErrCycle if a cycle exists. AddSupertype already prevents cycles; Validate
// guards ontologies assembled by deserialization or generators.
func (o *Ontology) Validate() error {
	indeg := make(map[graph.Label]int, len(o.supers))
	for l := range o.supers {
		indeg[l] = 0
	}
	for _, sups := range o.supers {
		for _, s := range sups {
			indeg[s]++
		}
	}
	var queue []graph.Label
	for l, d := range indeg {
		if d == 0 {
			queue = append(queue, l)
		}
	}
	visited := 0
	for len(queue) > 0 {
		l := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		visited++
		for _, s := range o.supers[l] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if visited != len(o.supers) {
		return ErrCycle
	}
	return nil
}

// RemoveSupertype deletes a direct supertype edge. It is the ontology-update
// case of Sec. 3.2's maintenance discussion: configurations that used the
// removed relationship must be retired by the index (see core.Index
// maintenance).
func (o *Ontology) RemoveSupertype(sub, super graph.Label) {
	o.supers[sub] = removeSorted(o.supers[sub], super)
	o.subs[super] = removeSorted(o.subs[super], sub)
	o.depth = nil
}

func removeSorted(s []graph.Label, l graph.Label) []graph.Label {
	if i, ok := slices.BinarySearch(s, l); ok {
		return slices.Delete(s, i, i+1)
	}
	return s
}
