// Package generalize implements label generalization and specialization
// (Gen / Spec, Sec. 2 and Sec. 3.1): a generalization configuration C maps
// labels to direct supertypes from the ontology graph, Gen(G, C) rewrites
// vertex labels simultaneously, and Spec reverses the rewrite during answer
// generation. The package also provides the semantic-distortion measure of
// the index cost model (Sec. 3.2).
package generalize

import (
	"errors"
	"fmt"
	"slices"

	"bigindex/internal/graph"
	"bigindex/internal/ontology"
)

// ErrNotSupertype is returned by Validate for a mapping ℓ→ℓ′ where ℓ′ is not
// a direct supertype of ℓ in the ontology.
var ErrNotSupertype = errors.New("generalize: mapping target is not a direct supertype")

// Config is a generalization configuration C = {(ℓ1→ℓ1′), …, (ℓm→ℓm′)}.
// Labels outside the domain map to themselves (the ℓ = ℓ′ case of the
// paper's definition). A Config is immutable after construction.
type Config struct {
	fwd map[graph.Label]graph.Label   // ℓ -> ℓ′
	inv map[graph.Label][]graph.Label // ℓ′ -> {ℓ | (ℓ→ℓ′) ∈ C}, sorted
}

// Mapping is one (From → To) entry of a configuration.
type Mapping struct {
	From, To graph.Label
}

// NewConfig builds a configuration from mappings. Identity mappings are
// dropped. It returns an error if two mappings disagree on the same source
// label (a configuration is a function on Σ).
func NewConfig(mappings []Mapping) (*Config, error) {
	c := &Config{
		fwd: make(map[graph.Label]graph.Label, len(mappings)),
		inv: make(map[graph.Label][]graph.Label),
	}
	for _, m := range mappings {
		if m.From == m.To {
			continue
		}
		if prev, ok := c.fwd[m.From]; ok {
			if prev != m.To {
				return nil, fmt.Errorf("generalize: conflicting mappings for label %d (%d vs %d)", m.From, prev, m.To)
			}
			continue
		}
		c.fwd[m.From] = m.To
		c.inv[m.To] = insertSorted(c.inv[m.To], m.From)
	}
	return c, nil
}

// MustConfig is NewConfig that panics on error; for literals in tests.
func MustConfig(mappings []Mapping) *Config {
	c, err := NewConfig(mappings)
	if err != nil {
		panic(err)
	}
	return c
}

// EmptyConfig returns the identity configuration.
func EmptyConfig() *Config { return MustConfig(nil) }

func insertSorted(s []graph.Label, l graph.Label) []graph.Label {
	i, _ := slices.BinarySearch(s, l)
	if i < len(s) && s[i] == l {
		return s
	}
	return slices.Insert(s, i, l)
}

// Len reports the number of non-identity mappings, |C|.
func (c *Config) Len() int { return len(c.fwd) }

// Map returns Gen(ℓ): ℓ′ if (ℓ→ℓ′) ∈ C, otherwise ℓ itself.
func (c *Config) Map(l graph.Label) graph.Label {
	if to, ok := c.fwd[l]; ok {
		return to
	}
	return l
}

// InDomain reports whether C generalizes l.
func (c *Config) InDomain(l graph.Label) bool {
	_, ok := c.fwd[l]
	return ok
}

// Touches reports whether C generalizes a label that occurs on g's
// vertices. It allocates nothing: each mapped label is looked up in g's
// posting lists.
func (c *Config) Touches(g *graph.Graph) bool {
	for l := range c.fwd {
		if g.LabelCount(l) > 0 {
			return true
		}
	}
	return false
}

// Domain returns X = {ℓ | (ℓ→ℓ′) ∈ C}, ascending.
func (c *Config) Domain() []graph.Label {
	d := make([]graph.Label, 0, len(c.fwd))
	for l := range c.fwd {
		d = append(d, l)
	}
	slices.Sort(d)
	return d
}

// Image returns Y = {ℓ′ | (ℓ→ℓ′) ∈ C}, ascending.
func (c *Config) Image() []graph.Label {
	im := make([]graph.Label, 0, len(c.inv))
	for l := range c.inv {
		im = append(im, l)
	}
	slices.Sort(im)
	return im
}

// Preimage returns {ℓ | (ℓ→ℓ′) ∈ C} for ℓ′ = to (sorted, shared slice).
// During specialization a generalized label ℓ′ specializes to Preimage(ℓ′),
// plus ℓ′ itself when some vertex carried ℓ′ natively.
func (c *Config) Preimage(to graph.Label) []graph.Label { return c.inv[to] }

// Mappings returns the non-identity mappings sorted by source label.
func (c *Config) Mappings() []Mapping {
	ms := make([]Mapping, 0, len(c.fwd))
	for from, to := range c.fwd {
		ms = append(ms, Mapping{from, to})
	}
	slices.SortFunc(ms, func(a, b Mapping) int { return int(a.From) - int(b.From) })
	return ms
}

// Extend returns a new configuration with one extra mapping. It errors on a
// conflicting source.
func (c *Config) Extend(m Mapping) (*Config, error) {
	return NewConfig(append(c.Mappings(), m))
}

// Validate checks the paper's configuration constraint (Sec. 2): every
// mapping target must be a *direct* supertype of its source in ont.
func (c *Config) Validate(ont *ontology.Ontology) error {
	for from, to := range c.fwd {
		if !ont.IsDirectSupertype(to, from) {
			fn, _ := ont.Dict().NameOK(from)
			tn, _ := ont.Dict().NameOK(to)
			return fmt.Errorf("%w: %q (%d) -> %q (%d)", ErrNotSupertype, fn, from, tn, to)
		}
	}
	return nil
}

// Apply computes Gen(G, C): the generalized graph with identical topology
// and simultaneously rewritten labels. The result shares adjacency storage
// with g (labels are the only copy).
func (c *Config) Apply(g *graph.Graph) *graph.Graph {
	if len(c.fwd) == 0 {
		return g
	}
	return g.Relabel(c.Map)
}

// GenQuery generalizes query keywords: Gen(Q, C) of Sec. 4.1.
func (c *Config) GenQuery(q []graph.Label) []graph.Label {
	out := make([]graph.Label, len(q))
	for i, l := range q {
		out[i] = c.Map(l)
	}
	return out
}

// IsLabelPreserving verifies Def. 2.2 against a concrete pair (G, Gen(G,C)):
// for every vertex the generalized label is either mapped by C from the
// original or equal to it. Gen by construction satisfies this; the check
// exists for property tests and for validating externally supplied layers.
func (c *Config) IsLabelPreserving(orig, gen *graph.Graph) bool {
	if orig.NumVertices() != gen.NumVertices() {
		return false
	}
	for v := 0; v < orig.NumVertices(); v++ {
		lo, lg := orig.Label(graph.V(v)), gen.Label(graph.V(v))
		if lg != c.Map(lo) {
			return false
		}
	}
	return true
}

// Sequence is the configuration list C = [C¹, …, Cʰ] of a BiG-index
// (Def. 3.1). Gen^m composes the first m configurations.
type Sequence []*Config

// GenLabel generalizes l through the first m configurations:
// Gen^m(l) = C^m(…C²(C¹(l))…).
func (s Sequence) GenLabel(l graph.Label, m int) graph.Label {
	for i := 0; i < m && i < len(s); i++ {
		l = s[i].Map(l)
	}
	return l
}

// GenQuery generalizes all keywords to layer m (Gen^m(Q, C^m), Sec. 4.1).
func (s Sequence) GenQuery(q []graph.Label, m int) []graph.Label {
	out := make([]graph.Label, len(q))
	for i, l := range q {
		out[i] = s.GenLabel(l, m)
	}
	return out
}

// DistinctAtLayer reports |Gen^m(Q, C^m)| treating the result as a set: the
// quantity of Condition 1 in Def. 4.1 (a legal query layer must not merge
// two query keywords into one).
func (s Sequence) DistinctAtLayer(q []graph.Label, m int) int {
	seen := make(map[graph.Label]bool, len(q))
	for _, l := range q {
		seen[s.GenLabel(l, m)] = true
	}
	return len(seen)
}
