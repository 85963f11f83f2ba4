package core

import (
	"fmt"

	"bigindex/internal/bisim"
	"bigindex/internal/graph"
)

// Refreshed rebuilds the index hierarchy over a new version of the data
// graph while keeping the stored configurations — the data-update
// maintenance strategy of Sec. 3.2: label-to-supertype decisions rarely
// change when edges and vertices do, so only the (cheap) Gen + Bisim
// pipeline reruns, skipping Algorithm 1's configuration search entirely.
// Applied is the same loop told what changed, and the one the server
// runs; Refreshed is the whole-graph reference it is tested against
// (TestAppliedMatchesRefreshed), byte for byte.
//
// The receiver is left untouched, so Refreshed is safe to call while x
// concurrently serves queries. The new index's epoch is x's epoch + 1, so
// epoch-keyed result caches can never answer post-swap traffic from
// pre-swap entries.
//
// The new graph must use the same dictionary as the old one (labels keep
// their meaning). Layers whose configuration no longer generalizes
// anything present in the evolved graph are dropped from the top.
func (x *Index) Refreshed(g *graph.Graph) (*Index, error) {
	if g.Dict() != x.layers[0].Graph.Dict() {
		return nil, fmt.Errorf("core: Refreshed requires the original dictionary")
	}
	n, _, err := x.resummarized(g, nil)
	return n, err
}

// resummarized runs Gen + Bisim with the stored configurations over g,
// layer by layer. With ch nil every layer runs bisim.Compute. Otherwise ch
// describes g against x's data graph, and each layer re-signs only what
// changed (bisim.Update), handing the change in its summary to the layer
// above; a layer where Update gives up runs Compute, and so does every
// layer above it. A layer whose partition comes out unchanged is reused
// as it is, and once a layer's summary is, every layer above it is too.
func (x *Index) resummarized(g *graph.Graph, ch *bisim.Change) (*Index, *DeltaReport, error) {
	layers := []*Layer{{Graph: g}}
	rep := &DeltaReport{}
	top := g
	for i, old := range x.layers[1:] {
		if top == x.layers[i].Graph {
			layers = append(layers, x.layers[i+1:]...)
			break
		}
		cfg := old.Config
		// Skip (and stop at) layers whose configuration touches nothing in
		// the evolved graph: further layers were built on top of them.
		if !cfg.Touches(top) {
			break
		}
		prev := &bisim.Result{Summary: old.Graph, Block: old.Up, Members: old.Down}
		var res *bisim.Result
		if ch != nil {
			r, next, ok := bisim.Update(top, cfg.Map, prev, *ch)
			if ok {
				res, ch = r, &next
			} else {
				ch = nil
				rep.FallbackLayers++
			}
		}
		if res == nil {
			res = bisim.Compute(cfg.Apply(top))
		}
		l := old
		if res != prev {
			l = &Layer{Graph: res.Summary, Config: cfg, Up: res.Block, Down: res.Members}
		}
		if l.Graph != old.Graph {
			rep.RecomputedLayers++
		}
		layers = append(layers, l)
		top = l.Graph
	}
	rep.Absorbed = len(layers) == len(x.layers)
	for i := 1; i < len(layers) && rep.Absorbed; i++ {
		rep.Absorbed = layers[i] == x.layers[i]
	}
	n, err := x.successor(layers)
	return n, rep, err
}

// successor assembles layers into the index that replaces x. It runs the
// snapshot-restore constructor's structural validation (Up/Down
// inversion, dict sharing, config vs ontology) on every layer maintenance
// built, so a maintenance bug becomes an error instead of a silently wrong
// index; layers reused from x over an unchanged base are not re-checked.
// The successor carries x's epoch + 1.
func (x *Index) successor(layers []*Layer) (*Index, error) {
	n, err := assemble(x.ont, layers, x.layers)
	if err != nil {
		return nil, fmt.Errorf("core: maintenance produced an invalid hierarchy: %w", err)
	}
	n.RestoreEpoch(x.epoch.Load() + 1)
	return n, nil
}
