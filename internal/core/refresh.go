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
// It is the one maintenance loop: hot reload calls it directly, and
// Applied calls it for every delta it cannot absorb.
//
// The receiver is left untouched, so Refreshed is safe to call while x
// concurrently serves queries: the caller swaps the returned index in
// atomically once it is complete (the server's hot reload). The new
// index's epoch is x's epoch + 1, so epoch-keyed result caches can never
// answer post-swap traffic from pre-swap entries.
//
// The new graph must use the same dictionary as the old one (labels keep
// their meaning; see graph.Rebase for bringing a freshly read graph onto
// it). Layers whose configuration no longer generalizes anything present
// in the evolved graph are dropped from the top.
func (x *Index) Refreshed(g *graph.Graph) (*Index, error) {
	if g.Dict() != x.layers[0].Graph.Dict() {
		return nil, fmt.Errorf("core: Refreshed requires the original dictionary")
	}
	newLayers := []*Layer{{Graph: g}}
	top := g
	for _, old := range x.layers[1:] {
		cfg := old.Config
		// Skip (and stop at) layers whose configuration touches nothing in
		// the evolved graph: further layers were built on top of them.
		touches := false
		for _, l := range top.DistinctLabels() {
			if cfg.InDomain(l) {
				touches = true
				break
			}
		}
		if !touches {
			break
		}
		res := bisim.Compute(cfg.Apply(top))
		newLayers = append(newLayers, &Layer{
			Graph:  res.Summary,
			Config: cfg,
			Up:     res.Block,
			Down:   res.Members,
		})
		top = res.Summary
	}
	return x.successor(newLayers)
}

// successor assembles layers into the index that replaces x. It goes
// through the snapshot-restore constructor, so the full structural
// validation (Up/Down inversion, dict sharing, config vs ontology) turns
// a maintenance bug into an error instead of a silently wrong index, and
// it carries x's epoch + 1.
func (x *Index) successor(layers []*Layer) (*Index, error) {
	n, err := NewFromLayers(x.ont, layers)
	if err != nil {
		return nil, fmt.Errorf("core: maintenance produced an invalid hierarchy: %w", err)
	}
	n.RestoreEpoch(x.epoch.Load() + 1)
	return n, nil
}
