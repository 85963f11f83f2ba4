package core

import (
	"encoding/binary"
	"hash/crc64"
	"testing"

	"bigindex/internal/datagen"
)

// goldenDigest pins every layer Build produces on the benchmark-shaped
// graph below: its configuration (by label name) and its layer graph
// digest. It was captured before the build-side engines (bisimulation
// counting, the linear-time CSR freeze, parallel candidate scoring) were
// reworked, and those reworks promise exactly the same output.
const goldenDigest = 0xde806db139b1f540

// TestBuildGolden builds the benchmark harness's graph shape (its
// genDataset options) at 30k entities with the default build options and
// compares a digest of every layer's Config.Mappings() and
// LayerGraph(j).Digest() against goldenDigest.
func TestBuildGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 30k-entity index")
	}
	ds := datagen.Generate(datagen.Options{
		Name: "bench", Entities: 30_000, AvgOut: 2.0, Terms: 1500, LeafTypes: 40,
		TypeBranching: 4, TypeHeight: 6, Relations: 60, TermSkew: 1.5, TargetSkew: 2,
		SinkFraction: 0.35, Seed: 7001,
	})
	idx, err := Build(ds.Graph, ds.Ont, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	dict := ds.Graph.Dict()
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	put := func(s string) {
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(s))))
		h.Write([]byte(s))
	}
	for j := range idx.NumLayers() {
		if cfg := idx.Layer(j).Config; cfg != nil {
			for _, m := range cfg.Mappings() {
				put(dict.Name(m.From))
				put(dict.Name(m.To))
			}
		}
		h.Write(binary.LittleEndian.AppendUint64(nil, idx.LayerGraph(j).Digest()))
		t.Logf("layer %d: |V|=%d |E|=%d", j, idx.LayerGraph(j).NumVertices(), idx.LayerGraph(j).NumEdges())
	}
	if got := h.Sum64(); got != goldenDigest {
		t.Fatalf("%d layers digest to %#x, want %#x", idx.NumLayers(), got, uint64(goldenDigest))
	}
}
