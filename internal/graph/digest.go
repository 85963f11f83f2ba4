package graph

import (
	"encoding/binary"
	"hash/crc64"
)

// digestTable is the CRC-64/ECMA table behind Digest. CRC-64 over FNV
// because the digest runs on every snapshot load and boot-time
// verification: table-driven CRC processes the byte stream several times
// faster than FNV's per-byte multiply, and the digest needs speed and
// stability, not avalanche quality.
var digestTable = crc64.MakeTable(crc64.ECMA)

// Digest returns a 64-bit content digest of the graph: every vertex's
// label *name* and every edge, hashed with CRC-64/ECMA. Hashing names
// rather than Label values (and ignoring the dictionary's unrelated
// entries) makes the digest purely content-defined: two graphs with
// identical vertices and edges produce the same digest even when built
// through different *Dict instances or dictionaries with different label
// numberings — which is what snapshot verification needs: a daemon that
// regenerates or re-reads its data graph can check that a persisted index
// was built from the same data before trusting it.
//
// The digest is defined over the logical content, not any serialization,
// so format version bumps in io.go never invalidate stored digests. It is
// an integrity identity, not a cryptographic commitment.
func (g *Graph) Digest() uint64 {
	// Writes are batched through a local buffer so the table-driven CRC
	// sees large chunks; chunking does not change the hash.
	h := crc64.New(digestTable)
	buf := make([]byte, 0, 32<<10)
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	put := func(x uint32) {
		if len(buf) > cap(buf)-4 {
			flush()
		}
		buf = binary.LittleEndian.AppendUint32(buf, x)
	}
	put(uint32(g.NumVertices()))
	for _, l := range g.labels {
		name := g.dict.Name(l)
		put(uint32(len(name)))
		if len(buf)+len(name) > cap(buf) {
			flush()
		}
		if len(name) > cap(buf) {
			h.Write([]byte(name))
		} else {
			buf = append(buf, name...)
		}
	}
	put(uint32(g.NumEdges()))
	for v := V(0); int(v) < g.NumVertices(); v++ {
		for _, w := range g.Out(v) {
			put(uint32(v))
			put(uint32(w))
		}
	}
	flush()
	return h.Sum64()
}
