package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func testGraph(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder(nil)
	x := b.AddVertex("x")
	y := b.AddVertex("y")
	z := b.AddVertex("x")
	b.AddEdge(x, y)
	b.AddEdge(y, z)
	b.AddEdge(z, x)
	return b.Build()
}

func serialize(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The v2 trailer closes the v1 format's blind spots: any single corrupted
// byte anywhere in the stream — including in-range values the structural
// checks cannot question — fails the checksum.
func TestReadDetectsAnyByteFlip(t *testing.T) {
	data := serialize(t, testGraph(t))
	for off := 0; off < len(data); off++ {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0xff
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Fatalf("flip at offset %d/%d decoded successfully", off, len(data))
		}
	}
}

// A file cut after a structurally complete prefix (v1's other blind spot:
// record counts bound the parse, so a cut at a record boundary used to
// look like EOF-after-success) now fails on the missing trailer.
func TestReadDetectsTruncation(t *testing.T) {
	data := serialize(t, testGraph(t))
	for n := 0; n < len(data); n++ {
		if _, err := Read(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", n, len(data))
		}
	}
}

// Version 1 files — the v2 body minus the trailer, with the version field
// patched — still decode, so pre-trailer files keep loading.
func TestReadAcceptsVersion1(t *testing.T) {
	g := testGraph(t)
	data := serialize(t, g)
	v1 := append([]byte(nil), data[:len(data)-4]...) // drop trailer
	binary.LittleEndian.PutUint32(v1[4:8], 1)        // patch version
	got, err := Read(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 input rejected: %v", err)
	}
	if got.Digest() != g.Digest() {
		t.Fatal("v1 decode differs from original graph")
	}
}

func TestReadRejectsUnknownVersion(t *testing.T) {
	data := serialize(t, testGraph(t))
	bad := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(bad[4:8], 3)
	if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("version 3: got %v, want ErrBadFormat", err)
	}
}

func TestDigestContentDefined(t *testing.T) {
	g1 := testGraph(t)
	g2 := testGraph(t) // identical content, fresh dictionary
	if g1.Dict() == g2.Dict() {
		t.Fatal("fixtures share a dict; test is vacuous")
	}
	if g1.Digest() != g2.Digest() {
		t.Fatal("identical content must digest equally across dictionaries")
	}

	// Any content change moves the digest.
	b := NewBuilder(nil)
	x := b.AddVertex("x")
	y := b.AddVertex("y")
	z := b.AddVertex("x")
	b.AddEdge(x, y)
	b.AddEdge(y, z)
	// (missing the z->x edge)
	if b.Build().Digest() == g1.Digest() {
		t.Fatal("edge removal did not change the digest")
	}

	b2 := NewBuilder(nil)
	x = b2.AddVertex("x")
	y = b2.AddVertex("y")
	z = b2.AddVertex("w") // different label name
	b2.AddEdge(x, y)
	b2.AddEdge(y, z)
	b2.AddEdge(z, x)
	if b2.Build().Digest() == g1.Digest() {
		t.Fatal("label rename did not change the digest")
	}
}
