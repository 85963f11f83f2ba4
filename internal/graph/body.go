package graph

import (
	"encoding/binary"
	"fmt"
	"io"
)

// WriteBody serializes only the graph structure (labels + edges), without
// the dictionary. Used by multi-graph containers — a BiG-index stores many
// layers sharing one dictionary, which must be written exactly once or the
// shared Label values would diverge on load.
func (g *Graph) WriteBody(w io.Writer) error {
	if err := writeU32(w, uint32(g.NumVertices())); err != nil {
		return err
	}
	for _, l := range g.labels {
		if err := writeU32(w, uint32(l)); err != nil {
			return err
		}
	}
	if err := writeU32(w, uint32(g.NumEdges())); err != nil {
		return err
	}
	for v := V(0); int(v) < g.NumVertices(); v++ {
		for _, to := range g.Out(v) {
			if err := writeU32(w, uint32(v)); err != nil {
				return err
			}
			if err := writeU32(w, uint32(to)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadBodyBytes decodes a WriteBody payload held fully in memory (the
// one body decoder: snapshot sections and graph files both end here).
// Every bound is checked against the buffer length before the
// corresponding allocation, so a hostile count can never allocate beyond
// the bytes actually present, and the payload must be consumed exactly (a
// section carries one body, nothing else).
//
// WriteBody emits edges sorted by (From, To) with duplicates removed, so
// the CSR arrays are filled directly from the wire — no edge-list
// materialization, copy, or sort. Input that breaks that order, or repeats
// an edge, is not a body any writer produces and is rejected as
// ErrBadFormat.
func ReadBodyBytes(data []byte, dict *Dict) (*Graph, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: truncated body", ErrBadFormat)
	}
	nV := binary.LittleEndian.Uint32(data)
	if uint64(len(data)) < 8+4*uint64(nV) {
		return nil, fmt.Errorf("%w: body shorter than %d vertex labels", ErrBadFormat, nV)
	}
	labels := make([]Label, nV)
	off := 4
	for i := range labels {
		l := binary.LittleEndian.Uint32(data[off:])
		off += 4
		if l == 0 || int(l) > dict.Len() {
			return nil, fmt.Errorf("%w: vertex label %d outside dictionary", ErrBadFormat, l)
		}
		labels[i] = Label(l)
	}
	nE := binary.LittleEndian.Uint32(data[off:])
	off += 4
	if uint64(len(data)-off) != 8*uint64(nE) {
		return nil, fmt.Errorf("%w: body length inconsistent with %d edges", ErrBadFormat, nE)
	}

	outOff := make([]uint32, nV+1)
	inOff := make([]uint32, nV+1)
	var prevF, prevT uint32
	for i, p := uint32(0), off; i < nE; i, p = i+1, p+8 {
		f := binary.LittleEndian.Uint32(data[p:])
		t := binary.LittleEndian.Uint32(data[p+4:])
		if f >= nV || t >= nV {
			return nil, fmt.Errorf("%w: edge (%d,%d) out of range", ErrBadFormat, f, t)
		}
		if i > 0 && (f < prevF || (f == prevF && t <= prevT)) {
			return nil, fmt.Errorf("%w: edge (%d,%d) after (%d,%d): not sorted and deduplicated", ErrBadFormat, f, t, prevF, prevT)
		}
		prevF, prevT = f, t
		outOff[f+1]++
		inOff[t+1]++
	}

	for i := uint32(0); i < nV; i++ {
		outOff[i+1] += outOff[i]
		inOff[i+1] += inOff[i]
	}
	outAdj := make([]V, nE)
	inAdj := make([]V, nE)
	next := make([]uint32, nV)
	copy(next, inOff[:nV])
	for i, p := uint32(0), off; i < nE; i, p = i+1, p+8 {
		f := binary.LittleEndian.Uint32(data[p:])
		t := binary.LittleEndian.Uint32(data[p+4:])
		outAdj[i] = V(t) // edges arrive in CSR order already
		inAdj[next[t]] = V(f)
		next[t]++
	}
	return &Graph{
		dict:    dict,
		labels:  labels,
		outOff:  outOff,
		outAdj:  outAdj,
		inOff:   inOff,
		inAdj:   inAdj,
		posting: postingLists(labels),
	}, nil
}

// WriteDict serializes the dictionary alone (for containers).
func WriteDict(w io.Writer, d *Dict) error {
	if err := writeU32(w, uint32(d.Len())); err != nil {
		return err
	}
	for i := 1; i <= d.Len(); i++ {
		name := d.Name(Label(i))
		if err := writeU32(w, uint32(len(name))); err != nil {
			return err
		}
		if _, err := w.Write([]byte(name)); err != nil {
			return err
		}
	}
	return nil
}

// ReadDict deserializes a dictionary written by WriteDict.
func ReadDict(r io.Reader) (*Dict, error) {
	n, err := readU32(r)
	if err != nil {
		return nil, err
	}
	d := NewDict()
	for i := uint32(0); i < n; i++ {
		ln, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if ln > 1<<20 {
			return nil, fmt.Errorf("%w: label length %d", ErrBadFormat, ln)
		}
		buf := make([]byte, ln)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("graph: reading dict entry: %w", err)
		}
		d.Intern(string(buf))
	}
	return d, nil
}
