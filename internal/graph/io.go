package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Binary on-disk format (little endian):
//
//	magic "BIGG" | version u32
//	dictionary   | WriteDict: nLabels u32, for each: len u32, bytes
//	body         | WriteBody: nVertices u32, for each: label u32
//	             |            nEdges u32, for each: from u32, to u32
//	crc u32      | CRC-32 (IEEE) of every preceding byte (version >= 2)
//
// The format stores the dictionary inline so a graph round-trips without an
// external dictionary; on load a fresh Dict is created. The dictionary and
// body codecs are the ones snapshot sections use.
//
// Version 2 appends the CRC trailer. Version 1 files (no trailer) are still
// read; the body must still fill the file exactly, but an in-range bit
// flip (an edge endpoint silently rewritten to another valid vertex) goes
// unnoticed — the trailer closes that hole.

const (
	ioMagic   = "BIGG"
	ioVersion = 2
)

// ErrBadFormat is returned when decoding input that is not a serialized
// graph produced by WriteTo.
var ErrBadFormat = errors.New("graph: bad serialized format")

// WriteTo serializes g to w in the binary format above (version 2): the
// header, WriteDict, WriteBody and the CRC trailer.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	// Writes to a bytes.Buffer cannot fail.
	var buf bytes.Buffer
	buf.WriteString(ioMagic)
	writeU32(&buf, ioVersion)
	WriteDict(&buf, g.dict)
	g.WriteBody(&buf)
	// The checksum itself is not part of the checksummed stream.
	writeU32(&buf, crc32.ChecksumIEEE(buf.Bytes()))
	return buf.WriteTo(w)
}

// Read deserializes a graph written by WriteTo, which must be all of r.
// Version 2 input is verified against its CRC trailer; version 1 input is
// accepted as-is for compatibility with pre-trailer files.
func Read(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < 8 || string(data[:4]) != ioMagic {
		return nil, ErrBadFormat
	}
	switch ver := binary.LittleEndian.Uint32(data[4:]); ver {
	case 1:
	case ioVersion:
		n := len(data) - 4
		if n < 8 {
			return nil, fmt.Errorf("%w: missing checksum trailer", ErrBadFormat)
		}
		if got, want := binary.LittleEndian.Uint32(data[n:]), crc32.ChecksumIEEE(data[:n]); got != want {
			return nil, fmt.Errorf("%w: checksum mismatch (file %08x, computed %08x)", ErrBadFormat, got, want)
		}
		data = data[:n]
	default:
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, ver)
	}
	rest := bytes.NewReader(data[8:])
	dict, err := ReadDict(rest)
	if err != nil {
		return nil, err
	}
	return ReadBodyBytes(data[len(data)-rest.Len():], dict)
}

func writeU32(w io.Writer, x uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], x)
	_, err := w.Write(buf[:])
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("graph: reading u32: %w", err)
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}
