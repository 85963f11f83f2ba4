package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"bigindex/internal/graph"
)

// FuzzDecodeRecord puts arbitrary bytes where a log's records go and
// opens it — the boot path of a daemon whose disk holds anything at all.
// Open must not panic and must read the damage as what it can be: a clean
// prefix of whole records followed by a torn tail, or a refused log.
// When it accepts, the file it leaves behind is exactly the header plus
// the replayed batches in their one encoding, and a second Open finds
// the same batches and nothing more to cut. Each input is tried twice:
// as the record bytes themselves, and framed as one record's payload with
// a valid CRC — otherwise mutations would rarely get past the checksum to
// the batch decoder.
func FuzzDecodeRecord(f *testing.F) {
	frame := func(p []byte) []byte {
		out := []byte{recBatch}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = append(out, p...)
		return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
	}
	record := func(b Batch) []byte { return frame(encodeBatch(b)) }
	first := Batch{Seq: 1, AddVertices: []graph.Label{3},
		AddEdges: []graph.Edge{{From: 0, To: 1}}, RemoveEdges: []graph.Edge{{From: 1, To: 0}}}
	f.Add(append(record(first), record(Batch{Seq: 2})...))
	f.Add(encodeBatch(first))

	// A fresh log is exactly the header.
	const base = 0xb16
	path := filepath.Join(f.TempDir(), "fuzz.wal")
	fresh, _, err := Open(path, Options{BaseDigest: base})
	if err != nil {
		f.Fatal(err)
	}
	fresh.Close()
	hdr, err := os.ReadFile(path)
	if err != nil || len(hdr) != headerLen {
		f.Fatalf("fresh log: %d bytes, err %v", len(hdr), err)
	}
	hdr = hdr[:headerLen:headerLen] // appends below must copy, not share

	check := func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, append(hdr, data...), 0o644); err != nil {
			t.Fatal(err)
		}
		l, info, err := Open(path, Options{BaseDigest: base})
		if err != nil {
			return // refused (a seq gap): the operator decides, nothing was cut
		}
		l.Close()

		want := hdr
		for _, b := range info.Batches {
			want = append(want, record(b)...)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("log after Open is not header + replayed records: %d bytes, want %d", len(got), len(want))
		}
		if kept := int64(len(data)) - info.DroppedBytes; int64(len(got)) != headerLen+kept {
			t.Fatalf("dropped %d of %d record bytes but kept %d", info.DroppedBytes, len(data), len(got)-headerLen)
		}

		l2, again, err := Open(path, Options{BaseDigest: base})
		if err != nil {
			t.Fatalf("reopening a healed log: %v", err)
		}
		l2.Close()
		if again.Truncated || len(again.Batches) != len(info.Batches) {
			t.Fatalf("second Open: truncated=%v batches=%d, want false/%d", again.Truncated, len(again.Batches), len(info.Batches))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		check(t, frame(data))
	})
}
