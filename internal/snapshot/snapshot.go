// Package snapshot persists a complete BiG-index to disk and restores it
// on boot, so a process restart costs one sequential file read instead of
// a full Gen/Bisim rebuild (Sec. 3.1's construction pipeline is the
// expensive path; the hierarchy it produces is deterministic given the
// data graph and configurations, so reloading the stored hierarchy is
// observationally equivalent to rebuilding it).
//
// Binary on-disk format (little endian):
//
//	magic "BIGS" | version u32
//	sections, each: kind u8 | len u64 | payload | crc u32 (IEEE, payload only)
//	trailer: kind 0 u8 | crc u32 (IEEE, every preceding byte)
//
// Section order is fixed and enforced:
//
//	meta (1)                          JSON build metadata
//	dict (2)                          shared label dictionary, written once
//	body (3)                          layer 0, the data graph
//	then per summary layer i >= 1:
//	  config (4)                      Cⁱ as (from,to) label pairs
//	  body (3)                        Gⁱ
//	  up (5)                          χ: layer i-1 vertex -> supernode
//
// Down tables are not stored: they are Up's inverse with members ascending
// (exactly how bisim.Compute builds them), so the decoder reconstructs
// them, which both shrinks the file and removes a whole class of
// inconsistent-inverse corruption.
//
// Every decode failure — bad magic, unsupported version, a section CRC or
// whole-file CRC mismatch, truncation, trailing garbage, out-of-range
// references, Up/Down inversion failures — is reported as a *CorruptError
// matching errors.Is(err, ErrBadSnapshot), so callers can distinguish "the
// snapshot is damaged, rebuild" from environmental I/O errors.
package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"bigindex/internal/core"
	"bigindex/internal/generalize"
	"bigindex/internal/graph"
	"bigindex/internal/ontology"
)

const (
	fileMagic   = "BIGS"
	fileVersion = 1

	kindTrailer = 0
	kindMeta    = 1
	kindDict    = 2
	kindBody    = 3
	kindConfig  = 4
	kindUp      = 5

	// maxMetaLen bounds the JSON metadata section; a hostile length prefix
	// must not cause a large allocation before any payload byte is read.
	maxMetaLen = 1 << 20
	// maxSectionLen bounds graph-bearing sections. Parsing is streaming
	// (no payload-sized allocation happens up front), so this only rejects
	// absurd prefixes early.
	maxSectionLen = 1 << 32
	// maxLayers bounds the stored hierarchy height (the paper's indexes
	// use h <= 7; 1024 is far beyond any real configuration sequence).
	maxLayers = 1024
	// maxConfigRules bounds |Cⁱ| (cannot exceed the label alphabet, which
	// is itself bounded by the dictionary section).
	maxConfigRules = 1 << 24
)

// ErrBadSnapshot is the sentinel matched by every corruption error this
// package reports. errors.Is(err, ErrBadSnapshot) == true means the bytes
// are not a valid snapshot (damaged, truncated, tampered, or wrong file) —
// the caller should fall back to rebuilding, not retry the read.
var ErrBadSnapshot = errors.New("snapshot: invalid or corrupt snapshot")

// ErrSourceMismatch is returned by callers that verify a loaded snapshot
// against the data graph they expect to serve (LoadFileFor, the daemon's
// boot path) when the snapshot is internally valid but was built from a
// different source graph.
var ErrSourceMismatch = errors.New("snapshot: snapshot was built from a different source graph")

// CorruptError describes where and how snapshot decoding failed. It
// matches ErrBadSnapshot and unwraps to the underlying cause.
type CorruptError struct {
	Section string // which section (or "header"/"trailer") was being decoded
	Err     error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("snapshot: corrupt %s section: %v", e.Section, e.Err)
}

func (e *CorruptError) Unwrap() []error { return []error{ErrBadSnapshot, e.Err} }

func corruptf(section, format string, args ...any) error {
	return &CorruptError{Section: section, Err: fmt.Errorf(format, args...)}
}

// Meta is the build metadata stored alongside the index. CreatedUnix and
// BuildNote are caller-supplied; SourceDigest, Epoch, and Layers are
// filled by Write from the index itself.
type Meta struct {
	// CreatedUnix is the snapshot creation time (Unix seconds), supplied
	// by the caller so the format stays deterministic for a fixed input.
	CreatedUnix int64 `json:"created_unix"`
	// SourceDigest is graph.Digest of the data graph the index was built
	// from; boot-time verification compares it against the graph the
	// process is configured to serve.
	SourceDigest uint64 `json:"source_digest,string"`
	// Epoch is the index epoch at snapshot time, restored on load so
	// epoch-keyed caches and staleness accounting stay monotonic across a
	// restart.
	Epoch uint64 `json:"epoch"`
	// Layers is the total layer count (data graph + summaries), used by
	// the decoder to know how many per-layer section triples to expect.
	Layers int `json:"layers"`
	// BaseDigest, when non-zero, is graph.Digest of the *boot-time* data
	// graph the write-ahead log is anchored to. A WAL-maintained index
	// drifts away from that base (SourceDigest tracks the mutated graph),
	// so boot verification for live-mutation deployments accepts either
	// digest: SourceDigest for an unmutated snapshot, BaseDigest for one
	// that has absorbed mutation batches (LoadFileWithBase).
	BaseDigest uint64 `json:"base_digest,string,omitempty"`
	// WALSeq is the sequence number of the last WAL batch already folded
	// into this snapshot (0 = none). Boot replays only records with a
	// larger sequence; compaction persists a snapshot carrying the current
	// sequence before truncating the log, which is the whole crash-safety
	// argument for compaction.
	WALSeq uint64 `json:"wal_seq,omitempty"`
	// BuildNote is free-form provenance (dataset preset, build options).
	BuildNote string `json:"build_note,omitempty"`
}

// Write serializes idx to w. meta.CreatedUnix and meta.BuildNote are taken
// from the argument; every index-derived field is overwritten from idx so
// the metadata can never disagree with the payload it describes. Output is
// deterministic for a fixed (idx, meta) pair.
func Write(w io.Writer, idx *core.Index, meta Meta) error {
	meta.SourceDigest = idx.Data().Digest()
	meta.Epoch = idx.Epoch()
	meta.Layers = idx.NumLayers()

	fileCRC := crc32.NewIEEE()
	// Everything except the final whole-file checksum is hashed as it is
	// written; buffering sits below the tee so flush order cannot change
	// what the hash sees.
	out := io.MultiWriter(w, fileCRC)

	if _, err := out.Write([]byte(fileMagic)); err != nil {
		return err
	}
	if err := writeU32(out, fileVersion); err != nil {
		return err
	}

	mb, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("snapshot: encoding metadata: %w", err)
	}
	if err := writeSection(out, kindMeta, mb); err != nil {
		return err
	}

	var buf bytes.Buffer
	if err := graph.WriteDict(&buf, idx.Data().Dict()); err != nil {
		return err
	}
	if err := writeSection(out, kindDict, buf.Bytes()); err != nil {
		return err
	}

	buf.Reset()
	if err := idx.Data().WriteBody(&buf); err != nil {
		return err
	}
	if err := writeSection(out, kindBody, buf.Bytes()); err != nil {
		return err
	}

	for i := 1; i < idx.NumLayers(); i++ {
		l := idx.Layer(i)

		buf.Reset()
		ms := l.Config.Mappings()
		if err := writeU32(&buf, uint32(len(ms))); err != nil {
			return err
		}
		for _, m := range ms {
			if err := writeU32(&buf, uint32(m.From)); err != nil {
				return err
			}
			if err := writeU32(&buf, uint32(m.To)); err != nil {
				return err
			}
		}
		if err := writeSection(out, kindConfig, buf.Bytes()); err != nil {
			return err
		}

		buf.Reset()
		if err := l.Graph.WriteBody(&buf); err != nil {
			return err
		}
		if err := writeSection(out, kindBody, buf.Bytes()); err != nil {
			return err
		}

		buf.Reset()
		if err := writeU32(&buf, uint32(len(l.Up))); err != nil {
			return err
		}
		for _, s := range l.Up {
			if err := writeU32(&buf, uint32(s)); err != nil {
				return err
			}
		}
		if err := writeSection(out, kindUp, buf.Bytes()); err != nil {
			return err
		}
	}

	// Trailer: the kind byte is hashed (it precedes the checksum); the
	// checksum itself is not part of the checksummed stream.
	if _, err := out.Write([]byte{kindTrailer}); err != nil {
		return err
	}
	return writeU32(w, fileCRC.Sum32())
}

// Read decodes a snapshot written by Write and reassembles the index,
// validating everything it cannot afford to trust: magic and version,
// per-section and whole-file checksums, exact section lengths, label and
// vertex ranges, configuration well-formedness (against ont when non-nil),
// Up/Down mutual inversion (via core.NewFromLayers), and that the stored
// source digest matches the data graph actually decoded. The reader must
// be positioned at the start of the snapshot and is consumed exactly to
// its end: leftover bytes after the trailer are corruption, not slack.
func Read(r io.Reader, ont *ontology.Ontology) (*core.Index, Meta, error) {
	return read(r, ont, nil, -1)
}

// read is Read with a source check: accept, when non-nil, judges the
// stored metadata as soon as its section is verified, so a snapshot of
// another graph is refused as such (ErrSourceMismatch) before its
// configurations are validated against an ontology they were never
// meant for. size is the snapshot's length in bytes when known (a file),
// -1 otherwise.
func read(r io.Reader, ont *ontology.Ontology, accept func(Meta) error, size int64) (*core.Index, Meta, error) {
	fileCRC := crc32.NewIEEE()
	tr := &stream{r: io.TeeReader(r, fileCRC), left: size}

	fail := func(err error) (*core.Index, Meta, error) { return nil, Meta{}, err }

	hdr := make([]byte, 4)
	if _, err := io.ReadFull(tr, hdr); err != nil {
		return fail(corruptf("header", "reading magic: %v", err))
	}
	if string(hdr) != fileMagic {
		return fail(corruptf("header", "bad magic %q", hdr))
	}
	ver, err := readU32(tr, "header")
	if err != nil {
		return fail(err)
	}
	if ver != fileVersion {
		return fail(corruptf("header", "unsupported version %d", ver))
	}

	// Section 1: metadata. Small enough to buffer whole.
	sec, err := beginSection(tr, kindMeta, "meta", maxMetaLen)
	if err != nil {
		return fail(err)
	}
	mb := make([]byte, sec.length)
	if _, err := io.ReadFull(sec, mb); err != nil {
		return fail(corruptf("meta", "reading payload: %v", err))
	}
	if err := sec.finish(); err != nil {
		return fail(err)
	}
	var meta Meta
	if err := json.Unmarshal(mb, &meta); err != nil {
		return fail(corruptf("meta", "decoding JSON: %v", err))
	}
	if meta.Layers < 1 || meta.Layers > maxLayers {
		return fail(corruptf("meta", "layer count %d out of range", meta.Layers))
	}
	if accept != nil {
		if err := accept(meta); err != nil {
			return fail(err)
		}
	}

	// Section 2: the shared dictionary.
	sec, err = beginSection(tr, kindDict, "dict", maxSectionLen)
	if err != nil {
		return fail(err)
	}
	dict, err := graph.ReadDict(sec)
	if err != nil {
		return fail(corruptf("dict", "%v", err))
	}
	if err := sec.finish(); err != nil {
		return fail(err)
	}

	// Section 3: layer 0, the data graph.
	g0, err := readBodySection(tr, dict, "")
	if err != nil {
		return fail(err)
	}

	layers := []*core.Layer{{Graph: g0}}
	below := g0
	for i := 1; i < meta.Layers; i++ {
		cfg, err := readConfigSection(tr, dict)
		if err != nil {
			return fail(err)
		}

		gi, err := readBodySection(tr, dict, fmt.Sprintf("layer %d: ", i))
		if err != nil {
			return fail(err)
		}

		up, down, err := readUpSection(tr, below.NumVertices(), gi.NumVertices())
		if err != nil {
			return fail(err)
		}

		layers = append(layers, &core.Layer{Graph: gi, Config: cfg, Up: up, Down: down})
		below = gi
	}

	// Trailer: kind byte is inside the whole-file hash, the checksum is
	// read past the tee, and nothing may follow it.
	kind := make([]byte, 1)
	if _, err := io.ReadFull(tr, kind); err != nil {
		return fail(corruptf("trailer", "reading kind: %v", err))
	}
	if kind[0] != kindTrailer {
		return fail(corruptf("trailer", "unexpected section kind %d, want trailer", kind[0]))
	}
	want := fileCRC.Sum32()
	got, err := readU32(r, "trailer")
	if err != nil {
		return fail(err)
	}
	if got != want {
		return fail(corruptf("trailer", "file checksum mismatch (file %08x, computed %08x)", got, want))
	}
	var one [1]byte
	if n, err := r.Read(one[:]); n != 0 || (err != nil && err != io.EOF) {
		if n != 0 {
			return fail(corruptf("trailer", "trailing garbage after checksum"))
		}
		return fail(corruptf("trailer", "reading past end: %v", err))
	}

	idx, err := core.NewFromLayers(ont, layers)
	if err != nil {
		return fail(&CorruptError{Section: "index", Err: err})
	}
	if d := g0.Digest(); d != meta.SourceDigest {
		return fail(corruptf("meta", "source digest %016x does not match stored data graph %016x", meta.SourceDigest, d))
	}
	idx.RestoreEpoch(meta.Epoch)
	return idx, meta, nil
}

// readBodySection decodes one graph body through the in-memory fast path
// (graph.ReadBodyBytes): restore time is dominated by graph decoding, so
// the payload is materialized once and parsed without per-word reader
// calls. prefix tags errors with the layer being decoded.
func readBodySection(tr *stream, dict *graph.Dict, prefix string) (*graph.Graph, error) {
	sec, err := beginSection(tr, kindBody, "graph", maxSectionLen)
	if err != nil {
		return nil, err
	}
	data, err := sec.payload()
	if err != nil {
		return nil, err
	}
	g, err := graph.ReadBodyBytes(data, dict)
	if err != nil {
		return nil, corruptf("graph", "%s%v", prefix, err)
	}
	if err := sec.finish(); err != nil {
		return nil, err
	}
	return g, nil
}

// readConfigSection decodes one Cⁱ. The section length must be exactly
// 4 + 8·count, so a hostile count cannot request allocation beyond what
// the payload actually carries.
func readConfigSection(tr *stream, dict *graph.Dict) (*generalize.Config, error) {
	sec, err := beginSection(tr, kindConfig, "config", 4+8*maxConfigRules)
	if err != nil {
		return nil, err
	}
	count, err := readU32(sec, "config")
	if err != nil {
		return nil, err
	}
	if sec.length != 4+8*uint64(count) {
		return nil, corruptf("config", "section length %d inconsistent with %d rules", sec.length, count)
	}
	ms := make([]generalize.Mapping, 0, count)
	for j := uint32(0); j < count; j++ {
		from, err := readU32(sec, "config")
		if err != nil {
			return nil, err
		}
		to, err := readU32(sec, "config")
		if err != nil {
			return nil, err
		}
		if from == 0 || int(from) > dict.Len() || to == 0 || int(to) > dict.Len() {
			return nil, corruptf("config", "rule %d -> %d outside dictionary", from, to)
		}
		if from == to {
			return nil, corruptf("config", "identity rule for label %d", from)
		}
		ms = append(ms, generalize.Mapping{From: graph.Label(from), To: graph.Label(to)})
	}
	cfg, err := generalize.NewConfig(ms)
	if err != nil {
		return nil, &CorruptError{Section: "config", Err: err}
	}
	if cfg.Len() != int(count) {
		return nil, corruptf("config", "duplicate rules")
	}
	if err := sec.finish(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// readUpSection decodes one χ map and reconstructs its inverse. The vertex
// count must equal the layer below (checked before any allocation), every
// supernode reference must be in range, and members land in each Down row
// in ascending order — matching bisim.Compute exactly, so a restored index
// enumerates answers in the same order a rebuilt one would.
func readUpSection(tr *stream, below, here int) ([]graph.V, [][]graph.V, error) {
	sec, err := beginSection(tr, kindUp, "up", 4+4*uint64(below))
	if err != nil {
		return nil, nil, err
	}
	count, err := readU32(sec, "up")
	if err != nil {
		return nil, nil, err
	}
	if int(count) != below || sec.length != 4+4*uint64(count) {
		return nil, nil, corruptf("up", "map covers %d vertices, layer below has %d", count, below)
	}
	data, err := sec.payload()
	if err != nil {
		return nil, nil, err
	}
	up := make([]graph.V, below)
	counts := make([]uint32, here)
	for v := 0; v < below; v++ {
		s := binary.LittleEndian.Uint32(data[v*4:])
		if int(s) >= here {
			return nil, nil, corruptf("up", "vertex %d maps to supernode %d, layer has %d", v, s, here)
		}
		up[v] = graph.V(s)
		counts[s]++
	}
	// Down rows carved out of one flat allocation (growing each row with
	// append dominated restore time); members land ascending because the
	// fill pass walks vertices ascending.
	flat := make([]graph.V, below)
	down := make([][]graph.V, here)
	var start uint32
	for s := 0; s < here; s++ {
		end := start + counts[s]
		down[s] = flat[start:end:end]
		counts[s] = start // reuse as this row's write cursor
		start = end
	}
	for v := 0; v < below; v++ {
		s := up[v]
		flat[counts[s]] = graph.V(v)
		counts[s]++
	}
	if err := sec.finish(); err != nil {
		return nil, nil, err
	}
	return up, down, nil
}

// stream is the snapshot's byte stream, teed into the whole-file checksum.
// When the snapshot's size is known it also counts the bytes not yet read,
// which bounds what any section can still hold.
type stream struct {
	r    io.Reader
	left int64 // bytes not yet read; -1 when the size is unknown
}

func (s *stream) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if s.left >= 0 {
		s.left -= int64(n)
	}
	return n, err
}

// sectionReader streams one section's payload while hashing it, bounded by
// the declared length. finish verifies the payload was consumed exactly
// and that the stored per-section checksum matches.
//
// The parser reads the payload a few bytes at a time, so a bufio layer
// sits on top of the hashing tee: both CRCs then digest buffer-sized
// chunks (their fast slicing path) instead of being fed 4 bytes per call,
// which dominated load time before. bufio pulls from the LimitedReader,
// so it can never buffer past the section boundary into the next header.
type sectionReader struct {
	name   string
	length uint64
	lr     *io.LimitedReader
	tee    io.Reader     // lr teed into crc
	br     *bufio.Reader // lazily wraps tee so CRC updates see big chunks
	crc    hash.Hash32   // payload-only hash
	src    *stream       // the file-level stream, for the section checksum
	room   int64         // bytes left in the file after the header; -1 if unknown
}

// beginSection consumes a section header from src, enforcing the expected
// kind and a length cap.
func beginSection(src *stream, wantKind byte, name string, maxLen uint64) (*sectionReader, error) {
	kind := make([]byte, 1)
	if _, err := io.ReadFull(src, kind); err != nil {
		return nil, corruptf(name, "reading section kind: %v", err)
	}
	if kind[0] != wantKind {
		return nil, corruptf(name, "unexpected section kind %d, want %d", kind[0], wantKind)
	}
	length, err := readU64(src, name)
	if err != nil {
		return nil, err
	}
	if length > maxLen {
		return nil, corruptf(name, "section length %d exceeds limit %d", length, maxLen)
	}
	s := &sectionReader{
		name:   name,
		length: length,
		lr:     &io.LimitedReader{R: src, N: int64(length)},
		crc:    crc32.NewIEEE(),
		src:    src,
		room:   src.left,
	}
	s.tee = io.TeeReader(s.lr, s.crc)
	return s, nil
}

func (s *sectionReader) Read(p []byte) (int, error) {
	if s.br == nil {
		s.br = bufio.NewReaderSize(s.tee, 32<<10)
	}
	return s.br.Read(p)
}

// payload reads the rest of the section into memory (for parsers with a
// byte fast path); bytes already consumed through Read are not replayed.
// The declared length is allocated in one step when it is small or when
// the file is known to still hold that many bytes. Otherwise growth
// follows the bytes actually read, so a hostile length prefix cannot force
// a large allocation.
func (s *sectionReader) payload() ([]byte, error) {
	var head []byte // what a prior streaming Read buffered comes first
	if s.br != nil {
		head, _ = s.br.Peek(s.br.Buffered())
	}
	want := int64(len(head)) + s.lr.N
	var data []byte
	if want <= 1<<20 || (s.room >= 0 && want <= s.room) {
		data = make([]byte, want)
		n := copy(data, head)
		if err := s.drain(len(head)); err != nil {
			return nil, err
		}
		m, err := io.ReadFull(s.tee, data[n:])
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return nil, corruptf(s.name, "reading payload: %v", err)
		}
		data = data[:n+m]
	} else {
		buf := bytes.NewBuffer(append([]byte(nil), head...))
		if err := s.drain(len(head)); err != nil {
			return nil, err
		}
		if _, err := buf.ReadFrom(s.tee); err != nil {
			return nil, corruptf(s.name, "reading payload: %v", err)
		}
		data = buf.Bytes()
	}
	if int64(len(data)) != want {
		return nil, corruptf(s.name, "payload truncated at %d of %d bytes", len(data), want)
	}
	return data, nil
}

// drain discards n bytes the buffered reader holds.
func (s *sectionReader) drain(n int) error {
	if n == 0 {
		return nil
	}
	if _, err := s.br.Discard(n); err != nil {
		return corruptf(s.name, "draining payload: %v", err)
	}
	return nil
}

func (s *sectionReader) finish() error {
	left := s.lr.N
	if s.br != nil {
		left += int64(s.br.Buffered())
	}
	if left != 0 {
		return corruptf(s.name, "%d unconsumed payload bytes", left)
	}
	got, err := readU32(s.src, s.name)
	if err != nil {
		return err
	}
	if want := s.crc.Sum32(); got != want {
		return corruptf(s.name, "section checksum mismatch (file %08x, computed %08x)", got, want)
	}
	return nil
}

func writeSection(w io.Writer, kind byte, payload []byte) error {
	if _, err := w.Write([]byte{kind}); err != nil {
		return err
	}
	if err := writeU64(w, uint64(len(payload))); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return writeU32(w, crc32.ChecksumIEEE(payload))
}

func writeU32(w io.Writer, x uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], x)
	_, err := w.Write(b[:])
	return err
}

func writeU64(w io.Writer, x uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	_, err := w.Write(b[:])
	return err
}

func readU32(r io.Reader, section string) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, corruptf(section, "reading u32: %v", err)
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func readU64(r io.Reader, section string) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, corruptf(section, "reading u64: %v", err)
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}
