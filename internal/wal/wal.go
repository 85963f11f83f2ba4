// Package wal provides the write-ahead log behind the live mutation service:
// every accepted mutation batch is appended — CRC-checked and fsync'd — to a
// single append-only file *before* it is applied to the served index, so a
// process that dies at any instant can reconstruct exactly the batches it
// acknowledged by replaying the log on top of the last snapshot.
//
// Binary on-disk format (little endian):
//
//	header: magic "BIGW" | version u32 | baseDigest u64
//	records, each: kind u8 (1 = batch) | len u32 | payload | crc u32 (IEEE, payload only)
//	payload: seq u64 | nv u32 | nv·label u32 | na u32 | na·(from u32, to u32) | nr u32 | nr·(from u32, to u32)
//
// baseDigest is graph.Digest of the pristine source graph the mutation
// history grew from; Open refuses a log whose base does not match the graph
// the process is configured to serve (replaying foreign mutations would be
// silently wrong). Batch sequence numbers are assigned by the caller,
// strictly monotonic; within one file they must be contiguous, which lets
// the boot path detect a snapshot/log mismatch (a gap) instead of silently
// skipping acknowledged mutations.
//
// Crash model: the only damage a kill -9 (or power loss) can inflict is a
// torn tail — the record whose append never returned. Open therefore treats
// the first invalid record as end-of-log, truncates the file back to the
// last valid record boundary, and reports how many bytes were dropped; a
// batch that was never acknowledged is not data loss. A failed Append
// likewise truncates its own partial record so the next append cannot land
// after garbage.
//
// Compaction: once the applied state is captured in a durable snapshot
// (whose metadata records the last covered sequence number), Reset truncates
// the log back to its header. The correct ordering — snapshot first, then
// Reset — means a crash between the two leaves stale records that replay as
// no-ops (their seq is covered by the snapshot), never a hole.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"bigindex/internal/graph"
)

const (
	fileMagic   = "BIGW"
	fileVersion = 1
	headerLen   = 4 + 4 + 8

	recBatch = 1

	// maxRecordLen bounds one record's payload; a hostile or garbage length
	// prefix must read as a torn tail, not a multi-gigabyte allocation.
	maxRecordLen = 1 << 28
	// maxBatchItems bounds the item count fields inside a payload for the
	// same reason.
	maxBatchItems = 1 << 24
)

// ErrBadLog is the sentinel matched by every structural-corruption error
// (bad magic, unsupported version, impossible lengths). Torn tails are NOT
// ErrBadLog — they are expected crash damage, healed by truncation.
var ErrBadLog = errors.New("wal: invalid log file")

// ErrBaseMismatch is returned by Open when the log exists but records
// mutations of a different source graph.
var ErrBaseMismatch = errors.New("wal: log was created for a different source graph")

// ErrClosed is returned by operations on a closed or broken log.
var ErrClosed = errors.New("wal: log is closed")

// Batch is one durable mutation batch: vertices to append (by dictionary
// label), edges to add, and edges to remove. Seq is the caller-assigned
// batch number, strictly monotonic across the life of the deployment
// (compaction does not reset it — the snapshot records the last covered
// seq instead).
type Batch struct {
	Seq         uint64
	AddVertices []graph.Label
	AddEdges    []graph.Edge
	RemoveEdges []graph.Edge
}

// Hooks intercepts the log's filesystem operations so the fault-injection
// suite (internal/faultio) can kill an append at any byte or fail the
// fsync. Nil fields use the real operation.
type Hooks struct {
	// WrapWriter wraps the file for record writes (e.g. faultio.FailWriter);
	// truncation and header writes bypass it.
	WrapWriter func(io.Writer) io.Writer
	// Fsync replaces file.Sync after each append and reset.
	Fsync func(*os.File) error
}

// Options configures Open.
type Options struct {
	// BaseDigest is graph.Digest of the pristine source graph. A new log
	// stores it; an existing log must match it.
	BaseDigest uint64
	// Hooks injects faults (tests).
	Hooks Hooks
}

// ReplayInfo reports what Open found in an existing log.
type ReplayInfo struct {
	// Batches are the valid records, in append order.
	Batches []Batch
	// Truncated is true when a torn tail was cut off.
	Truncated bool
	// DroppedBytes is how many trailing bytes the truncation removed.
	DroppedBytes int64
}

// Log is an open write-ahead log. Append/Reset/Size are not safe for
// concurrent use; the mutation service serializes access.
type Log struct {
	f      *os.File
	w      io.Writer // f, possibly wrapped by Hooks.WrapWriter
	fsync  func(*os.File) error
	off    int64 // end of the last durable record
	seq    uint64
	broken bool
}

// Open opens (creating if absent) the log at path and replays its records.
// A torn tail is truncated in place; structural corruption (bad header) and
// a base-digest mismatch are errors — the operator must decide, because
// deleting a log discards acknowledged mutations.
func Open(path string, opt Options) (*Log, ReplayInfo, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, ReplayInfo{}, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	l := &Log{f: f, w: f, fsync: opt.Hooks.Fsync}
	if opt.Hooks.WrapWriter != nil {
		l.w = opt.Hooks.WrapWriter(f)
	}
	if l.fsync == nil {
		l.fsync = (*os.File).Sync
	}

	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, ReplayInfo{}, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	if st.Size() == 0 {
		// Fresh log: persist the header before acknowledging anything.
		var hdr [headerLen]byte
		copy(hdr[:4], fileMagic)
		binary.LittleEndian.PutUint32(hdr[4:8], fileVersion)
		binary.LittleEndian.PutUint64(hdr[8:16], opt.BaseDigest)
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return nil, ReplayInfo{}, fmt.Errorf("wal: writing header: %w", err)
		}
		if err := l.fsync(f); err != nil {
			f.Close()
			return nil, ReplayInfo{}, fmt.Errorf("wal: fsync header: %w", err)
		}
		if err := fsyncDir(path); err != nil {
			f.Close()
			return nil, ReplayInfo{}, fmt.Errorf("wal: fsync dir: %w", err)
		}
		l.off = headerLen
		return l, ReplayInfo{}, nil
	}

	info, err := l.scan(opt.BaseDigest, st.Size())
	if err != nil {
		f.Close()
		return nil, ReplayInfo{}, err
	}
	return l, info, nil
}

// scan validates the header, replays records, and truncates a torn tail.
func (l *Log) scan(wantBase uint64, size int64) (ReplayInfo, error) {
	if size < headerLen {
		// Even the header is torn: the log acknowledged nothing, so an
		// empty-but-valid log is the correct recovery. Rewrite it.
		if err := l.reinit(wantBase); err != nil {
			return ReplayInfo{}, err
		}
		return ReplayInfo{Truncated: true, DroppedBytes: size}, nil
	}
	hdr := make([]byte, headerLen)
	if _, err := l.f.ReadAt(hdr, 0); err != nil {
		return ReplayInfo{}, fmt.Errorf("wal: reading header: %w", err)
	}
	if string(hdr[:4]) != fileMagic {
		return ReplayInfo{}, fmt.Errorf("%w: bad magic %q", ErrBadLog, hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != fileVersion {
		return ReplayInfo{}, fmt.Errorf("%w: unsupported version %d", ErrBadLog, v)
	}
	if base := binary.LittleEndian.Uint64(hdr[8:16]); base != wantBase {
		return ReplayInfo{}, fmt.Errorf("%w: log base %016x, serving source %016x", ErrBaseMismatch, base, wantBase)
	}

	var info ReplayInfo
	off := int64(headerLen)
	for off < size {
		b, next, ok := l.readRecord(off, size)
		if !ok {
			break // torn tail starts here
		}
		if len(info.Batches) > 0 && b.Seq != info.Batches[len(info.Batches)-1].Seq+1 {
			// Non-contiguous acknowledged records cannot come from a crash;
			// the file is damaged in a way truncation cannot explain.
			return ReplayInfo{}, fmt.Errorf("%w: batch seq %d follows %d", ErrBadLog, b.Seq, info.Batches[len(info.Batches)-1].Seq)
		}
		info.Batches = append(info.Batches, b)
		l.seq = b.Seq
		off = next
	}
	if off < size {
		info.Truncated = true
		info.DroppedBytes = size - off
		if err := l.truncateTo(off); err != nil {
			return ReplayInfo{}, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	l.off = off
	return info, nil
}

// readRecord decodes the record at off; ok=false means the bytes from off
// on do not form a complete valid record (the torn-tail case).
func (l *Log) readRecord(off, size int64) (Batch, int64, bool) {
	var head [5]byte
	if off+int64(len(head)) > size {
		return Batch{}, 0, false
	}
	if _, err := l.f.ReadAt(head[:], off); err != nil {
		return Batch{}, 0, false
	}
	if head[0] != recBatch {
		return Batch{}, 0, false
	}
	plen := int64(binary.LittleEndian.Uint32(head[1:5]))
	if plen > maxRecordLen || off+5+plen+4 > size {
		return Batch{}, 0, false
	}
	buf := make([]byte, plen+4)
	if _, err := l.f.ReadAt(buf, off+5); err != nil {
		return Batch{}, 0, false
	}
	payload, stored := buf[:plen], binary.LittleEndian.Uint32(buf[plen:])
	if crc32.ChecksumIEEE(payload) != stored {
		return Batch{}, 0, false
	}
	b, err := decodeBatch(payload)
	if err != nil {
		return Batch{}, 0, false
	}
	return b, off + 5 + plen + 4, true
}

// Append encodes b, writes it, and fsyncs before returning. Only a nil
// return means the batch is durable; on error the partial record is
// truncated away so the log stays well-formed (if even the truncation
// fails, the log marks itself broken and refuses further appends).
func (l *Log) Append(b Batch) error {
	if l.broken {
		return ErrClosed
	}
	if b.Seq <= l.seq {
		return fmt.Errorf("wal: batch seq %d not after %d", b.Seq, l.seq)
	}
	payload := encodeBatch(b)
	rec := make([]byte, 0, 5+len(payload)+4)
	rec = append(rec, recBatch)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))

	if _, err := l.f.Seek(l.off, io.SeekStart); err != nil {
		return l.fail(fmt.Errorf("wal: seek: %w", err))
	}
	if _, err := l.w.Write(rec); err != nil {
		return l.fail(fmt.Errorf("wal: append: %w", err))
	}
	if err := l.fsync(l.f); err != nil {
		return l.fail(fmt.Errorf("wal: fsync: %w", err))
	}
	l.off += int64(len(rec))
	l.seq = b.Seq
	return nil
}

// fail heals the log after a mid-append error by cutting the partial
// record; the append error is returned either way.
func (l *Log) fail(err error) error {
	if terr := l.truncateTo(l.off); terr != nil {
		l.broken = true
	}
	return err
}

func (l *Log) truncateTo(off int64) error {
	if err := l.f.Truncate(off); err != nil {
		return err
	}
	return l.fsync(l.f)
}

// reinit rewrites a valid empty log in place (used when even the header
// was torn).
func (l *Log) reinit(base uint64) error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: reinit truncate: %w", err)
	}
	var hdr [headerLen]byte
	copy(hdr[:4], fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], fileVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], base)
	if _, err := l.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("wal: reinit header: %w", err)
	}
	if err := l.fsync(l.f); err != nil {
		return fmt.Errorf("wal: reinit fsync: %w", err)
	}
	l.off = headerLen
	return nil
}

// Mark captures the log's current durable position (offset + sequence)
// for a possible Rollback.
type Mark struct {
	off int64
	seq uint64
}

// Mark returns the current durable position. The mutation service takes a
// mark before appending a batch so a batch whose *apply* step fails can be
// rolled back — the client got an error, so the record must not resurrect
// at boot replay as if it had been acknowledged.
func (l *Log) Mark() Mark { return Mark{off: l.off, seq: l.seq} }

// Rollback truncates the log back to a mark taken earlier, discarding
// every record appended since. If the truncation itself fails the log
// wedges itself (ErrClosed thereafter): appending after an unremovable
// orphan record would corrupt the sequence contiguity invariant.
func (l *Log) Rollback(m Mark) error {
	if l.broken {
		return ErrClosed
	}
	if m.off < headerLen || m.off > l.off {
		return fmt.Errorf("wal: rollback to invalid offset %d (log at %d)", m.off, l.off)
	}
	if err := l.truncateTo(m.off); err != nil {
		l.broken = true
		return fmt.Errorf("wal: rollback: %w", err)
	}
	l.off = m.off
	l.seq = m.seq
	return nil
}

// Reset truncates the log back to its header — compaction, called only
// after a snapshot covering every logged batch is durable. The sequence
// counter is NOT reset: later appends continue the deployment-wide
// numbering the snapshot metadata refers to.
func (l *Log) Reset() error {
	if l.broken {
		return ErrClosed
	}
	if err := l.truncateTo(headerLen); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	l.off = headerLen
	return nil
}

// LastSeq reports the highest batch sequence number the log has seen
// (from replay or appends); 0 means none.
func (l *Log) LastSeq() uint64 { return l.seq }

// SetLastSeq advances the sequence floor — boot uses it when the snapshot
// covers batches the (compacted) log no longer holds, so fresh appends
// continue the deployment-wide numbering.
func (l *Log) SetLastSeq(seq uint64) {
	if seq > l.seq {
		l.seq = seq
	}
}

// Size reports the log's current byte length (header included) — the
// -wal-max-bytes compaction trigger reads it after every append.
func (l *Log) Size() int64 { return l.off }

// Close closes the underlying file. The log must not be used afterwards.
func (l *Log) Close() error {
	l.broken = true
	return l.f.Close()
}

func encodeBatch(b Batch) []byte {
	n := 8 + 4 + 4*len(b.AddVertices) + 4 + 8*len(b.AddEdges) + 4 + 8*len(b.RemoveEdges)
	out := make([]byte, 0, n)
	out = binary.LittleEndian.AppendUint64(out, b.Seq)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.AddVertices)))
	for _, l := range b.AddVertices {
		out = binary.LittleEndian.AppendUint32(out, uint32(l))
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.AddEdges)))
	for _, e := range b.AddEdges {
		out = binary.LittleEndian.AppendUint32(out, uint32(e.From))
		out = binary.LittleEndian.AppendUint32(out, uint32(e.To))
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.RemoveEdges)))
	for _, e := range b.RemoveEdges {
		out = binary.LittleEndian.AppendUint32(out, uint32(e.From))
		out = binary.LittleEndian.AppendUint32(out, uint32(e.To))
	}
	return out
}

func decodeBatch(p []byte) (Batch, error) {
	var b Batch
	r := byteReader{p: p}
	b.Seq = r.u64()
	nv := r.u32()
	if nv > maxBatchItems {
		return Batch{}, fmt.Errorf("vertex count %d", nv)
	}
	for i := uint32(0); i < nv && r.err == nil; i++ {
		b.AddVertices = append(b.AddVertices, graph.Label(r.u32()))
	}
	na := r.u32()
	if na > maxBatchItems {
		return Batch{}, fmt.Errorf("add-edge count %d", na)
	}
	for i := uint32(0); i < na && r.err == nil; i++ {
		from, to := r.u32(), r.u32()
		b.AddEdges = append(b.AddEdges, graph.Edge{From: graph.V(from), To: graph.V(to)})
	}
	nr := r.u32()
	if nr > maxBatchItems {
		return Batch{}, fmt.Errorf("remove-edge count %d", nr)
	}
	for i := uint32(0); i < nr && r.err == nil; i++ {
		from, to := r.u32(), r.u32()
		b.RemoveEdges = append(b.RemoveEdges, graph.Edge{From: graph.V(from), To: graph.V(to)})
	}
	if r.err != nil {
		return Batch{}, r.err
	}
	if r.off != len(p) {
		return Batch{}, fmt.Errorf("%d trailing payload bytes", len(p)-r.off)
	}
	return b, nil
}

type byteReader struct {
	p   []byte
	off int
	err error
}

func (r *byteReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.p) {
		if r.err == nil {
			r.err = io.ErrUnexpectedEOF
		}
		return 0
	}
	v := binary.LittleEndian.Uint32(r.p[r.off:])
	r.off += 4
	return v
}

func (r *byteReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.p) {
		if r.err == nil {
			r.err = io.ErrUnexpectedEOF
		}
		return 0
	}
	v := binary.LittleEndian.Uint64(r.p[r.off:])
	r.off += 8
	return v
}

func fsyncDir(path string) error {
	d, err := os.Open(dirOf(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == os.PathSeparator {
			return path[:i+1]
		}
	}
	return "."
}
