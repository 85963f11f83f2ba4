package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"bigindex/internal/core"
	"bigindex/internal/datagen"
	"bigindex/internal/faultio"
	"bigindex/internal/ontology"
)

// buildFixture builds a small but real multi-layer index once per process.
func buildFixture(t testing.TB) (*datagen.Dataset, *core.Index) {
	t.Helper()
	ds := datagen.Generate(datagen.Options{
		Name: "snap", Entities: 200, Terms: 40, LeafTypes: 6, Seed: 7,
	})
	opt := core.DefaultBuildOptions()
	opt.Search.SampleCount = 20
	idx, err := core.Build(ds.Graph, ds.Ont, opt)
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumLayers() < 2 {
		t.Fatalf("fixture built only %d layers; snapshot tests need summaries", idx.NumLayers())
	}
	return ds, idx
}

func encode(t testing.TB, idx *core.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, idx, Meta{CreatedUnix: 1700000000, BuildNote: "test"}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameIndex asserts two indexes are structurally identical: layer count,
// per-layer graphs (labels + adjacency), configs, and both vertex maps.
func sameIndex(t *testing.T, want, got *core.Index) {
	t.Helper()
	if want.NumLayers() != got.NumLayers() {
		t.Fatalf("layers: want %d, got %d", want.NumLayers(), got.NumLayers())
	}
	if want.Epoch() != got.Epoch() {
		t.Fatalf("epoch: want %d, got %d", want.Epoch(), got.Epoch())
	}
	for m := 0; m < want.NumLayers(); m++ {
		wl, gl := want.Layer(m), got.Layer(m)
		if wl.Graph.Digest() != gl.Graph.Digest() {
			t.Fatalf("layer %d graph digest mismatch", m)
		}
		if m == 0 {
			continue
		}
		wm, gm := wl.Config.Mappings(), gl.Config.Mappings()
		if len(wm) != len(gm) {
			t.Fatalf("layer %d config size: want %d, got %d", m, len(wm), len(gm))
		}
		for i := range wm {
			// Labels live in different dictionaries; compare by name.
			if want.Data().Dict().Name(wm[i].From) != got.Data().Dict().Name(gm[i].From) ||
				want.Data().Dict().Name(wm[i].To) != got.Data().Dict().Name(gm[i].To) {
				t.Fatalf("layer %d config rule %d differs", m, i)
			}
		}
		if len(wl.Up) != len(gl.Up) || len(wl.Down) != len(gl.Down) {
			t.Fatalf("layer %d map sizes differ", m)
		}
		for v := range wl.Up {
			if wl.Up[v] != gl.Up[v] {
				t.Fatalf("layer %d Up[%d]: want %d, got %d", m, v, wl.Up[v], gl.Up[v])
			}
		}
		for s := range wl.Down {
			if len(wl.Down[s]) != len(gl.Down[s]) {
				t.Fatalf("layer %d Down[%d] sizes differ", m, s)
			}
			for i := range wl.Down[s] {
				if wl.Down[s][i] != gl.Down[s][i] {
					t.Fatalf("layer %d Down[%d][%d] differs", m, s, i)
				}
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	ds, idx := buildFixture(t)
	data := encode(t, idx)
	got, meta, err := Read(bytes.NewReader(data), ds.Ont)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	sameIndex(t, idx, got)
	if meta.SourceDigest != ds.Graph.Digest() {
		t.Fatalf("meta digest %016x, want %016x", meta.SourceDigest, ds.Graph.Digest())
	}
	if meta.CreatedUnix != 1700000000 || meta.BuildNote != "test" {
		t.Fatalf("caller meta not preserved: %+v", meta)
	}
	if meta.Layers != idx.NumLayers() {
		t.Fatalf("meta layers %d, want %d", meta.Layers, idx.NumLayers())
	}
}

// The stored configurations are re-validated against the caller's
// ontology: one without the index's supertype edges is refused, and a nil
// ontology skips the check.
func TestReadValidatesConfigs(t *testing.T) {
	_, idx := buildFixture(t)
	data := encode(t, idx)
	if _, _, err := Read(bytes.NewReader(data), ontology.New(nil)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("incompatible ontology: got %v, want ErrBadSnapshot", err)
	}
	if _, _, err := Read(bytes.NewReader(data), nil); err != nil {
		t.Fatalf("nil-ontology read failed: %v", err)
	}
}

func TestRoundTripPreservesEpoch(t *testing.T) {
	ds, idx := buildFixture(t)
	idx, err := idx.Refreshed(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Epoch() != 1 {
		t.Fatalf("epoch after refresh = %d", idx.Epoch())
	}
	got, meta, err := Read(bytes.NewReader(encode(t, idx)), ds.Ont)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch() != 1 || meta.Epoch != 1 {
		t.Fatalf("epoch not carried: index %d, meta %d", got.Epoch(), meta.Epoch)
	}
}

func TestWriteDeterministic(t *testing.T) {
	_, idx := buildFixture(t)
	if !bytes.Equal(encode(t, idx), encode(t, idx)) {
		t.Fatal("two Writes of the same index differ")
	}
}

// Every single-byte corruption anywhere in the file must be detected at
// load: the per-section and whole-file CRCs leave no byte uncovered (the
// trailer checksum bytes are themselves the comparison operand).
func TestSingleByteCorruptionSweep(t *testing.T) {
	ds, idx := buildFixture(t)
	data := encode(t, idx)
	step := 1
	if testing.Short() {
		step = 97
	}
	for off := 0; off < len(data); off += step {
		_, _, err := Read(bytes.NewReader(faultio.Flip(data, off)), ds.Ont)
		if err == nil {
			t.Fatalf("flip at offset %d/%d loaded successfully", off, len(data))
		}
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("flip at offset %d: error %v is not ErrBadSnapshot", off, err)
		}
	}
}

// Every proper prefix of the file must fail to load: a torn write (crash
// mid-write without the atomic rename protocol) can never produce an
// index silently missing its tail.
func TestTruncationSweep(t *testing.T) {
	ds, idx := buildFixture(t)
	data := encode(t, idx)
	step := 1
	if testing.Short() {
		step = 97
	}
	for n := 0; n < len(data); n += step {
		_, _, err := Read(bytes.NewReader(data[:n]), ds.Ont)
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded successfully", n, len(data))
		}
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("prefix %d: error %v is not ErrBadSnapshot", n, err)
		}
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	ds, idx := buildFixture(t)
	data := append(encode(t, idx), 0xAB)
	if _, _, err := Read(bytes.NewReader(data), ds.Ont); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("trailing garbage: got %v", err)
	}
}

func TestReadRejectsJunk(t *testing.T) {
	ds, _ := buildFixture(t)
	for _, in := range [][]byte{nil, []byte("x"), []byte("BIGG1234"), []byte("BIGS")} {
		if _, _, err := Read(bytes.NewReader(in), ds.Ont); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("input %q: got %v, want ErrBadSnapshot", in, err)
		}
	}
}

// A mid-load I/O error is reported, never a panic or a partial index.
func TestReadFailsCleanlyOnIOError(t *testing.T) {
	ds, idx := buildFixture(t)
	data := encode(t, idx)
	for _, budget := range []int64{0, 3, 17, int64(len(data) / 2), int64(len(data) - 1)} {
		got, _, err := Read(faultio.FailReader(bytes.NewReader(data), budget), ds.Ont)
		if err == nil || got != nil {
			t.Fatalf("budget %d: got index %v, err %v", budget, got, err)
		}
	}
}

// SaveFile's crash-safety contract: kill the write at EVERY byte offset
// and verify the previous good snapshot under the final name still loads.
// The atomic temp+rename protocol means a torn write is never visible.
func TestCrashAtEveryWritePoint(t *testing.T) {
	ds, idx := buildFixture(t)
	// Byte length of exactly what the sweep's saves will write (Write is
	// deterministic for a fixed meta).
	var sized bytes.Buffer
	if err := Write(&sized, idx, Meta{CreatedUnix: 2}); err != nil {
		t.Fatal(err)
	}
	data := sized.Bytes()
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.bigs")

	// Establish the "previous good snapshot" the crash must not destroy.
	if err := SaveFile(path, idx, Meta{CreatedUnix: 1}); err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	step := 1
	if testing.Short() {
		step = 509
	}
	for budget := 0; budget <= len(data); budget += step {
		err := SaveFileHooks(path, idx, Meta{CreatedUnix: 2}, Hooks{
			WrapWriter: func(w io.Writer) io.Writer { return faultio.FailWriter(w, int64(budget)) },
		})
		if budget < len(data) {
			if !errors.Is(err, faultio.ErrInjected) {
				t.Fatalf("budget %d: want injected failure, got %v", budget, err)
			}
			now, rerr := os.ReadFile(path)
			if rerr != nil || !bytes.Equal(now, prev) {
				t.Fatalf("budget %d: previous snapshot disturbed (read err %v)", budget, rerr)
			}
		} else if err != nil {
			t.Fatalf("budget %d (full write): %v", budget, err)
		}
	}

	// No temp litter: failed saves must clean up after themselves.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != filepath.Base(path) {
			t.Fatalf("leftover temp file %q", e.Name())
		}
	}

	// The final full-budget save replaced the snapshot; it must load.
	if _, _, err := LoadFile(path, ds.Ont); err != nil {
		t.Fatalf("snapshot after sweep: %v", err)
	}
}

// A disk that acknowledges writes it drops (faultio.ShortWriter) defeats
// in-process error handling by design — but the load-time checksums catch
// it, so the damage surfaces as ErrBadSnapshot, not silent data loss.
func TestLyingDiskCaughtAtLoad(t *testing.T) {
	ds, idx := buildFixture(t)
	var sized bytes.Buffer
	if err := Write(&sized, idx, Meta{CreatedUnix: 1}); err != nil {
		t.Fatal(err)
	}
	data := sized.Bytes()
	dir := t.TempDir()
	for _, budget := range []int64{0, 8, 64, int64(len(data) / 2), int64(len(data) - 1)} {
		path := filepath.Join(dir, "lying.bigs")
		err := SaveFileHooks(path, idx, Meta{CreatedUnix: 1}, Hooks{
			WrapWriter: func(w io.Writer) io.Writer { return faultio.ShortWriter(w, budget) },
		})
		if err != nil {
			t.Fatalf("budget %d: lying disk must not report failure: %v", budget, err)
		}
		if _, _, err := LoadFile(path, ds.Ont); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("budget %d: truncated-by-disk snapshot loaded: %v", budget, err)
		}
	}
}

// Failed fsync or rename must abort the publish and leave the previous
// snapshot untouched.
func TestFsyncAndRenameFailures(t *testing.T) {
	ds, idx := buildFixture(t)
	path := filepath.Join(t.TempDir(), "idx.bigs")
	if err := SaveFile(path, idx, Meta{CreatedUnix: 1}); err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]Hooks{
		"fsync":  {Fsync: faultio.FsyncError},
		"rename": {Rename: faultio.RenameError},
	} {
		if err := SaveFileHooks(path, idx, Meta{CreatedUnix: 2}, h); !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("%s: want injected failure, got %v", name, err)
		}
		now, rerr := os.ReadFile(path)
		if rerr != nil || !bytes.Equal(now, prev) {
			t.Fatalf("%s: previous snapshot disturbed", name)
		}
	}
	if _, _, err := LoadFile(path, ds.Ont); err != nil {
		t.Fatal(err)
	}
}

func TestLoadFileForDigestCheck(t *testing.T) {
	ds, idx := buildFixture(t)
	path := filepath.Join(t.TempDir(), "idx.bigs")
	if err := SaveFile(path, idx, Meta{CreatedUnix: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFileFor(path, ds.Ont, ds.Graph.Digest()); err != nil {
		t.Fatalf("matching digest rejected: %v", err)
	}
	if _, _, err := LoadFileFor(path, ds.Ont, ds.Graph.Digest()+1); !errors.Is(err, ErrSourceMismatch) {
		t.Fatalf("mismatched digest: got %v, want ErrSourceMismatch", err)
	}
}

func TestLoadFileMissing(t *testing.T) {
	ds, _ := buildFixture(t)
	_, _, err := LoadFile(filepath.Join(t.TempDir(), "absent.bigs"), ds.Ont)
	if !IsNotExist(err) {
		t.Fatalf("missing file: got %v", err)
	}
	if errors.Is(err, ErrBadSnapshot) {
		t.Fatal("missing file must not look like corruption")
	}
}

// Corruption errors must carry the failing section so operators can see
// what broke, and must wrap ErrBadSnapshot for the fallback decision.
func TestCorruptErrorShape(t *testing.T) {
	ds, idx := buildFixture(t)
	data := encode(t, idx)
	_, _, err := Read(bytes.NewReader(faultio.Flip(data, len(data)/2)), ds.Ont)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *CorruptError", err)
	}
	if ce.Section == "" || !strings.Contains(err.Error(), ce.Section) {
		t.Fatalf("error %q does not name its section", err)
	}
}

// Mutating the stored metadata (even keeping JSON valid) breaks the
// section CRC; and a metadata digest that disagrees with the decoded
// graph is caught by the cross-check. Both are typed corruption.
func TestMetaCannotLieAboutDigest(t *testing.T) {
	ds, idx := buildFixture(t)
	data := encode(t, idx)
	i := bytes.Index(data, []byte("source_digest"))
	if i < 0 {
		t.Fatal("metadata JSON not found in snapshot bytes")
	}
	if _, _, err := Read(bytes.NewReader(faultio.Flip(data, i+20)), ds.Ont); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("tampered metadata: got %v", err)
	}
}

// TestLoadFileWithBase covers the WAL-anchored boot handshake: a snapshot
// of a *mutated* index records the boot-time base digest alongside the
// (different) source digest of the graph it actually contains, plus the
// last WAL batch folded in, and boot accepts it by either digest.
func TestLoadFileWithBase(t *testing.T) {
	ds, idx := buildFixture(t)
	base := ds.Graph.Digest()
	path := filepath.Join(t.TempDir(), "idx.snap")
	if err := SaveFile(path, idx, Meta{
		CreatedUnix: 1700000000, BaseDigest: base, WALSeq: 7,
	}); err != nil {
		t.Fatal(err)
	}

	// Accepted via SourceDigest (unmutated: source == base here).
	got, meta, err := LoadFileWithBase(path, ds.Ont, base)
	if err != nil {
		t.Fatalf("load with matching base: %v", err)
	}
	sameIndex(t, idx, got)
	if meta.BaseDigest != base || meta.WALSeq != 7 {
		t.Fatalf("meta round trip: base %016x, wal_seq %d", meta.BaseDigest, meta.WALSeq)
	}

	// A mutated descendant: SourceDigest drifts but BaseDigest anchors it.
	// Simulate by saving with a BaseDigest that differs from the source and
	// asking for that base.
	fakeBase := base ^ 0x1234
	if err := SaveFile(path, idx, Meta{CreatedUnix: 1700000000, BaseDigest: fakeBase, WALSeq: 3}); err != nil {
		t.Fatal(err)
	}
	if _, meta, err = LoadFileWithBase(path, ds.Ont, fakeBase); err != nil {
		t.Fatalf("load via BaseDigest: %v", err)
	}
	if meta.WALSeq != 3 {
		t.Fatalf("wal_seq = %d, want 3", meta.WALSeq)
	}

	// Neither digest matches: refusing is what keeps a WAL from being
	// replayed onto an unrelated graph's snapshot.
	if _, _, err := LoadFileWithBase(path, ds.Ont, base^0xffff); err == nil || !errors.Is(err, ErrSourceMismatch) {
		t.Fatalf("unrelated base accepted: %v", err)
	}
}

// A body section whose length prefix claims more bytes than the file still
// holds is refused as corrupt, and LoadFile does not reserve the claimed
// length first: the one-step reservation is only for lengths the file can
// cover.
func TestLoadFileOverlongSectionAllocatesNothingBig(t *testing.T) {
	ds, idx := buildFixture(t)
	data := encode(t, idx)
	// header (magic, version), then meta and dict sections, each
	// kind u8 | len u64 | payload | crc u32; the body's length follows.
	off := 8
	for range 2 {
		off += 1 + 8 + int(binary.LittleEndian.Uint64(data[off+1:])) + 4
	}
	if data[off] != kindBody {
		t.Fatalf("expected the body section at offset %d, found kind %d", off, data[off])
	}
	const claimed = 1 << 30
	bad := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(bad[off+1:], claimed)
	path := filepath.Join(t.TempDir(), "overlong.bigs")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := LoadFile(path, ds.Ont)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("overlong section: got %v, want ErrBadSnapshot", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > claimed/16 {
		t.Fatalf("loading allocated %d bytes for a %d-byte file", grew, len(bad))
	}
}
