package snapshot

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"bigindex/internal/core"
	"bigindex/internal/ontology"
)

// Hooks intercepts the filesystem operations of SaveFileHooks so the
// fault-injection suite (internal/faultio) can kill a save at any point —
// mid-write, before fsync, before rename — and assert the previous
// snapshot is untouched. Nil fields use the real operation.
type Hooks struct {
	// WrapWriter wraps the temp-file writer (e.g. faultio.FailWriter).
	WrapWriter func(io.Writer) io.Writer
	// Fsync replaces file.Sync on the temp file.
	Fsync func(*os.File) error
	// Rename replaces os.Rename of the temp file onto the final path.
	Rename func(oldpath, newpath string) error
	// SyncDir replaces the post-rename fsync of the containing directory.
	SyncDir func(dir string) error
}

// SaveFile atomically writes a snapshot of idx to path: the bytes go to a
// temp file in the same directory, are fsynced, renamed over path, and the
// directory is fsynced. A crash at any point leaves either the previous
// file intact or the new file complete — never a torn file under the final
// name. The temp file is removed on failure.
func SaveFile(path string, idx *core.Index, meta Meta) error {
	return SaveFileHooks(path, idx, meta, Hooks{})
}

// SaveFileHooks is SaveFile with fault-injection hooks.
func SaveFileHooks(path string, idx *core.Index, meta Meta, h Hooks) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: creating temp file: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()

	var base io.Writer = f
	if h.WrapWriter != nil {
		base = h.WrapWriter(f)
	}
	bw := bufio.NewWriter(base)
	if err = Write(bw, idx, meta); err != nil {
		return fmt.Errorf("snapshot: writing %s: %w", tmp, err)
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("snapshot: writing %s: %w", tmp, err)
	}

	// Durability order matters: the file's bytes must be on stable storage
	// before the rename publishes them, and the directory entry must be
	// synced after, or a crash can surface a name pointing at nothing.
	fsync := h.Fsync
	if fsync == nil {
		fsync = (*os.File).Sync
	}
	if err = fsync(f); err != nil {
		return fmt.Errorf("snapshot: fsync %s: %w", tmp, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("snapshot: closing %s: %w", tmp, err)
	}

	rename := h.Rename
	if rename == nil {
		rename = os.Rename
	}
	if err = rename(tmp, path); err != nil {
		return fmt.Errorf("snapshot: publishing %s: %w", path, err)
	}

	syncDir := h.SyncDir
	if syncDir == nil {
		syncDir = fsyncDir
	}
	if err = syncDir(dir); err != nil {
		// The rename already happened; the snapshot is visible but its
		// directory entry may not survive a power loss. Report it — the
		// caller's next save retries the whole sequence.
		return fmt.Errorf("snapshot: fsync dir %s: %w", dir, err)
	}
	return nil
}

func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// LoadFile reads and fully validates the snapshot at path. Corruption is
// reported as ErrBadSnapshot (via *CorruptError); a missing file is the
// usual fs.ErrNotExist, distinguishable so callers can treat "no snapshot
// yet" as a cold start rather than damage.
func LoadFile(path string, ont *ontology.Ontology) (*core.Index, Meta, error) {
	return loadFile(path, ont, nil)
}

// LoadFileFor is LoadFile plus source verification: the snapshot must have
// been built from a data graph with the given digest, or ErrSourceMismatch
// is returned. This is the daemon's boot path — serving an index built
// from different data would be silently wrong, which is worse than the
// rebuild the mismatch forces.
func LoadFileFor(path string, ont *ontology.Ontology, wantDigest uint64) (*core.Index, Meta, error) {
	return loadFile(path, ont, func(meta Meta) error {
		if meta.SourceDigest != wantDigest {
			return fmt.Errorf("%w: snapshot digest %016x, want %016x",
				ErrSourceMismatch, meta.SourceDigest, wantDigest)
		}
		return nil
	})
}

// LoadFileWithBase is the boot path for WAL-maintained deployments: the
// snapshot is accepted when it was built from the expected base graph
// directly (SourceDigest == base, no mutations yet) OR when it is a
// mutated descendant of that base (BaseDigest == base — the graph inside
// differs from the boot preset precisely because the WAL's batches were
// folded in). Anything else is ErrSourceMismatch: replaying this WAL onto
// that snapshot would splice mutation histories of unrelated graphs.
func LoadFileWithBase(path string, ont *ontology.Ontology, base uint64) (*core.Index, Meta, error) {
	return loadFile(path, ont, func(meta Meta) error {
		if meta.SourceDigest != base && meta.BaseDigest != base {
			return fmt.Errorf("%w: snapshot source %016x / base %016x, want base %016x",
				ErrSourceMismatch, meta.SourceDigest, meta.BaseDigest, base)
		}
		return nil
	})
}

func loadFile(path string, ont *ontology.Ontology, accept func(Meta) error) (*core.Index, Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Meta{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, Meta{}, err
	}
	return read(bufio.NewReader(f), ont, accept, st.Size())
}

// IsNotExist reports whether err is the "no snapshot file" case of
// LoadFile, as opposed to corruption or a read error.
func IsNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
