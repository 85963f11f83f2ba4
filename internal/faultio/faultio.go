// Package faultio provides fault-injecting io.Reader/io.Writer wrappers
// and filesystem hooks for crash-safety tests. The snapshot suite uses
// them to kill writes at every byte offset, simulate disks that silently
// drop tail bytes, make fsync or rename fail, and slow streams down so
// snapshot-write/query interleavings become reproducible.
//
// All injected failures return (or wrap) ErrInjected so tests can assert
// the failure they caused is the failure they observed.
package faultio

import (
	"errors"
	"io"
	"os"
	"time"
)

// ErrInjected is the sentinel error every injected fault carries.
var ErrInjected = errors.New("faultio: injected fault")

// FailWriter forwards to w until budget bytes have been written, then
// fails every write with ErrInjected. A write straddling the boundary
// writes the in-budget prefix and reports a short-write error, which is
// exactly how a full disk or a killed process truncates a stream.
func FailWriter(w io.Writer, budget int64) io.Writer {
	return &failWriter{w: w, left: budget}
}

type failWriter struct {
	w    io.Writer
	left int64
}

func (f *failWriter) Write(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, ErrInjected
	}
	if int64(len(p)) <= f.left {
		n, err := f.w.Write(p)
		f.left -= int64(n)
		return n, err
	}
	n, err := f.w.Write(p[:f.left])
	f.left -= int64(n)
	if err == nil {
		err = ErrInjected
	}
	return n, err
}

// ShortWriter forwards the first budget bytes to w and silently discards
// the rest while reporting success — a lying disk or kernel that loses
// tail bytes after acknowledging the write. Unlike FailWriter the caller
// never sees an error, so only load-time validation can catch the damage.
func ShortWriter(w io.Writer, budget int64) io.Writer {
	return &shortWriter{w: w, left: budget}
}

type shortWriter struct {
	w    io.Writer
	left int64
}

func (s *shortWriter) Write(p []byte) (int, error) {
	if s.left <= 0 {
		return len(p), nil
	}
	keep := int64(len(p))
	if keep > s.left {
		keep = s.left
	}
	n, err := s.w.Write(p[:keep])
	s.left -= int64(n)
	if err != nil {
		return n, err
	}
	return len(p), nil
}

// SlowWriter sleeps d before every Write, stretching the window in which
// concurrent activity (queries, mutations, shutdown) can interleave with a
// snapshot write.
func SlowWriter(w io.Writer, d time.Duration) io.Writer {
	return writerFunc(func(p []byte) (int, error) {
		time.Sleep(d)
		return w.Write(p)
	})
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// FailReader forwards from r until budget bytes have been read, then
// fails every read with ErrInjected (an I/O error mid-load).
func FailReader(r io.Reader, budget int64) io.Reader {
	return &failReader{r: r, left: budget}
}

type failReader struct {
	r    io.Reader
	left int64
}

func (f *failReader) Read(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, ErrInjected
	}
	if int64(len(p)) > f.left {
		p = p[:f.left]
	}
	n, err := f.r.Read(p)
	f.left -= int64(n)
	return n, err
}

// ShortReader yields at most budget bytes of r and then clean EOF — a
// truncated file whose tail never reached the disk.
func ShortReader(r io.Reader, budget int64) io.Reader {
	return io.LimitReader(r, budget)
}

// SlowReader sleeps d before every Read.
func SlowReader(r io.Reader, d time.Duration) io.Reader {
	return readerFunc(func(p []byte) (int, error) {
		time.Sleep(d)
		return r.Read(p)
	})
}

type readerFunc func(p []byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// FsyncError is a snapshot fsync hook that fails with ErrInjected without
// syncing: a crash between write and fsync, when the page cache still has
// the data but the platters never got it.
func FsyncError(*os.File) error { return ErrInjected }

// RenameError is a snapshot rename hook that fails with ErrInjected
// without renaming: a crash after the temp file is durable but before it
// is published under its final name.
func RenameError(_, _ string) error { return ErrInjected }

// Flip returns a copy of data with the byte at off XOR-flipped — the
// single-bit-rot primitive of the corruption sweeps.
func Flip(data []byte, off int) []byte {
	out := append([]byte(nil), data...)
	out[off] ^= 0xff
	return out
}
