// Package workload implements the benchmark workloads of the paper's
// evaluation (§9) against a common file system interface, so the same
// driver runs over Frangipani and over the AdvFS-like baseline:
//
//   - the Modified Andrew Benchmark (Table 1, Figure 5),
//   - a Connectathon-style operation suite (Table 2),
//   - large-file sequential read/write (Table 3, Figures 6 and 7),
//   - a small-file read swarm (§9.2's 30-process 8 KB experiment),
//   - reader/writer and writer/writer contention rigs (Figures 8, 9
//     and the third lock-contention experiment).
package workload

import (
	"io"

	"frangipani/internal/fs"
	"frangipani/internal/localfs"
)

// File is an open file handle.
type File interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
	Sync() error
	Size() (int64, error)
}

// FS is the surface the workloads need; both file systems provide it
// through thin adapters.
type FS interface {
	Create(path string) error
	Mkdir(path string) error
	Remove(path string) error
	Rmdir(path string) error
	Rename(src, dst string) error
	Symlink(target, path string) error
	Readlink(path string) (string, error)
	Stat(path string) (size int64, isDir bool, err error)
	ReadDirNames(path string) ([]string, error)
	Open(path string, create bool) (File, error)
	Sync() error
}

// Frangipani adapts *fs.FS to the workload interface; the methods
// whose signatures already match are its own.
type Frangipani struct{ *fs.FS }

// Stat implements FS.
func (a Frangipani) Stat(path string) (int64, bool, error) {
	info, err := a.FS.Stat(path)
	if err != nil {
		return 0, false, err
	}
	return info.Size, info.Type == fs.TypeDir, nil
}

// ReadDirNames implements FS.
func (a Frangipani) ReadDirNames(path string) ([]string, error) {
	ents, err := a.FS.ReadDir(path)
	return names(ents, err, func(e fs.DirEntry) string { return e.Name })
}

// Open implements FS.
func (a Frangipani) Open(path string, create bool) (File, error) {
	return a.FS.OpenFile(path, create)
}

// Local adapts *localfs.FS to the workload interface, as Frangipani
// does *fs.FS.
type Local struct{ *localfs.FS }

// Stat implements FS.
func (a Local) Stat(path string) (int64, bool, error) {
	info, err := a.FS.Stat(path)
	if err != nil {
		return 0, false, err
	}
	return info.Size, info.IsDir, nil
}

// ReadDirNames implements FS.
func (a Local) ReadDirNames(path string) ([]string, error) {
	ents, err := a.FS.ReadDir(path)
	return names(ents, err, func(e localfs.DirEntry) string { return e.Name })
}

// names lists by name the entries a ReadDir returned.
func names[E any](ents []E, err error, name func(E) string) ([]string, error) {
	if err != nil {
		return nil, err
	}
	out := make([]string, len(ents))
	for i, e := range ents {
		out[i] = name(e)
	}
	return out, nil
}

// Open implements FS.
func (a Local) Open(path string, create bool) (File, error) {
	return a.FS.OpenFile(path, create)
}

// content fills a deterministic pseudo-random buffer.
func content(n int, seed int) []byte {
	b := make([]byte, n)
	x := uint32(seed)*2654435761 + 1
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
	return b
}

// writeAll writes data to a (new) file.
func writeAll(f FS, path string, data []byte) error {
	h, err := f.Open(path, true)
	if err != nil {
		return err
	}
	_, err = h.WriteAt(data, 0)
	return err
}

// readAll reads a whole file.
func readAll(f FS, path string) ([]byte, error) {
	h, err := f.Open(path, false)
	if err != nil {
		return nil, err
	}
	size, err := h.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	n, err := h.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return buf[:n], nil
}

// walk visits every path under root, calling fn with (path, isDir).
func walk(f FS, root string, fn func(path string, isDir bool) error) error {
	names, err := f.ReadDirNames(root)
	if err != nil {
		return err
	}
	for _, name := range names {
		p := root + "/" + name
		if root == "/" {
			p = "/" + name
		}
		_, isDir, err := f.Stat(p)
		if err != nil {
			return err
		}
		if err := fn(p, isDir); err != nil {
			return err
		}
		if isDir {
			if err := walk(f, p, fn); err != nil {
				return err
			}
		}
	}
	return nil
}
