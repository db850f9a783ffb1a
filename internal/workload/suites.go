package workload

import (
	"fmt"
	"io"

	"frangipani/internal/sim"
)

// Connectathon is a Connectathon-style operation suite: nine tests
// each hammering one class of file system operation, as used for the
// paper's Table 2.
type Connectathon struct {
	Files int // objects per test
}

// DefaultConnectathon mirrors the classic basic-ops counts.
func DefaultConnectathon() Connectathon { return Connectathon{Files: 60} }

// ConnectathonTests names the phases.
var ConnectathonTests = []string{
	"create/remove files", "mkdir/rmdir tree", "lookup across dirs",
	"getattr repeated", "setattr (truncate)", "write small files",
	"read small files", "readdir", "rename+symlink",
}

// Run executes the suite under root and returns per-test durations.
func (c Connectathon) Run(f FS, clock *sim.Clock, root string) ([9]sim.Duration, error) {
	var out [9]sim.Duration
	if err := f.Mkdir(root); err != nil {
		return out, err
	}
	// timeIt times test i, unless an earlier step failed.
	var err error
	timeIt := func(i int, fn func() error) {
		if err != nil {
			return
		}
		start := clock.Now()
		if err = fn(); err != nil {
			err = fmt.Errorf("%s: %w", ConnectathonTests[i], err)
		}
		out[i] = sim.Duration(clock.Now() - start)
	}

	// 1: create/remove.
	timeIt(0, func() error {
		for i := 0; i < c.Files; i++ {
			if err := f.Create(fmt.Sprintf("%s/t1-%d", root, i)); err != nil {
				return err
			}
		}
		for i := 0; i < c.Files; i++ {
			if err := f.Remove(fmt.Sprintf("%s/t1-%d", root, i)); err != nil {
				return err
			}
		}
		return nil
	})

	// 2: mkdir/rmdir a small tree.
	timeIt(1, func() error {
		for i := 0; i < c.Files/4; i++ {
			d := fmt.Sprintf("%s/d%d", root, i)
			if err := f.Mkdir(d); err != nil {
				return err
			}
			if err := f.Mkdir(d + "/sub"); err != nil {
				return err
			}
		}
		for i := 0; i < c.Files/4; i++ {
			d := fmt.Sprintf("%s/d%d", root, i)
			if err := f.Rmdir(d + "/sub"); err != nil {
				return err
			}
			if err := f.Rmdir(d); err != nil {
				return err
			}
		}
		return nil
	})

	// Setup a tree for lookups.
	for i := 0; i < 4 && err == nil; i++ {
		err = f.Mkdir(fmt.Sprintf("%s/lk%d", root, i))
		for j := 0; j < c.Files/4 && err == nil; j++ {
			err = f.Create(fmt.Sprintf("%s/lk%d/f%d", root, i, j))
		}
	}

	// 3: lookups across directories.
	timeIt(2, func() error {
		for pass := 0; pass < 3; pass++ {
			for i := 0; i < 4; i++ {
				for j := 0; j < c.Files/4; j++ {
					if _, _, err := f.Stat(fmt.Sprintf("%s/lk%d/f%d", root, i, j)); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})

	// 4: getattr repeated on one file (hot attribute cache).
	timeIt(3, func() error {
		for i := 0; i < c.Files*5; i++ {
			if _, _, err := f.Stat(root + "/lk0/f0"); err != nil {
				return err
			}
		}
		return nil
	})

	// 5: setattr via truncate.
	timeIt(4, func() error {
		h, err := f.Open(root+"/lk0/f0", false)
		if err != nil {
			return err
		}
		for i := 0; i < c.Files; i++ {
			if err := h.Truncate(int64(i % 7 * 512)); err != nil {
				return err
			}
		}
		return nil
	})

	// 6: write small files.
	timeIt(5, func() error {
		for i := 0; i < c.Files; i++ {
			if err := writeAll(f, fmt.Sprintf("%s/w%d", root, i), content(4096, i)); err != nil {
				return err
			}
		}
		return f.Sync()
	})

	// 7: read them back.
	timeIt(6, func() error {
		for i := 0; i < c.Files; i++ {
			if _, err := readAll(f, fmt.Sprintf("%s/w%d", root, i)); err != nil {
				return err
			}
		}
		return nil
	})

	// 8: readdir.
	timeIt(7, func() error {
		for i := 0; i < 20; i++ {
			if _, err := f.ReadDirNames(root); err != nil {
				return err
			}
		}
		return nil
	})

	// 9: rename + symlink + readlink.
	timeIt(8, func() error {
		for i := 0; i < c.Files/2; i++ {
			src := fmt.Sprintf("%s/w%d", root, i)
			dst := fmt.Sprintf("%s/r%d", root, i)
			if err := f.Rename(src, dst); err != nil {
				return err
			}
			ln := fmt.Sprintf("%s/ln%d", root, i)
			if err := f.Symlink(dst, ln); err != nil {
				return err
			}
			if _, err := f.Readlink(ln); err != nil {
				return err
			}
		}
		return nil
	})
	return out, err
}

// SeqWrite writes a file of total bytes in recSize records and
// returns the simulated duration (fsync'd at the end so the bytes
// actually move).
func SeqWrite(f FS, clock *sim.Clock, path string, total int64, recSize int) (sim.Duration, error) {
	h, err := f.Open(path, true)
	if err != nil {
		return 0, err
	}
	buf := content(recSize, 42)
	start := clock.Now()
	for off := int64(0); off < total; off += int64(recSize) {
		n := int64(recSize)
		if off+n > total {
			n = total - off
		}
		if _, err := h.WriteAt(buf[:n], off); err != nil {
			return 0, err
		}
	}
	if err := h.Sync(); err != nil {
		return 0, err
	}
	return sim.Duration(clock.Now() - start), nil
}

// SeqRead reads the file sequentially in recSize records.
func SeqRead(f FS, clock *sim.Clock, path string, recSize int) (int64, sim.Duration, error) {
	h, err := f.Open(path, false)
	if err != nil {
		return 0, 0, err
	}
	buf := make([]byte, recSize)
	start := clock.Now()
	var total int64
	for off := int64(0); ; {
		n, err := h.ReadAt(buf, off)
		total += int64(n)
		off += int64(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			return total, 0, err
		}
		if n == 0 {
			break
		}
	}
	return total, sim.Duration(clock.Now() - start), nil
}

// SmallReadSwarm runs `readers` concurrent goroutines each reading
// its own small file once with a cold cache: the files are written
// through prep (typically a different machine, so the reading
// server's cache starts empty). This is §9.2's "30 processes on a
// single Frangipani machine tried to read separate 8 KB files after
// invalidating the buffer cache" experiment.
func SmallReadSwarm(prep, f FS, clock *sim.Clock, dir string, readers, fileSize int) (int64, sim.Duration, error) {
	if err := prep.Mkdir(dir); err != nil {
		return 0, 0, err
	}
	for i := 0; i < readers; i++ {
		if err := writeAll(prep, fmt.Sprintf("%s/s%d", dir, i), content(fileSize, i)); err != nil {
			return 0, 0, err
		}
	}
	if err := prep.Sync(); err != nil {
		return 0, 0, err
	}
	start := clock.Now()
	err := Each(readers, func(i int) error {
		_, err := readAll(f, fmt.Sprintf("%s/s%d", dir, i))
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	return int64(readers) * int64(fileSize), sim.Duration(clock.Now() - start), nil
}
