package workload

import (
	"fmt"

	"frangipani/internal/sim"
)

// MAB is the Modified Andrew Benchmark: five phases over a small
// source tree — create the directory hierarchy, copy the source
// files in, stat every file (directory status), read every file
// (scan), and "compile" (read sources, write outputs). The paper
// uses it for Table 1 and Figure 5.
type MAB struct {
	// Dirs is the number of directories in the tree.
	Dirs int
	// FilesPerDir is the number of source files per directory.
	FilesPerDir int
	// FileSize is the size of each source file.
	FileSize int
}

// DefaultMAB sizes the benchmark like the original: ~70 files of a
// few KB across a handful of directories.
func DefaultMAB() MAB {
	return MAB{Dirs: 10, FilesPerDir: 7, FileSize: 4 << 10}
}

// MABPhases names the five phases.
var MABPhases = []string{"Create Directories", "Copy Files", "Directory Status", "Scan Files", "Compile"}

// Run executes the benchmark under root (which must not exist yet)
// and returns the five phase durations in simulated time.
func (m MAB) Run(f FS, clock *sim.Clock, root string) ([5]sim.Duration, error) {
	var phases [5]sim.Duration
	dir := func(i int) string { return fmt.Sprintf("%s/dir%02d", root, i) }
	file := func(i, j int) string { return fmt.Sprintf("%s/src%02d.c", dir(i), j) }

	if err := f.Mkdir(root); err != nil {
		return phases, err
	}

	// Phase 1: create directories.
	start := clock.Now()
	for i := 0; i < m.Dirs; i++ {
		if err := f.Mkdir(dir(i)); err != nil {
			return phases, err
		}
	}
	phases[0] = sim.Duration(clock.Now() - start)

	// Phase 2: copy files (write the source tree).
	start = clock.Now()
	for i := 0; i < m.Dirs; i++ {
		for j := 0; j < m.FilesPerDir; j++ {
			if err := writeAll(f, file(i, j), content(m.FileSize, i*100+j)); err != nil {
				return phases, err
			}
		}
	}
	phases[1] = sim.Duration(clock.Now() - start)

	// Phase 3: directory status (recursive stat).
	start = clock.Now()
	if err := walk(f, root, func(path string, isDir bool) error {
		_, _, err := f.Stat(path)
		return err
	}); err != nil {
		return phases, err
	}
	phases[2] = sim.Duration(clock.Now() - start)

	// Phase 4: scan files (read every byte).
	start = clock.Now()
	if err := walk(f, root, func(path string, isDir bool) error {
		if isDir {
			return nil
		}
		_, err := readAll(f, path)
		return err
	}); err != nil {
		return phases, err
	}
	phases[3] = sim.Duration(clock.Now() - start)

	// Phase 5: compile — read every source, emit one object file per
	// directory plus a final "binary".
	start = clock.Now()
	for i := 0; i < m.Dirs; i++ {
		var objSize int
		for j := 0; j < m.FilesPerDir; j++ {
			data, err := readAll(f, file(i, j))
			if err != nil {
				return phases, err
			}
			objSize += len(data) / 2
		}
		if err := writeAll(f, fmt.Sprintf("%s/out%02d.o", dir(i), i), content(objSize, i)); err != nil {
			return phases, err
		}
	}
	if err := writeAll(f, root+"/a.out", content(m.Dirs*m.FileSize, 7)); err != nil {
		return phases, err
	}
	phases[4] = sim.Duration(clock.Now() - start)
	return phases, nil
}
