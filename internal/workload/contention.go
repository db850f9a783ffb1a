package workload

import (
	"io"

	"frangipani/internal/sim"
)

// ReaderWriterContention is the Figure 8/9 rig: one writer keeps
// rewriting the first writeBytes of a shared file while each reader
// reads the file sequentially in a loop. "As a result, the writer
// repeatedly acquires the write lock, then gets a callback to
// downgrade it so that the readers can get the read lock" (§9.4).
// The file (of fileSize bytes) must already exist with its contents
// written; duration is the measurement window in simulated time. It
// returns what the readers and the writer did inside the window.
func ReaderWriterContention(clock *sim.Clock, writer FS, readers []FS, path string,
	fileSize int64, writeBytes int, duration sim.Duration) (read, written Result, err error) {

	wh, err := writer.Open(path, false)
	if err != nil {
		return read, written, err
	}
	var rhs []File
	for _, r := range readers {
		h, err := r.Open(path, false)
		if err != nil {
			return read, written, err
		}
		rhs = append(rhs, h)
	}
	run := NewRunner(clock, 2)
	buf := content(writeBytes, 1)
	run.Go(1, func() (int64, error) { return int64(len(buf)), write(wh, buf) }, nil)
	for _, h := range rhs {
		buf, off := make([]byte, 64<<10), int64(0)
		run.Go(0, func() (int64, error) {
			n, err := h.ReadAt(buf, off)
			off += int64(n)
			if err == io.EOF || off >= fileSize {
				off, err = 0, nil
			}
			return int64(n), err
		}, nil)
	}
	run.Measure(duration)
	res, err := run.Stop()
	if err != nil {
		return read, written, err
	}
	return res[0], res[1], nil
}

// WriteSharing is the third §9.4 experiment: N writers all rewriting
// the same region of one file. The write lock ping-pongs between the
// servers; each handoff forces a flush. It returns the writes done
// inside the window.
func WriteSharing(clock *sim.Clock, writers []FS, path string, writeBytes int,
	duration sim.Duration) (Result, error) {

	var hs []File
	for _, w := range writers {
		h, err := w.Open(path, false)
		if err != nil {
			return Result{}, err
		}
		hs = append(hs, h)
	}
	run := NewRunner(clock, 1)
	for i, h := range hs {
		buf := content(writeBytes, i)
		run.Go(0, func() (int64, error) { return int64(len(buf)), write(h, buf) }, nil)
	}
	run.Measure(duration)
	res, err := run.Stop()
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// write rewrites the start of h with buf.
func write(h File, buf []byte) error {
	_, err := h.WriteAt(buf, 0)
	return err
}
