package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path"
	"sync/atomic"
)

// The oracle. Every byte the benchmark writes is self-describing: a
// file is a sequence of 4 KB records, each starting with the 8-byte tag
// of the write that produced it and continuing with bytes of a seeded
// noise buffer chosen by (tag, record index). The model remembers, per
// record, the newest tag handed to WriteAt and the newest tag whose
// WriteAt returned; a read is correct when every record's tag lies
// between the two and the bytes after the tag match the noise for that
// tag. For a file only its own client touches the two are equal, so the
// check is exact; for /shared/data, which one server writes while the
// other reads, it is the coherence condition: never older than the last
// completed write, never a value that was not written.

const recSize = 4096

// noise is the source of record payloads, filled from the run's seed.
type noise []byte

func newNoise(seed int64) noise {
	n := make(noise, 1<<20+recSize)
	rand.New(rand.NewSource(seed)).Read(n)
	return n
}

// at returns the recSize payload bytes for a record written with tag.
func (n noise) at(tag uint64, rec int64) []byte {
	start := (tag*2654435761 + uint64(rec)*40503) % uint64(len(n)-recSize)
	return n[start : start+recSize]
}

// fill writes the records of buf, which lands at byte offset off (a
// multiple of recSize) of a file, as written with tag.
func (n noise) fill(buf []byte, off int64, tag uint64) {
	for pos := 0; pos < len(buf); pos += recSize {
		end := min(pos+recSize, len(buf))
		piece := buf[pos:end]
		binary.LittleEndian.PutUint64(piece, tag)
		copy(piece[8:], n.at(tag, off/recSize+int64(pos/recSize))[8:])
	}
}

// fileModel is the expected state of one file. Sizes and tags are
// atomics because the shared file is read by one client while the other
// writes it; the slices are sized at creation and never reallocated.
type fileModel struct {
	size   atomic.Int64
	issued []atomic.Uint64
	done   []atomic.Uint64
}

func newFileModel(maxBytes int64) *fileModel {
	recs := (maxBytes + recSize - 1) / recSize
	return &fileModel{issued: make([]atomic.Uint64, recs), done: make([]atomic.Uint64, recs)}
}

// recRange returns the record index range covered by [off, off+n).
func recRange(off int64, n int) (lo, hi int64) {
	return off / recSize, (off + int64(n) + recSize - 1) / recSize
}

// beginWrite and endWrite bracket a WriteAt of n bytes at off with tag.
func (m *fileModel) beginWrite(off int64, n int, tag uint64) {
	lo, hi := recRange(off, n)
	for r := lo; r < hi; r++ {
		m.issued[r].Store(tag)
	}
}

func (m *fileModel) endWrite(off int64, n int, tag uint64) {
	lo, hi := recRange(off, n)
	for r := lo; r < hi; r++ {
		m.done[r].Store(tag)
	}
	if end := off + int64(n); end > m.size.Load() {
		m.size.Store(end)
	}
}

// floors copies the completed tags of the records a read of n bytes at
// off will cover into buf; take it before issuing the read.
func (m *fileModel) floors(buf []uint64, off int64, n int) []uint64 {
	lo, hi := recRange(off, n)
	buf = buf[:0]
	for r := lo; r < hi; r++ {
		buf = append(buf, m.done[r].Load())
	}
	return buf
}

// check verifies the bytes a read at off returned against the model;
// floors is what floors returned before the read was issued.
func (m *fileModel) check(n noise, got []byte, off int64, floors []uint64) error {
	for i, pos := 0, 0; pos < len(got); i, pos = i+1, pos+recSize {
		piece := got[pos:min(pos+recSize, len(got))]
		rec := off/recSize + int64(i)
		tag := binary.LittleEndian.Uint64(piece)
		if tag < floors[i] || tag > m.issued[rec].Load() {
			return fmt.Errorf("record %d: tag %d outside [%d, %d]", rec, tag, floors[i], m.issued[rec].Load())
		}
		if !bytes.Equal(piece[8:], n.at(tag, rec)[8:len(piece)]) {
			return fmt.Errorf("record %d: payload does not match tag %d", rec, tag)
		}
	}
	return nil
}

// model is what one client has written: its files and the names it put
// in each directory. Only the owning client mutates the maps.
type model struct {
	files map[string]*fileModel
	dirs  map[string]map[string]bool
}

func newModel() *model {
	return &model{files: map[string]*fileModel{}, dirs: map[string]map[string]bool{}}
}

func (m *model) link(p string) {
	dir, name := path.Dir(p), path.Base(p)
	if m.dirs[dir] == nil {
		m.dirs[dir] = map[string]bool{}
	}
	m.dirs[dir][name] = true
}

func (m *model) unlink(p string) {
	dir, name := path.Dir(p), path.Base(p)
	delete(m.dirs[dir], name)
}
