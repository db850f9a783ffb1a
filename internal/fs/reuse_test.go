package fs

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
)

// stampPage fills page with the bytes version v of file page i holds:
// its index, its version and a body drawn from both.
func stampPage(page []byte, i, v uint64) {
	binary.LittleEndian.PutUint64(page[0:], i)
	binary.LittleEndian.PutUint64(page[8:], v)
	for j := 16; j < len(page); j++ {
		page[j] = byte(i*31 + v*7 + uint64(j))
	}
}

// checkPage returns what is wrong with page as read for file page want,
// which holds a version from lo to hi, or nil.
func checkPage(page []byte, want, lo, hi uint64) error {
	i, v := binary.LittleEndian.Uint64(page[0:]), binary.LittleEndian.Uint64(page[8:])
	if i != want {
		return fmt.Errorf("page %d holds page %d's bytes", want, i)
	}
	if v < lo || v > hi {
		return fmt.Errorf("page %d holds version %d, want %d to %d", want, v, lo, hi)
	}
	for j := 16; j < len(page); j++ {
		if page[j] != byte(i*31+v*7+uint64(j)) {
			return fmt.Errorf("page %d holds a torn or foreign body", want)
		}
	}
	return nil
}

// TestReusedPagesKeepTheirBlocks: two servers with eight-page data caches
// share one file of four chunks. A streaming writer on one rewrites it in
// 64 KB records; two sequential readers with read-ahead on the other read
// it in 64 KB records all the while, from different chunks, so every
// write revokes the readers' server's lock and every read revokes the
// writer's, and every fill, prefetch and write evicts pages and takes
// their entries again. A third reader runs on the writer's server, which
// admits its own users of a lock side by side, so its reads are not
// ordered with the writes: a page a whole-page write brings into the
// cache must arrive with its bytes, and a read must copy a page whole,
// under the pool's lock, never half way through a write into it. Every
// page read is checked against a model of the writes: it holds its own
// block's bytes, whole, never another block's, and a version no older
// than the newest write acknowledged before the read began and no newer
// than the newest begun before it returned.
func TestReusedPagesKeepTheirBlocks(t *testing.T) {
	const pages, rec, records = 4 * chunkPages, chunkPages * BlockSize, 96
	tw := newTestWorld(t)
	small := func(c *Config) { c.DataCacheCap = 8 }
	writer, reader := tw.mount(t, "wsW", small), tw.mount(t, "wsR", small)
	var issued, acked [pages]atomic.Uint64
	buf := make([]byte, pages*BlockSize)
	for i := range uint64(pages) {
		stampPage(buf[i*BlockSize:(i+1)*BlockSize], i, 0)
	}
	writeFile(t, writer, "/shared", buf)

	w, err := writer.Open("/shared")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for start, on := range []*FS{reader, reader, writer} {
		h, err := on.Open("/shared")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]byte, rec)
			var lo [chunkPages]uint64
			for n := 2 * start; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				off := int64(n%(pages/chunkPages)) * rec
				first := uint64(off / BlockSize)
				for k := range lo {
					lo[k] = acked[first+uint64(k)].Load()
				}
				if _, err := h.ReadAt(got, off); err != nil && err != io.EOF {
					t.Error(err)
					return
				}
				for k := range lo {
					i := first + uint64(k)
					if err := checkPage(got[k*BlockSize:(k+1)*BlockSize], i, lo[k], issued[i].Load()); err != nil {
						t.Errorf("reading at %d: %v", off, err)
						return
					}
				}
				reads.Add(1)
			}
		}()
	}
	page := make([]byte, rec)
	for r := uint64(1); r <= records; r++ {
		off := int64(r%(pages/chunkPages)) * rec
		first := uint64(off / BlockSize)
		for k := range uint64(chunkPages) {
			issued[first+k].Store(r)
			stampPage(page[k*BlockSize:(k+1)*BlockSize], first+k, r)
		}
		if _, err := w.WriteAt(page, off); err != nil {
			t.Error(err)
			break
		}
		for k := range uint64(chunkPages) {
			acked[first+k].Store(r)
		}
	}
	close(done)
	wg.Wait()
	if n := reads.Load(); n < 2 {
		t.Fatalf("%d reads checked beside %d writes", n, records)
	}
	t.Logf("%d reads checked beside %d writes", reads.Load(), records)
}
