package fs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSyncConcurrentWithWrites drives the update demon path by hand
// while foreground writers keep dirtying pages, exercising the
// pipelined write-back (snapshot generations, scatter-gather
// dispatch, MarkCleanIfBatch) under the race detector. Every byte
// written must be readable afterwards, from this server and — after
// an unmount — from a fresh one.
func TestSyncConcurrentWithWrites(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "m0", func(c *Config) {
		c.FlushParallelism = 8
		c.SyncEvery = time.Hour // we drive Sync ourselves
	})

	// One foreground writer (the FS serializes ops per server through
	// its lock clerk; cross-goroutine op concurrency is a non-goal) —
	// the interesting concurrency is writer vs. the sync demon.
	const (
		writers  = 1
		files    = 10
		fileSize = 48 << 10
	)
	var syncWG, writeWG sync.WaitGroup
	stop := make(chan struct{})
	syncWG.Add(1)
	go func() {
		defer syncWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := f.Sync(); err != nil {
				t.Errorf("sync: %v", err)
				return
			}
		}
	}()
	content := func(w, i int) []byte {
		return bytes.Repeat([]byte{byte(0x11*w + i + 1)}, fileSize)
	}
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < files; i++ {
				path := fmt.Sprintf("/w%d-%d", w, i)
				h, err := f.OpenFile(path, true)
				if err != nil {
					t.Errorf("open %s: %v", path, err)
					return
				}
				data := content(w, i)
				// Write in page-sized strides so the sync demon keeps
				// catching the file half-dirty.
				for off := 0; off < len(data); off += BlockSize {
					end := off + BlockSize
					if end > len(data) {
						end = len(data)
					}
					if _, err := h.WriteAt(data[off:end], int64(off)); err != nil {
						t.Errorf("write %s: %v", path, err)
						return
					}
				}
			}
		}(w)
	}
	writeWG.Wait()
	close(stop)
	syncWG.Wait()

	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < files; i++ {
			path := fmt.Sprintf("/w%d-%d", w, i)
			if got := readFile(t, f, path); !bytes.Equal(got, content(w, i)) {
				t.Fatalf("%s corrupted after concurrent sync", path)
			}
		}
	}
	m := f.m
	if m.flushRuns.Value() == 0 || m.flushPages.Value() == 0 {
		t.Fatalf("pipeline counters empty: runs=%d pages=%d", m.flushRuns.Value(), m.flushPages.Value())
	}
	t.Logf("batches=%d runs=%d pages=%d peak=%d",
		m.flushBatches.Value(), m.flushRuns.Value(), m.flushPages.Value(), m.flushPeak.Value())

	// A fresh server must see the same bytes (write-back actually
	// reached Petal, not just the cache).
	if err := f.Unmount(); err != nil {
		t.Fatal(err)
	}
	f2 := tw.mount(t, "m1", nil)
	for w := 0; w < writers; w++ {
		for i := 0; i < files; i++ {
			path := fmt.Sprintf("/w%d-%d", w, i)
			if got := readFile(t, f2, path); !bytes.Equal(got, content(w, i)) {
				t.Fatalf("%s wrong on fresh mount", path)
			}
		}
	}
}

// TestFlushParallelismEquivalence writes the same tree through the
// serial (FlushParallelism=1) and pipelined paths and checks both
// come back bit-identical on a fresh mount.
func TestFlushParallelismEquivalence(t *testing.T) {
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			tw := newTestWorld(t)
			f := tw.mount(t, "m0", func(c *Config) { c.FlushParallelism = par })
			var want [][]byte
			for i := 0; i < 6; i++ {
				data := bytes.Repeat([]byte{byte(i + 1)}, (i+1)*17*1024)
				writeFile(t, f, fmt.Sprintf("/f%d", i), data)
				want = append(want, data)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if par > 1 && f.m.flushBatches.Value() == 0 {
				t.Fatal("pipelined path never dispatched a batch")
			}
			if err := f.Unmount(); err != nil {
				t.Fatal(err)
			}
			f2 := tw.mount(t, "m1", nil)
			for i, data := range want {
				if got := readFile(t, f2, fmt.Sprintf("/f%d", i)); !bytes.Equal(got, data) {
					t.Fatalf("file %d differs (par=%d)", i, par)
				}
			}
		})
	}
}
