package fs

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"frangipani/internal/lockservice"
	"frangipani/internal/petal"
)

const raRec = 64 << 10 // the record size of every streaming read below

// streamFixture writes size patterned bytes to path through a writer
// server and returns a handle on a second server whose cache is cold.
func streamFixture(t *testing.T, size int, mutate func(*Config)) (tw *testWorld, writer, reader *FS, h *File, data []byte) {
	t.Helper()
	tw = newTestWorld(t)
	writer = tw.mount(t, "wsW", nil)
	reader = tw.mount(t, "wsR", mutate)
	data = make([]byte, size)
	for i := range data {
		data[i] = byte(i>>12) ^ byte(i)
	}
	writeFile(t, writer, "/stream", data)
	if err := writer.Sync(); err != nil {
		t.Fatal(err)
	}
	h, err := reader.Open("/stream")
	if err != nil {
		t.Fatal(err)
	}
	return tw, writer, reader, h, data
}

// readRec reads one record at off and checks it against data.
func readRec(t *testing.T, h *File, data []byte, off int64, n int) {
	t.Helper()
	buf := make([]byte, n)
	got, err := h.ReadAt(buf, off)
	if err != nil && err != io.EOF {
		t.Fatalf("read at %d: %v", off, err)
	}
	if !bytes.Equal(buf[:got], data[off:off+int64(got)]) || got != n {
		t.Fatalf("read at %d: %d bytes, wrong data or short", off, got)
	}
}

// streamState snapshots a handle's read-ahead state.
func streamState(h *File) (next, ahead, window int64, busy int) {
	h.ra.mu.Lock()
	defer h.ra.mu.Unlock()
	return h.ra.next, h.ra.ahead, h.ra.window, h.ra.busy
}

// TestReadAheadEveryPass: read-ahead is a property of the stream, not
// of the first time a file is seen. Passes two and three over a file
// larger than the cache land prefetches like the first, and go to
// Petal in the foreground no more often.
func TestReadAheadEveryPass(t *testing.T) {
	const size = 1 << 20
	_, _, reader, h, data := streamFixture(t, size, func(c *Config) {
		c.DataCacheCap = 128 // 512 KB: a pass evicts what the one before cached
		c.ReadAhead = 64
	})
	var firstFills int64
	for pass := 1; pass <= 3; pass++ {
		hits, fills := reader.m.raHits.Value(), reader.m.fills.Value()
		for off := int64(0); off < size; off += raRec {
			readRec(t, h, data, off, raRec)
		}
		h.ra.drain()
		hits, fills = reader.m.raHits.Value()-hits, reader.m.fills.Value()-fills
		t.Logf("pass %d: %d prefetches landed, %d foreground fetches", pass, hits, fills)
		if hits == 0 {
			t.Errorf("pass %d landed no prefetch", pass)
		}
		if pass == 1 {
			firstFills = fills
		} else if fills > firstFills {
			t.Errorf("pass %d fetched %d times in the foreground, the first pass %d times", pass, fills, firstFills)
		}
	}
	if firstFills >= size/raRec/2 {
		t.Errorf("first pass fetched %d of %d records in the foreground", firstFills, size/raRec)
	}
}

// TestReadAheadSingleFlight: the reader and its prefetcher never fetch
// the same page twice, so a cold sequential read moves the file over
// the wire once.
func TestReadAheadSingleFlight(t *testing.T) {
	const size = 1 << 20
	_, _, reader, h, data := streamFixture(t, size, func(c *Config) { c.ReadAhead = 64 })
	before := reader.m.bytesRead.Value()
	for off := int64(0); off < size; off += raRec {
		readRec(t, h, data, off, raRec)
	}
	h.ra.drain()
	got := reader.m.bytesRead.Value() - before
	if window := int64(64 * BlockSize); got < size || got > size+window {
		t.Fatalf("cold sequential read of %d bytes fetched %d from Petal", size, got)
	}
	reader.fetchMu.Lock()
	claims := len(reader.inflight)
	reader.fetchMu.Unlock()
	if claims != 0 {
		t.Fatalf("%d page claims left behind", claims)
	}
}

// TestReadAheadIgnoresNonSequential: backward and random reads never
// form a stream, so they start no prefetch (and so no goroutine) and
// fetch exactly the pages they ask for.
func TestReadAheadIgnoresNonSequential(t *testing.T) {
	const size = 1 << 20
	_, _, reader, h, data := streamFixture(t, size, nil)
	check := func(what string, wantBytes int64) {
		t.Helper()
		if _, _, _, busy := streamState(h); busy != 0 {
			t.Fatalf("%s: %d prefetches in flight", what, busy)
		}
		st := reader.Stats()
		if st.ReadAheadHits != 0 || st.ReadAheadWasted != 0 {
			t.Fatalf("%s: prefetched (landed %d, wasted %d bytes)", what, st.ReadAheadHits, st.ReadAheadWasted)
		}
		if st.BytesRead != wantBytes {
			t.Fatalf("%s: fetched %d bytes from Petal, the reads cover %d", what, st.BytesRead, wantBytes)
		}
	}
	// Random 4 KB reads in the upper half: no two adjacent in order.
	pages := []int64{200, 131, 255, 140, 139, 250, 129, 180}
	for i, p := range pages {
		readRec(t, h, data, p*BlockSize, BlockSize)
		check(fmt.Sprintf("random read of page %d", p), int64(i+1)*BlockSize)
	}
	// Backward through the lower half, down to and including offset 0.
	for off := int64(size/2 - raRec); off >= 0; off -= raRec {
		readRec(t, h, data, off, raRec)
	}
	check("backward reads", int64(len(pages))*BlockSize+size/2)
}

// TestReadAheadWindowRamp: the window opens at one chunk, doubles each
// time the reader catches up with half of it, stops at Config.ReadAhead
// and starts over when the stream restarts.
func TestReadAheadWindowRamp(t *testing.T) {
	const size = 2 << 20
	_, _, _, h, data := streamFixture(t, size, func(c *Config) { c.ReadAhead = 64 })
	chunksAhead := func(off int64) int64 {
		t.Helper()
		readRec(t, h, data, off, raRec)
		next, ahead, _, _ := streamState(h)
		if next != off+raRec {
			t.Fatalf("after a read at %d the stream expects %d", off, next)
		}
		return (ahead - next) / petal.ChunkSize
	}
	for i, want := range []int64{1, 2, 4, 3, 4} { // 3: the top-up waits for the midpoint
		if got := chunksAhead(int64(i) * raRec); got != want {
			t.Fatalf("sequential read %d: %d chunks requested ahead, want %d", i+1, got, want)
		}
	}
	// A jump restarts the stream: nothing ahead, then one chunk again.
	for i, want := range []int64{0, 1, 2} {
		if got := chunksAhead(1<<20 + int64(i)*raRec); got != want {
			t.Fatalf("read %d after a jump: %d chunks requested ahead, want %d", i+1, got, want)
		}
	}
	// So does having to fetch below the mark: drop the prefetched pages
	// as a revoke would.
	h.ra.drain()
	h.fs.data.InvalidateAll()
	if got := chunksAhead(1<<20 + 3*raRec); got != 0 {
		t.Fatalf("read that lost its prefetched pages: %d chunks still counted ahead, want 0", got)
	}
	if _, _, window, _ := streamState(h); window != petal.ChunkSize {
		t.Fatalf("window after the restart is %d bytes, want one chunk", window)
	}
	h.ra.drain()
}

// TestReadAheadWasteCounter pins the §9.4 rule: a prefetch that is in
// flight when the file's lock is revoked inserts none of its pages,
// and its bytes are counted as wasted.
func TestReadAheadWasteCounter(t *testing.T) {
	const size = 512 << 10
	tw, writer, reader, h, data := streamFixture(t, size, func(c *Config) { c.ReadAhead = 64 })
	wh, err := writer.Open("/stream")
	if err != nil {
		t.Fatal(err)
	}
	readRec(t, h, data, 0, raRec) // fetches [0,64K), prefetches [64K,128K)
	h.ra.drain()
	hits, wasted := reader.m.raHits.Value(), reader.m.raWasted.Value()

	// Hold the next prefetch, [128K,256K), in flight: the read that
	// starts it is a cache hit, and the reader's Petal driver is cut off.
	tw.w.Net.Isolate(petal.ClientAddr("wsR"))
	readRec(t, h, data, raRec, raRec)
	if _, _, _, busy := streamState(h); busy != 1 {
		t.Fatalf("%d prefetches in flight, want 1", busy)
	}
	if _, err := wh.WriteAt([]byte{0xEE}, 0); err != nil { // revokes the reader's lock
		t.Fatal(err)
	}
	if held := reader.clerk.Held(InodeLock(h.inum)); held != lockservice.None {
		t.Fatalf("reader still holds the lock (%v) after a remote write", held)
	}
	tw.w.Net.Heal(petal.ClientAddr("wsR"))
	h.ra.drain()

	if got := reader.m.raWasted.Value() - wasted; got != 2*petal.ChunkSize {
		t.Errorf("wasted bytes grew by %d, want the %d in flight", got, 2*petal.ChunkSize)
	}
	if got := reader.m.raHits.Value() - hits; got != 0 {
		t.Errorf("%d prefetches landed across the revocation", got)
	}
	if n := reader.data.Len(); n != 0 {
		t.Errorf("%d data pages cached after revoke and discard, want 0", n)
	}
	data[0] = 0xEE
	readRec(t, h, data, 0, raRec) // and the reader sees the write
}

// TestNoPerInodeReadStateLeft: opening, reading and removing files
// leaves nothing behind per inode, neither read-ahead state (it lives
// on the handle) nor page claims nor pending access times.
func TestNoPerInodeReadStateLeft(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	if err := f.Mkdir("/churn"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8<<10)
	for i := 0; i < 1000; i++ {
		p := fmt.Sprintf("/churn/f%d", i)
		writeFile(t, f, p, buf)
		h, err := f.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.ReadAt(buf, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if err := f.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	f.mu.Lock()
	atimes := len(f.atimes)
	f.mu.Unlock()
	f.fetchMu.Lock()
	claims := len(f.inflight)
	f.fetchMu.Unlock()
	if atimes != 0 || claims != 0 {
		t.Fatalf("after 1000 create/read/remove: %d pending atimes, %d page claims", atimes, claims)
	}
}
