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
		wasted, joins := reader.m.raWasted.Value(), reader.m.raJoins.Value()
		var where []string // the foreground fetches, each with the mark the read found
		for off := int64(0); off < size; off += raRec {
			_, mark, _, busy := streamState(h)
			before := reader.m.fills.Value()
			readRec(t, h, data, off, raRec)
			if reader.m.fills.Value() > before {
				where = append(where, fmt.Sprintf("at %d KB, mark %d KB, %d prefetches out", off>>10, mark>>10, busy))
			}
		}
		h.ra.drain()
		hits, fills = reader.m.raHits.Value()-hits, reader.m.fills.Value()-fills
		wasted, joins = reader.m.raWasted.Value()-wasted, reader.m.raJoins.Value()-joins
		t.Logf("pass %d: %d prefetches landed (%d bytes wasted, %d joins), %d foreground fetches: %v", pass, hits, wasted, joins, fills, where)
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
	if fetches, _, _ := reader.gate.snapshot(nil); fetches != 0 {
		t.Fatalf("%d page claims left behind", fetches)
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
		if hits, wasted := reader.m.raHits.Value(), reader.m.raWasted.Value(); hits != 0 || wasted != 0 {
			t.Fatalf("%s: prefetched (landed %d, wasted %d bytes)", what, hits, wasted)
		}
		if got := reader.m.bytesRead.Value(); got != wantBytes {
			t.Fatalf("%s: fetched %d bytes from Petal, the reads cover %d", what, got, wantBytes)
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

// TestReadAheadWindowRamp: the window opens at one chunk, doubles with
// every top-up up to Config.ReadAhead, from then on every read leaves
// the mark a full window ahead, and the window starts over when the
// stream restarts.
func TestReadAheadWindowRamp(t *testing.T) {
	const size = 2 << 20
	_, _, _, h, data := streamFixture(t, size, func(c *Config) { c.ReadAhead = 128 })
	chunksAhead := func(off int64) int64 {
		t.Helper()
		readRec(t, h, data, off, raRec)
		next, ahead, _, _ := streamState(h)
		if next != off+raRec {
			t.Fatalf("after a read at %d the stream expects %d", off, next)
		}
		return (ahead - next) / petal.ChunkSize
	}
	for i, want := range []int64{1, 2, 4, 8, 8, 8, 8} {
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

// claimsByChunk groups the server's page claims by the Petal chunk the
// page lies in.
func claimsByChunk(fs *FS) map[int64][]*claim {
	out := map[int64][]*claim{}
	fs.gate.snapshot(func(addr int64, c *claim) {
		if !c.flight {
			out[addr/petal.ChunkSize] = append(out[addr/petal.ChunkSize], c)
		}
	})
	return out
}

// TestReadAheadLandsByChunk: a top-up of several chunks is as many
// fetches, each behind its own claim, so a reader that catches up waits
// for the chunk it needs and not for the window.
func TestReadAheadLandsByChunk(t *testing.T) {
	const size = 512 << 10
	tw, _, reader, h, data := streamFixture(t, size, func(c *Config) { c.ReadAhead = 64 })
	// A finished pass earns the four-chunk window; then only the first
	// chunk of the file is cached again (a 4 KB read on a new handle
	// brings the page and prefetches the rest of its chunk), so that the
	// read that opens the next pass is a hit and everything it asks for
	// ahead is a fetch.
	for off := int64(0); off < size; off += raRec {
		readRec(t, h, data, off, raRec)
	}
	h.ra.drain()
	reader.data.InvalidateAll()
	h2, err := reader.Open("/stream")
	if err != nil {
		t.Fatal(err)
	}
	readRec(t, h2, data, 0, BlockSize)
	h2.ra.drain()

	tw.w.Net.Isolate(petal.ClientAddr("wsR"))
	readRec(t, h, data, 0, raRec)
	if _, ahead, _, busy := streamState(h); busy != 4 || ahead != raRec+4*petal.ChunkSize {
		t.Fatalf("%d fetches in flight up to %d, want 4 up to %d", busy, ahead, raRec+4*petal.ChunkSize)
	}
	claims := claimsByChunk(reader)
	seen := map[*claim]bool{}
	for chunk, chs := range claims {
		if len(chs) != petal.ChunkSize/BlockSize {
			t.Errorf("chunk %d: %d pages claimed, want all %d", chunk, len(chs), petal.ChunkSize/BlockSize)
		}
		for _, ch := range chs[1:] {
			if ch != chs[0] {
				t.Errorf("chunk %d: its pages sit behind more than one claim", chunk)
			}
		}
		if seen[chs[0]] {
			t.Errorf("chunk %d shares its claim with another chunk", chunk)
		}
		seen[chs[0]] = true
	}
	if len(claims) != 4 {
		t.Errorf("%d chunks claimed, want 4", len(claims))
	}
	tw.w.Net.Heal(petal.ClientAddr("wsR"))
	h.ra.drain()
	for off := int64(raRec); off < size; off += raRec {
		readRec(t, h, data, off, raRec)
	}
	h.ra.drain()
}

// TestReadAheadPassInheritsWindow: a pass that ran to the end of the
// file hands its window to the next one on the same handle, which so
// starts a full window ahead and goes to Petal in the foreground for its
// first record only; a new handle and a pass given up half-way have
// proved nothing and start at one chunk.
func TestReadAheadPassInheritsWindow(t *testing.T) {
	const size, limit = 1 << 20, 64 * BlockSize
	_, _, reader, h, data := streamFixture(t, size, func(c *Config) {
		c.DataCacheCap = 128 // 512 KB: a pass evicts what the one before cached
		c.ReadAhead = limit / BlockSize
	})
	for pass := 1; pass <= 3; pass++ {
		fills := reader.m.fills.Value()
		readRec(t, h, data, 0, raRec)
		wantAhead, wantWindow := int64(raRec+petal.ChunkSize), int64(2*petal.ChunkSize) // a new handle's ramp
		if pass > 1 {
			wantAhead, wantWindow = raRec+limit, limit
		}
		if _, ahead, window, _ := streamState(h); ahead != wantAhead || window != wantWindow {
			t.Fatalf("pass %d opens with the mark at %d and a window of %d, want %d and %d", pass, ahead, window, wantAhead, wantWindow)
		}
		for off := int64(raRec); off < size; off += raRec {
			readRec(t, h, data, off, raRec)
		}
		h.ra.drain()
		if got := reader.m.fills.Value() - fills; got > 1 {
			t.Errorf("pass %d fetched %d times in the foreground, want its first record at most", pass, got)
		}
	}
	opensAt := func(what string, h *File) {
		t.Helper()
		readRec(t, h, data, 0, raRec)
		if _, ahead, _, _ := streamState(h); ahead != raRec+petal.ChunkSize {
			t.Errorf("%s opens with the mark at %d, want one chunk ahead (%d)", what, ahead, raRec+petal.ChunkSize)
		}
		h.ra.drain()
	}
	h2, err := reader.Open("/stream")
	if err != nil {
		t.Fatal(err)
	}
	opensAt("a second handle", h2)
	for off := int64(0); off < size/2; off += raRec {
		readRec(t, h, data, off, raRec)
	}
	opensAt("the pass after one given up half-way", h)
}

// TestReadAheadPausedReaderFindsWindow: a reader that stops between
// reads — every client that does something with what it read — finds a
// whole window landed when it comes back: its next window's worth of
// reads neither go to Petal nor wait for a fetch. (It stops seven records
// in, where a rule that tops up only once the reader is within half a
// window of the mark would have left the mark 320 KB ahead, not 512.)
func TestReadAheadPausedReaderFindsWindow(t *testing.T) {
	const size, pauseAt, window = 2 << 20, 7 * raRec, 512 << 10 // the default window
	_, _, reader, h, data := streamFixture(t, size, nil)
	for off := int64(0); off < pauseAt; off += raRec {
		readRec(t, h, data, off, raRec)
	}
	h.ra.drain() // the pause, however long the fetches take
	fills, joins := reader.m.fills.Value(), reader.m.raJoins.Value()
	for off := int64(pauseAt); off < pauseAt+window; off += raRec {
		readRec(t, h, data, off, raRec)
	}
	if fills, joins = reader.m.fills.Value()-fills, reader.m.raJoins.Value()-joins; fills != 0 || joins != 0 {
		t.Fatalf("the window after the pause took %d foreground fetches and %d waits for a prefetch, want none", fills, joins)
	}
	h.ra.drain()
}

// TestReadAheadSmallRecordsFetchWholeChunks: a reader of 4 KB records
// moves the mark a chunk at a time, not a record at a time: the file
// comes over once, no page twice, and not in an RPC a record — at most
// two a chunk, one for each replica that serves a half of it.
func TestReadAheadSmallRecordsFetchWholeChunks(t *testing.T) {
	const size = 1 << 20
	_, _, reader, h, data := streamFixture(t, size, nil)
	bytes, rpcs := reader.m.bytesRead.Value(), reader.pc.Stats().ReadVRPCs
	for off := int64(0); off < size; off += BlockSize {
		readRec(t, h, data, off, BlockSize)
	}
	h.ra.drain()
	if got := reader.m.bytesRead.Value() - bytes; got != size {
		t.Errorf("fetched %d bytes of a %d byte file", got, size)
	}
	got, chunks := reader.pc.Stats().ReadVRPCs-rpcs, int64(size/petal.ChunkSize)
	t.Logf("%d 4 KB reads: %d read RPCs for %d chunks", size/BlockSize, got, chunks)
	if got > 2*chunks+2 {
		t.Errorf("%d read RPCs for %d chunks, want at most two a chunk", got, chunks)
	}
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

	// Hold the next two prefetches, [128K,192K) and [192K,256K), in
	// flight: the read that starts them is a cache hit, and the reader's
	// Petal driver is cut off.
	tw.w.Net.Isolate(petal.ClientAddr("wsR"))
	readRec(t, h, data, raRec, raRec)
	if _, _, _, busy := streamState(h); busy != 2 {
		t.Fatalf("%d prefetches in flight, want 2, one per chunk", busy)
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
	fetches, _, _ := f.gate.snapshot(nil)
	if atimes != 0 || fetches != 0 {
		t.Fatalf("after 1000 create/read/remove: %d pending atimes, %d page claims", atimes, fetches)
	}
}
