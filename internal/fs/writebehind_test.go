package fs

import (
	"bytes"
	"testing"
	"time"

	"frangipani/internal/lockservice"
	"frangipani/internal/petal"
)

const wbRec = 64 << 10 // the record size of every streaming write below

// pattern returns n bytes that differ from page to page and from seed
// to seed.
func pattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i>>12) ^ byte(i) ^ seed
	}
	return p
}

// streamWrite writes data to h in 64 KB records from offset 0.
func streamWrite(t *testing.T, h *File, data []byte) {
	t.Helper()
	for off := 0; off < len(data); off += wbRec {
		if _, err := h.WriteAt(data[off:min(off+wbRec, len(data))], int64(off)); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
}

// streamFile creates path on f with size bytes allocated and clean, so
// that rewriting it needs nothing from Petal, and returns a handle that
// has written nothing yet.
func streamFile(t *testing.T, f *FS, path string, size int) *File {
	t.Helper()
	writeFile(t, f, path, pattern(size, 0))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	h, err := f.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// flightState snapshots the gate: pages claimed by flights and
// write-behind flights out.
func flightState(f *FS) (pages, behind int) {
	_, pages, behind = f.gate.snapshot(nil)
	return pages, behind
}

// fsckClean syncs every live server and checks the disk.
func fsckClean(t *testing.T, tw *testWorld) {
	t.Helper()
	for _, f := range tw.mounts {
		if err := f.usable(); err == nil {
			if err := f.Sync(); err != nil {
				t.Fatalf("sync %s: %v", f.Machine(), err)
			}
		}
	}
	rep, err := Check(tw.client("chk"), tw.vd, tw.lay)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		t.Errorf("fsck: %s: %s", p.Kind, p.Msg)
	}
}

// blocked reports that done does not fire within two simulated seconds,
// far longer than any flush takes when nothing holds it.
func blocked(done <-chan error) bool {
	select {
	case <-done:
		return false
	case <-time.After(20 * time.Millisecond):
		return true
	}
}

// TestWriteBehindStartsBeforeSync: a sequential writer's chunks leave
// for Petal as it fills them, Sync sends only what is left, and no page
// goes twice.
func TestWriteBehindStartsBeforeSync(t *testing.T) {
	const size = 2 << 20
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	h, err := f.OpenFile("/stream", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // the create's metadata is not this test's
		t.Fatal(err)
	}
	pages0, bytes0 := f.m.flushPages.Value(), f.m.bytesWritten.Value()
	data := pattern(size, 1)
	streamWrite(t, h, data)
	claimed, _ := flightState(f)
	if landed := f.m.flushPages.Value() - pages0; landed == 0 && claimed == 0 {
		t.Fatal("after 32 sequential 64 KB writes no page has landed in Petal or is on its way")
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	if claimed, behind := flightState(f); claimed != 0 || behind != 0 {
		t.Fatalf("after Sync %d pages still claimed, %d write-behind flights out", claimed, behind)
	}
	// What went out beyond the file's pages is metadata sectors (the
	// inode): the two counters must agree on how many.
	pages, sent := f.m.flushPages.Value()-pages0, f.m.bytesWritten.Value()-bytes0
	sectors := pages - size/BlockSize
	if sectors < 0 || sectors > 4 || sent != size+sectors*SectorSize {
		t.Fatalf("a %d-page stream and its fsync wrote back %d blocks, %d bytes: some page went twice, or not at all", size/BlockSize, pages, sent)
	}
	if dirty := dirtyCount(f.data, InodeLock(h.inum)); dirty != 0 {
		t.Fatalf("%d pages dirty after Sync", dirty)
	}
	if got := readFile(t, tw.mount(t, "ws2", nil), "/stream"); !bytes.Equal(got, data) {
		t.Fatal("another server reads different bytes")
	}
	fsckClean(t, tw)
}

// TestWriteBehindIgnoresRandomAndSmall: only a sequential stream that
// fills whole chunks starts a flush. Random 4 KB overwrites and files
// that end before their first chunk boundary send nothing and start no
// goroutine (a write-behind flight is the only one a write can start).
func TestWriteBehindIgnoresRandomAndSmall(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	writeFile(t, f, "/big", pattern(1<<20, 2))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	batches := f.m.flushBatches.Value()
	check := func(what string) {
		t.Helper()
		if claimed, behind := flightState(f); claimed != 0 || behind != 0 {
			t.Fatalf("%s: %d pages claimed, %d flights out", what, claimed, behind)
		}
		if n := f.m.flushBatches.Value() - batches; n != 0 {
			t.Fatalf("%s: %d write-back batches sent", what, n)
		}
	}
	h, err := f.Open("/big")
	if err != nil {
		t.Fatal(err)
	}
	// Chunk-aligned ones included, and two that happen to be adjacent.
	for _, p := range []int64{200, 16, 131, 255, 32, 140, 141, 250, 0, 129} {
		if _, err := h.WriteAt(pattern(BlockSize, 3), p*BlockSize); err != nil {
			t.Fatal(err)
		}
		check("random overwrite")
	}
	for i, n := range []int{1 << 10, 16 << 10, wbRec - 1} {
		s, err := f.OpenFile("/small"+string(rune('a'+i)), true)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < n; off += 8 << 10 { // sequential, but never a whole chunk
			if _, err := s.WriteAt(pattern(min(8<<10, n-off), 4), int64(off)); err != nil {
				t.Fatal(err)
			}
			check("small file")
		}
	}
}

// TestFsyncJoinsOtherHandle: fsync through a second handle on the inode
// waits for the batches the first handle's write-behind has in flight
// and does not send their pages again.
func TestFsyncJoinsOtherHandle(t *testing.T) {
	const size = 8 * wbRec
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	h1 := streamFile(t, f, "/shared", size)
	h2, err := f.Open("/shared")
	if err != nil {
		t.Fatal(err)
	}
	bytes0 := f.m.bytesWritten.Value()

	// Hold the write-behind in flight: the server's Petal driver is cut off.
	tw.w.Net.Isolate(petal.ClientAddr("ws1"))
	data := pattern(size, 5)
	streamWrite(t, h1, data)
	if claimed, behind := flightState(f); claimed != size/BlockSize || behind != size/wbRec {
		t.Fatalf("%d pages claimed by %d flights, want all %d by %d", claimed, behind, size/BlockSize, size/wbRec)
	}
	done := make(chan error, 1)
	go func() { done <- h2.Sync() }()
	if !blocked(done) {
		t.Fatal("Sync returned while the file's batches were still in flight")
	}
	tw.w.Net.Heal(petal.ClientAddr("ws1"))
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if sent := f.m.bytesWritten.Value() - bytes0; sent < size || sent > size+4*SectorSize {
		t.Fatalf("%d bytes of data written back for a %d-byte file", sent, size)
	}
	if got := readFile(t, tw.mount(t, "ws2", nil), "/shared"); !bytes.Equal(got, data) {
		t.Fatal("another server reads different bytes")
	}
	fsckClean(t, tw)
}

// TestRevokeWaitsForWriteBehind: a lock with write-behind in flight is
// not released until the batches have landed, and the server that
// asked for it then reads the new bytes.
func TestRevokeWaitsForWriteBehind(t *testing.T) {
	const size = 8 * wbRec
	tw, writer, _, rh, _ := streamFixture(t, size, nil)
	wh, err := writer.Open("/stream")
	if err != nil {
		t.Fatal(err)
	}
	lock := InodeLock(wh.inum)

	tw.w.Net.Isolate(petal.ClientAddr("wsW"))
	data := pattern(size, 6)
	streamWrite(t, wh, data)
	if _, behind := flightState(writer); behind == 0 {
		t.Fatal("no write-behind in flight")
	}
	got := make([]byte, size)
	done := make(chan error, 1)
	go func() {
		_, err := rh.ReadAt(got, 0) // revokes the writer's lock
		done <- err
	}()
	if !blocked(done) {
		t.Fatal("the reader got the lock while the writer's batches were still in flight")
	}
	if held := writer.clerk.Held(lock); held != lockservice.Exclusive {
		t.Fatalf("writer holds the lock %v with batches in flight, want exclusive", held)
	}
	tw.w.Net.Heal(petal.ClientAddr("wsW"))
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("the reader does not see the bytes written before the revoke")
	}
	if claimed, behind := flightState(writer); claimed != 0 || behind != 0 {
		t.Fatalf("lock released with %d pages claimed, %d flights out", claimed, behind)
	}
	fsckClean(t, tw)
}

// TestTruncateWaitsForWriteBehind: blocks go back to the allocator only
// after the batches on their way to them have landed, so when another
// server reuses them nothing old arrives on top of its data. The layout
// has one large block: the second file must take the first one's.
func TestTruncateWaitsForWriteBehind(t *testing.T) {
	const size = 8 * wbRec
	lay := DefaultLayout()
	lay.LargeBlocks = 1
	tw := newTestWorldLayout(t, lay)
	f1 := tw.mount(t, "ws1", nil)
	f2 := tw.mount(t, "ws2", nil)
	h := streamFile(t, f1, "/old", size)

	tw.w.Net.Isolate(petal.ClientAddr("ws1"))
	streamWrite(t, h, pattern(size, 7))
	if _, behind := flightState(f1); behind == 0 {
		t.Fatal("no write-behind in flight")
	}
	done := make(chan error, 1)
	go func() { done <- h.Truncate(0) }()
	if !blocked(done) {
		t.Fatal("Truncate freed the blocks while batches were still on their way to them")
	}
	tw.w.Net.Heal(petal.ClientAddr("ws1"))
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if claimed, _ := flightState(f1); claimed != 0 {
		t.Fatalf("%d pages still claimed after Truncate", claimed)
	}

	data := pattern(size, 8)
	writeFile(t, f2, "/new", data)
	if err := f2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f1.Sync(); err != nil { // anything ws1 still had to say about the old blocks
		t.Fatal(err)
	}
	if got := readFile(t, tw.mount(t, "ws3", nil), "/new"); !bytes.Equal(got, data) {
		t.Fatal("the file that reused the blocks does not read back what was written to it")
	}
	if got := readFile(t, f1, "/old"); len(got) != 0 {
		t.Fatalf("truncated file has %d bytes", len(got))
	}
	fsckClean(t, tw)
}

// TestFsyncErrorLeavesPagesDirty: when Petal cannot be written, fsync
// says so, whether it sent the pages itself or joined the flight that
// did, and everything that did not land stays dirty; once Petal is back
// the next fsync finishes the job.
func TestFsyncErrorLeavesPagesDirty(t *testing.T) {
	const size = 4 * wbRec
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	h := streamFile(t, f, "/unlucky", size+BlockSize)
	lock := InodeLock(h.inum)

	tw.w.Net.Isolate(petal.ClientAddr("ws1"))
	data := pattern(size+BlockSize, 9) // the last page is Sync's own to send
	streamWrite(t, h, data)
	if err := h.Sync(); err == nil {
		t.Fatal("Sync succeeded with Petal unreachable")
	}
	if dirty := dirtyCount(f.data, lock); dirty != size/BlockSize+1 {
		t.Fatalf("%d data pages dirty after the failed Sync, want all %d", dirty, size/BlockSize+1)
	}
	if dirty := dirtyCount(f.meta, lock); dirty == 0 {
		t.Fatal("the inode is clean after the failed Sync")
	}
	if claimed, behind := flightState(f); claimed != 0 || behind != 0 {
		t.Fatalf("%d pages claimed, %d flights out after the failed Sync", claimed, behind)
	}
	tw.w.Net.Heal(petal.ClientAddr("ws1"))
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, tw.mount(t, "ws2", nil), "/unlucky"); !bytes.Equal(got, data) {
		t.Fatal("another server reads different bytes")
	}
	fsckClean(t, tw)
}

// TestCrashAfterStreamSync: once Sync has returned, the server can die
// and none of the file is lost, however much of it write-behind carried.
func TestCrashAfterStreamSync(t *testing.T) {
	const size = 1 << 20
	tw := newTestWorld(t)
	f1 := tw.mount(t, "ws1", func(c *Config) { c.SyncEvery = time.Hour })
	f2 := tw.mount(t, "ws2", nil)
	h, err := f1.OpenFile("/kept", true)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(size, 10)
	streamWrite(t, h, data)
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	f1.Crash()
	deadline := time.Now().Add(60 * time.Second)
	for {
		h2, err := f2.Open("/kept") // needs ws1's locks: waits out its lease and replays its log
		if err == nil {
			got := make([]byte, size+1)
			n, _ := h2.ReadAt(got, 0)
			if !bytes.Equal(got[:n], data) {
				t.Fatalf("after the crash the file reads back %d bytes, wrong or short", n)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("file unreachable after the crash: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	fsckClean(t, tw)
}
