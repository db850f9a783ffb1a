package fs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frangipani/internal/petal"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// noDemon is the configuration of every test below: metadata reaches its
// permanent locations only by the writers the test provokes.
func noDemon(c *Config) { c.SyncEvery = time.Hour }

// afterCrash polls read, an operation on a surviving server that needs
// the dead one's locks, until it succeeds: the first attempts fail while
// the dead server's lease runs out and its log is replayed.
func afterCrash(t *testing.T, read func() error) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		err := read()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("unreachable after the crash: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// smallFileSynced creates /kept on f with a 4 KB and a 12 KB write and
// fsyncs it, and checks what that fsync sent: the file's four pages, no
// metadata sector, and the inode left dirty for someone else to write.
func smallFileSynced(t *testing.T, f *FS) (h *File, data []byte) {
	t.Helper()
	h, err := f.OpenFile("/kept", true)
	if err != nil {
		t.Fatal(err)
	}
	data = pattern(16<<10, 11)
	pages0, bytes0 := f.m.flushPages.Value(), f.m.bytesWritten.Value()
	for _, cut := range [][2]int{{0, 4 << 10}, {4 << 10, 16 << 10}} {
		if _, err := h.WriteAt(data[cut[0]:cut[1]], int64(cut[0])); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	if pages, sent := f.m.flushPages.Value()-pages0, f.m.bytesWritten.Value()-bytes0; pages != 4 || sent != 16<<10 {
		t.Fatalf("fsync of four data pages wrote back %d blocks, %d bytes: metadata went in place", pages, sent)
	}
	if len(f.meta.DirtyByOwner(InodeLock(h.inum))) == 0 {
		t.Fatal("the inode sector is clean after fsync")
	}
	if dirty := len(f.data.DirtyByOwner(InodeLock(h.inum))); dirty != 0 {
		t.Fatalf("%d data pages dirty after fsync", dirty)
	}
	return h, data
}

// dataLog is a carrier that records, in the order they leave, the
// extents of the write requests that carry file data: those at or past
// from, the first user data block.
type dataLog struct {
	rpc.Carrier
	from int64
	mu   sync.Mutex
	reqs [][2]int64 // per request: the address and length of its data
}

func (l *dataLog) Send(from, to string, env rpc.Envelope, size int) error {
	if r, ok := env.Body.(petal.WriteVReq); ok && !r.Forwarded {
		for _, e := range r.Extents {
			if at := e.Chunk*petal.ChunkSize + int64(e.Off); at >= l.from {
				l.mu.Lock()
				l.reqs = append(l.reqs, [2]int64{at, int64(len(e.Data))})
				l.mu.Unlock()
			}
		}
	}
	return l.Carrier.Send(from, to, env, size)
}

// TestFsyncSendsDataInTwoParts: the fsync of a 16 KB file waits for its
// one run of four pages, so the run leaves in two requests, contiguous
// and the first part first — with observability on and off alike, where
// no operation has a span.
func TestFsyncSendsDataInTwoParts(t *testing.T) {
	for _, on := range []bool{true, false} {
		t.Run(fmt.Sprintf("obs=%v", on), func(t *testing.T) {
			w := sim.NewWorld(100, 99)
			if !on {
				w.Obs = nil
			}
			tw := newTestWorldIn(t, w, DefaultLayout())
			log := &dataLog{Carrier: rpc.SimCarrier{Net: w.Net}, from: tw.lay.SmallAddr(tw.lay.MetaSmallBoundary)}
			f := tw.mountVia(t, "ws1", log, noDemon)
			smallFileSynced(t, f)
			log.mu.Lock()
			reqs := log.reqs
			log.mu.Unlock()
			if len(reqs) != 2 {
				t.Fatalf("the fsync of a 16 KB file sent %d data requests %v, want 2", len(reqs), reqs)
			}
			if a, b := reqs[0], reqs[1]; a[0]+a[1] != b[0] || a[1]+b[1] != 16<<10 {
				t.Errorf("the fsync sent %v then %v: want the 16 KB in two contiguous parts, the first first", a, b)
			}
			fsckClean(t, tw)
		})
	}
}

// TestFsyncCrashBeforeDemon: fsync forces the log and the data and
// nothing else, and that is enough: the server dies with the inode, the
// directory and the bitmap never written in place, and the survivor's
// replay produces the name, the size and the bytes.
func TestFsyncCrashBeforeDemon(t *testing.T) {
	tw := newTestWorld(t)
	f1 := tw.mount(t, "ws1", noDemon)
	f2 := tw.mount(t, "ws2", nil)
	_, data := smallFileSynced(t, f1)
	f1.Crash()
	afterCrash(t, func() error { _, err := f2.Stat("/kept"); return err })
	if got := readFile(t, f2, "/kept"); !bytes.Equal(got, data) {
		t.Fatalf("after the crash the file reads back %d bytes, wrong or short", len(got))
	}
	if f2.m.recoveries.Value() == 0 {
		t.Fatal("no recovery ran on ws2")
	}
	fsckClean(t, tw)
}

// TestRevokeAfterFsyncWritesInode: the sectors fsync left dirty are the
// revoke's to write before the lock changes hands.
func TestRevokeAfterFsyncWritesInode(t *testing.T) {
	tw := newTestWorld(t)
	f1 := tw.mount(t, "ws1", noDemon)
	f2 := tw.mount(t, "ws2", nil)
	h, data := smallFileSynced(t, f1)
	if got := readFile(t, f2, "/kept"); !bytes.Equal(got, data) {
		t.Fatalf("ws2 reads %d bytes, wrong or short", len(got))
	}
	if dirty := len(f1.meta.DirtyByOwner(InodeLock(h.inum))); dirty != 0 {
		t.Fatalf("%d of the inode's sectors still dirty on ws1 after ws2 took the lock", dirty)
	}
	fsckClean(t, tw)
}

// TestFsyncOnlyLogReclaimWritesInPlace: with the demon off and every
// file fsynced, log pressure is the only thing that moves metadata to
// its permanent locations. The log must wrap without an error, and what
// it reclaimed must be in place: after a crash the survivor finds every
// file. The files' records come to ~40 KB, so the log is a sixteenth of
// the paper's 128 KB to make it wrap several times; and the world runs
// at a quarter of the usual compression, because replay writes each
// sector once per record, in a row, and a host that stalls for the 50 ms
// a Petal call may take at 100x makes the driver fail over and an old
// image of the sector arrive last.
func TestFsyncOnlyLogReclaimWritesInPlace(t *testing.T) {
	const files = 150
	lay := DefaultLayout()
	lay.LogSize = 8 << 10
	tw := newTestWorldIn(t, sim.NewWorld(25, 99), lay)
	f1 := tw.mount(t, "ws1", noDemon)
	f2 := tw.mount(t, "ws2", nil)
	content := func(i int) []byte { return pattern(1<<10, byte(i)) }
	for i := 0; i < files; i++ {
		h, err := f1.OpenFile(fmt.Sprintf("/f%03d", i), true)
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		if _, err := h.WriteAt(content(i), 0); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if err := h.Sync(); err != nil {
			t.Fatalf("fsync %d: %v", i, err)
		}
	}
	st := f1.log.Stats()
	t.Logf("log: %d records, %d bytes written, wal.reclaim.async=%d wal.reclaim.stall=%d",
		st.Appends, st.BytesWritten, st.AsyncReclaims, st.StallReclaims)
	if appended := counterSum(tw, "wal.append.bytes"); appended < 3*tw.lay.LogSize {
		t.Fatalf("%d bytes appended to a %d-byte log: it did not wrap several times", appended, tw.lay.LogSize)
	}
	if st.AsyncReclaims+st.StallReclaims == 0 {
		t.Fatal("the log was never reclaimed")
	}
	f1.Crash()
	afterCrash(t, func() error { _, err := f2.Stat(fmt.Sprintf("/f%03d", files-1)); return err })
	for i := 0; i < files; i++ {
		if got := readFile(t, f2, fmt.Sprintf("/f%03d", i)); !bytes.Equal(got, content(i)) {
			t.Fatalf("file %d reads back %d bytes, wrong or short", i, len(got))
		}
	}
	fsckClean(t, tw)
}

// TestReplaysDoNotInterleave: the lock service asks for a recovery again
// when the first request has not answered in time, and a replay reads a
// block, applies a record and writes it back, record by record; two that
// interleave would write each other's blocks back to older versions. The
// second request must find the first one's work done and write nothing.
func TestReplaysDoNotInterleave(t *testing.T) {
	tw := newTestWorld(t)
	f1 := tw.mount(t, "ws1", func(c *Config) { c.SyncEvery, c.SyncLog = time.Hour, true })
	f2 := tw.mount(t, "ws2", nil)
	for i := 0; i < 20; i++ {
		if err := f1.Create(fmt.Sprintf("/r%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	f1.Crash()
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { done <- f2.onRecover("ws1", f1.logSlot) }()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	var applied []int64
	for _, ev := range tw.w.Obs.Journal("ws2").Events() {
		if ev.Layer == "fs" && ev.Op == "recover" && ev.Kind == "replayed" {
			applied = append(applied, ev.Arg)
		}
	}
	if len(applied) != 2 || applied[0] == 0 || applied[1] != 0 {
		t.Fatalf("two recovery requests for one log wrote %v blocks, want all by the first and none by the second", applied)
	}
}

// TestFsyncReturnsUnderConcurrentWriter: fsync owes the bytes written
// before it was called, not the ones that keep arriving. One handle
// overwrites a page several times per Petal write; Sync on two other
// handles, one started a write behind the other so that it finds the
// page in the first one's flight, must both return while it does, and
// what is in Petal when each returns is at least as new as the last
// write that had completed when it was called. The world runs at a tenth
// of the usual compression so that a Petal write is milliseconds of host
// time and the paced writer is sure to be faster.
func TestFsyncReturnsUnderConcurrentWriter(t *testing.T) {
	tw := newTestWorldIn(t, sim.NewWorld(10, 99), DefaultLayout())
	f := tw.mount(t, "ws1", noDemon)
	writeFile(t, f, "/busy", pattern(2*BlockSize, 12))
	var hs [3]*File // the writer's handle and the two that sync
	for i := range hs {
		h, err := f.Open("/busy")
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	_, in, err := f.loadInode(nil, hs[0].inum)
	if err != nil {
		t.Fatal(err)
	}
	hot, _, ok := f.filePageAddr(in, BlockSize)
	if !ok {
		t.Fatal("no block behind the second page")
	}

	var written atomic.Uint64 // the newest stamp whose WriteAt has returned
	stop, stopped := make(chan struct{}), make(chan struct{})
	halt := sync.OnceFunc(func() { close(stop); <-stopped })
	defer halt()
	go func() {
		defer close(stopped)
		page := make([]byte, BlockSize)
		for stamp := uint64(1); ; stamp++ {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
			binary.LittleEndian.PutUint64(page, stamp)
			if _, err := hs[0].WriteAt(page, BlockSize); err != nil {
				t.Errorf("overwrite %d: %v", stamp, err)
				return
			}
			written.Store(stamp)
		}
	}()
	nextWrite := func() uint64 {
		for seen := written.Load(); ; time.Sleep(50 * time.Microsecond) {
			if now := written.Load(); now > seen {
				return now
			}
		}
	}
	// syncOwing calls Sync on h and checks Petal against owed, the stamp
	// written last before the call.
	chk := tw.client("chk")
	syncOwing := func(h *File, owed uint64) error {
		if err := h.Sync(); err != nil {
			return err
		}
		page := make([]byte, BlockSize)
		if err := chk.Read(tw.vd, hot, page); err != nil {
			return err
		}
		if got := binary.LittleEndian.Uint64(page); got < owed {
			return fmt.Errorf("Sync returned with stamp %d in Petal; %d was written before it was called", got, owed)
		}
		return nil
	}
	for round := 0; round < 5; round++ {
		done := make(chan error, 2)
		for _, h := range hs[1:] {
			go func(owed uint64) { done <- syncOwing(h, owed) }(nextWrite())
		}
		for i := 0; i < 2; i++ {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second): // 50 simulated seconds
				t.Fatal("Sync did not return while another handle kept writing the file")
			}
		}
	}
	halt()
	fsckClean(t, tw)
}

// TestFsyncRoundTrips is the structural form of "fsync costs one Petal
// round trip": the fsync of a freshly created 4 KB file sends the log
// block and the data run, side by side, and nothing after them; a second
// fsync with nothing new sends nothing.
func TestFsyncRoundTrips(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", noDemon)
	h, err := f.OpenFile("/one", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(pattern(BlockSize, 13), 0); err != nil {
		t.Fatal(err)
	}
	count := func() (rpcs, flushes int64) {
		// Every Petal write is a WriteV: petal.writev.rpcs counts them all.
		return counterSum(tw, "petal.writev.rpcs"), counterSum(tw, "wal.flushes")
	}
	rpcs0, flushes0 := count()
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	rpcs1, flushes1 := count()
	if rpcs, flushes := rpcs1-rpcs0, flushes1-flushes0; rpcs != 2 || flushes != 1 {
		t.Fatalf("fsync of a new 4 KB file: %d Petal write RPCs, %d log flushes, want 2 (log block, data run) and 1", rpcs, flushes)
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	if rpcs2, flushes2 := count(); rpcs2 != rpcs1 || flushes2 != flushes1 {
		t.Fatalf("fsync with nothing new: %d Petal write RPCs, %d log flushes, want none", rpcs2-rpcs1, flushes2-flushes1)
	}
}
