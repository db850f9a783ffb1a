package fs

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"

	"frangipani/internal/petal"
	"frangipani/internal/rpc"
)

// cutAfter is a carrier under one file server's Petal driver. Once armed
// it lets the first n write requests the server sends go out, and from
// the next one on lets nothing the server sends leave: the server died
// with exactly those writes sent. cut is closed at that moment; sent
// counts the writes that went out after arming.
type cutAfter struct {
	rpc.Carrier
	n     int
	mu    sync.Mutex
	armed bool
	dead  bool
	sent  int
	cut   chan struct{}
}

func newCutAfter(net rpc.Carrier, n int) *cutAfter {
	return &cutAfter{Carrier: net, n: n, cut: make(chan struct{})}
}

func (c *cutAfter) Send(from, to string, env rpc.Envelope, size int) error {
	c.mu.Lock()
	if r, ok := env.Body.(*petal.WriteVReq); ok && c.armed && !c.dead && !r.Forwarded {
		if c.sent == c.n {
			c.dead = true
			close(c.cut)
		} else {
			c.sent++
		}
	}
	dead := c.dead
	c.mu.Unlock()
	if dead {
		return nil // lost with its sender
	}
	return c.Carrier.Send(from, to, env, size)
}

func (c *cutAfter) arm() {
	c.mu.Lock()
	c.armed = true
	c.mu.Unlock()
}

// handoffCrash is one crash point of a handoff flush: wsB, whose Petal
// driver goes through cut, has done set up, and wsA's handoff takes a
// lock of B's away; B's revoke flush sends its writes, the first cut.n of
// them land and B dies. A is the survivor: once B's lease has run out
// and A has replayed B's log, check sees the disk through A. It reports
// whether the revoke sent more than cut.n writes, that is, whether a
// longer prefix is left to try.
func handoffCrash(t *testing.T, n int, setup func(a, b *FS), handoff func(a *FS) error, check func(a *FS) error) (more bool) {
	tw := newTestWorld(t)
	cut := newCutAfter(rpc.SimCarrier{Net: tw.w.Net}, n)
	b := tw.mountVia(t, "wsB", cut, noDemon)
	a := tw.mount(t, "wsA", noDemon)
	setup(a, b)
	cut.arm()
	done := make(chan error, 1)
	go func() { done <- handoff(a) }()
	select {
	case <-cut.cut:
	case err := <-done:
		if err != nil {
			t.Fatalf("the handoff failed with every write landed: %v", err)
		}
	}
	b.Crash()
	tw.mounts = slices.DeleteFunc(tw.mounts, func(f *FS) bool { return f == b }) // dead: nothing to unmount
	cut.mu.Lock()
	more = cut.dead
	cut.mu.Unlock()
	afterCrash(t, func() error { return check(a) })
	if a.m.recoveries.Value() == 0 && more {
		t.Fatal("no recovery ran on the survivor")
	}
	fsckClean(t, tw)
	return more
}

// crashPoints runs handoffCrash at every prefix of the revoke's writes,
// from none to all of them, and returns how many there were.
func crashPoints(t *testing.T, setup func(a, b *FS), handoff func(a *FS) error, check func(a *FS) error) int {
	n := 0
	for ; n < 16 && handoffCrash(t, n, setup, handoff, check); n++ {
	}
	return n
}

// TestHandoffCrashPointsMtimeOnly: wsB overwrites a page of a file whose
// blocks are allocated and whose records are durable, so all that is
// new in its log is one record of the inode's mtime — which the revoke
// sends home beside the page without forcing the log. At every prefix of
// those writes B dies; the survivor reads the old or the new mtime, the
// old or the new page, and a clean disk.
func TestHandoffCrashPointsMtimeOnly(t *testing.T) {
	old, upd := pattern(16<<10, 1), bytes.Repeat([]byte{0x77}, BlockSize)
	var oldMtime, newMtime int64
	setup := func(a, b *FS) {
		writeFile(t, b, "/f", old)
		if err := b.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := readFile(t, a, "/f"); !bytes.Equal(got, old) {
			t.Fatal("the reader reads the wrong bytes before the overwrite")
		}
		info, err := a.Stat("/f")
		if err != nil {
			t.Fatal(err)
		}
		oldMtime = info.Mtime
		h, err := b.Open("/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(upd, BlockSize); err != nil {
			t.Fatal(err)
		}
		if info, err = b.Stat("/f"); err != nil || info.Mtime == oldMtime {
			t.Fatalf("the overwrite left mtime %d (was %d): %v", info.Mtime, oldMtime, err)
		}
		newMtime = info.Mtime
	}
	handoff := func(a *FS) error { _, err := a.Stat("/f"); return err }
	check := func(a *FS) error {
		info, err := a.Stat("/f")
		if err != nil {
			return err
		}
		if info.Mtime != oldMtime && info.Mtime != newMtime {
			t.Errorf("mtime %d after the crash, want %d or %d", info.Mtime, oldMtime, newMtime)
		}
		got := readFile(t, a, "/f")
		page := got[BlockSize : 2*BlockSize]
		if len(got) != len(old) || !bytes.Equal(got[:BlockSize], old[:BlockSize]) || !bytes.Equal(got[2*BlockSize:], old[2*BlockSize:]) ||
			!bytes.Equal(page, old[BlockSize:2*BlockSize]) && !bytes.Equal(page, upd) {
			t.Error("the file reads neither its old nor its new bytes after the crash")
		}
		return nil
	}
	if n := crashPoints(t, setup, handoff, check); n < 2 {
		t.Errorf("the revoke sent %d writes, want the inode sector and the page", n)
	}
}

// TestHandoffCrashPointsCreate: wsB creates a file in a directory wsA
// lists, and A's listing takes the directory's lock away. The create's
// record changed the directory, the new inode and the bitmap, so the
// revoke forces the log before the directory sector goes home. At every
// prefix of its writes B dies; the survivor never finds the name without
// its inode. (Letting every record go home ahead of the log fails here:
// the directory sector lands and the log does not.)
func TestHandoffCrashPointsCreate(t *testing.T) {
	setup := func(a, b *FS) {
		if err := b.Mkdir("/d"); err != nil {
			t.Fatal(err)
		}
		if err := b.Sync(); err != nil {
			t.Fatal(err)
		}
		if _, err := a.ReadDir("/d"); err != nil {
			t.Fatal(err)
		}
		if err := b.Create("/d/x"); err != nil {
			t.Fatal(err)
		}
	}
	handoff := func(a *FS) error { _, err := a.ReadDir("/d"); return err }
	check := func(a *FS) error {
		ents, err := a.ReadDir("/d")
		if err != nil {
			return err
		}
		for _, e := range ents {
			// A name whose inode is free reads as a remove that raced the
			// lookup, again and again: ErrRetry.
			if _, err := a.Stat("/d/" + e.Name); err != nil {
				if errors.Is(err, ErrNotExist) || errors.Is(err, ErrRetry) {
					t.Errorf("/d lists %q, whose inode is not there: %v", e.Name, err)
					return nil
				}
				return err
			}
		}
		return nil
	}
	if n := crashPoints(t, setup, handoff, check); n < 2 {
		t.Errorf("the revoke sent %d writes, want the log and the directory sector", n)
	}
}

// TestHandoffMtimeOnlyWritesNoLog: the handoff of a file whose only
// record since its last sync is an overwrite's mtime sends the inode
// sector home ahead of that record: the writer's log is not written, and
// fs.flush.ahead counts the sector.
func TestHandoffMtimeOnlyWritesNoLog(t *testing.T) {
	tw := newTestWorld(t)
	b := tw.mount(t, "wsB", noDemon)
	a := tw.mount(t, "wsA", noDemon)
	old := pattern(16<<10, 2)
	writeFile(t, b, "/f", old)
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	readFile(t, a, "/f")
	h, err := b.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	upd := bytes.Repeat([]byte{0x42}, BlockSize)
	if _, err := h.WriteAt(upd, 0); err != nil {
		t.Fatal(err)
	}
	flushes, ahead := b.log.Stats().Flushes, b.m.flushAhead.Value()
	got := readFile(t, a, "/f")
	if !bytes.Equal(got[:BlockSize], upd) || !bytes.Equal(got[BlockSize:], old[BlockSize:]) {
		t.Fatal("the reader does not read the writer's bytes after the handoff")
	}
	if n := b.log.Stats().Flushes - flushes; n != 0 {
		t.Errorf("the handoff wrote the writer's log %d times, want 0", n)
	}
	if n := b.m.flushAhead.Value() - ahead; n != 1 {
		t.Errorf("fs.flush.ahead counted %d sectors, want 1: the inode", n)
	}
	if dirty := dirtyCount(b.meta, InodeLock(h.inum)); dirty != 0 {
		t.Errorf("%d of the inode's sectors still dirty on the writer after the handoff", dirty)
	}
}

// TestReclaimAfterSectorWentAhead: a revoke sends an inode sector home
// before its record is durable, again and again, until the log fills and
// reclaim runs. Reclaim forces the log through what it releases, so the
// log never holds more bytes that are not durable than it has room for,
// and a crash after it replays to a clean disk.
func TestReclaimAfterSectorWentAhead(t *testing.T) {
	lay := DefaultLayout()
	lay.LogSize = 8 << 10
	tw := newTestWorldLayout(t, lay)
	b := tw.mount(t, "wsB", noDemon)
	a := tw.mount(t, "wsA", noDemon)
	writeFile(t, b, "/f", pattern(16<<10, 3))
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	h, err := b.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	ahead := b.m.flushAhead.Value()
	for i := 0; counterSum(tw, "wal.append.bytes") < 2*lay.LogSize; i++ {
		if _, err := h.WriteAt(bytes.Repeat([]byte{byte(i)}, 64), int64(i%4)*BlockSize); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Stat("/f"); err != nil { // takes the lock: the inode goes home
			t.Fatal(err)
		}
		if backlog, _ := b.log.FlushHealth(); backlog > lay.LogSize {
			t.Fatalf("%d log bytes not durable in a %d-byte log", backlog, lay.LogSize)
		}
	}
	if st := b.log.Stats(); st.AsyncReclaims+st.StallReclaims == 0 {
		t.Fatal("the log was never reclaimed")
	}
	if b.m.flushAhead.Value() == ahead {
		t.Fatal("no revoke sent the inode sector ahead of its record")
	}
	if err := b.Create("/after"); err != nil { // a record the log must replay
		t.Fatal(err)
	}
	if err := b.log.Flush(); err != nil {
		t.Fatal(err)
	}
	b.Crash()
	tw.mounts = slices.DeleteFunc(tw.mounts, func(f *FS) bool { return f == b })
	afterCrash(t, func() error { _, err := a.Stat("/after"); return err })
	if a.m.recoveries.Value() == 0 {
		t.Fatal("no recovery ran on the survivor")
	}
	fsckClean(t, tw)
}
