package fs

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"frangipani/internal/lockservice"
)

// handoffFixture is a file of one chunk that server "wsB" wrote and
// server "wsA" has read, so A holds the file's lock shared and its inode
// cached: the next write of B's takes the lock from A.
func handoffFixture(t *testing.T) (tw *testWorld, a, b *FS, fa, fb *File, data []byte) {
	t.Helper()
	tw = newTestWorld(t)
	b = tw.mount(t, "wsB", nil)
	a = tw.mount(t, "wsA", nil)
	data = bytes.Repeat([]byte("frangipani v1 "), 5000)[:64<<10]
	writeFile(t, b, "/f", data)
	var err error
	if fb, err = b.Open("/f"); err != nil {
		t.Fatal(err)
	}
	if fa, err = a.Open("/f"); err != nil {
		t.Fatal(err)
	}
	readAll(t, fa, data)
	return tw, a, b, fa, fb, data
}

// readAll reads f whole and checks it holds want.
func readAll(t *testing.T, f *File, want []byte) {
	t.Helper()
	got := make([]byte, len(want))
	if n, err := f.ReadAt(got, 0); (err != nil && err != io.EOF) || n != len(want) {
		t.Fatalf("read %d of %d bytes: %v", n, len(want), err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read the wrong bytes")
	}
}

// TestHandoffReReadIsOneReadV: once another server's write has taken a
// file's lock away, the reader's next read of it fetches the inode and
// the pages the inode mapped when the lock went in one Petal ReadV —
// no Read of the inode sector before it — and the pages it keeps are
// the writer's.
func TestHandoffReReadIsOneReadV(t *testing.T) {
	tw, a, _, fa, fb, data := handoffFixture(t)
	rec := bytes.Repeat([]byte{0x5a}, BlockSize)
	if _, err := fb.WriteAt(rec, 8*BlockSize); err != nil {
		t.Fatal(err)
	}
	copy(data[8*BlockSize:], rec)
	reads := tw.w.Obs.Histogram("petal.read.latency#wsA")
	readvs := tw.w.Obs.Histogram("petal.readv.latency#wsA")
	r0, v0, spec, fills := reads.Count(), readvs.Count(), a.m.specFills.Value(), a.m.fills.Value()
	readAll(t, fa, data)
	if r, v := reads.Count()-r0, readvs.Count()-v0; r != 0 || v != 1 {
		t.Errorf("the re-read made %d Reads and %d ReadVs of Petal, want 0 and 1", r, v)
	}
	if n := a.m.specFills.Value() - spec; n != 1 {
		t.Errorf("%d speculative fills, want 1", n)
	}
	if n := a.m.fills.Value() - fills; n != 0 {
		t.Errorf("%d page fills after the speculative one, want none", n)
	}
	if n := a.m.specDropped.Value(); n != 0 {
		t.Errorf("%d speculative fills dropped, want none: the blocks did not move", n)
	}
}

// TestHandoffHintStaleAfterRewrite: the writer truncates the file and
// writes it again, and a file it makes in between takes the first
// block, so the rewritten file's blocks are not where the reader's hint
// says. The reader drops what it fetched on the hint's word and returns
// the new bytes.
func TestHandoffHintStaleAfterRewrite(t *testing.T) {
	_, a, b, fa, fb, _ := handoffFixture(t)
	if err := fb.Truncate(0); err != nil {
		t.Fatal(err)
	}
	writeFile(t, b, "/h", bytes.Repeat([]byte{0x11}, BlockSize))
	v2 := bytes.Repeat([]byte("frangipani v2 "), 5000)[:64<<10]
	if _, err := fb.WriteAt(v2, 0); err != nil {
		t.Fatal(err)
	}
	dropped := a.m.specDropped.Value()
	readAll(t, fa, v2)
	if n := a.m.specDropped.Value() - dropped; n != 1 {
		t.Errorf("%d speculative fills dropped, want 1: the blocks moved", n)
	}
}

// TestHandoffHintBlocksReusedElsewhere: the blocks the reader's hint
// names become another file's, which the writer keeps writing under that
// file's lock. Nothing the reader fetched on the hint's word may stay in
// its cache: a read of the other file returns that file's newest bytes,
// and a read of the first file never returns the other's. (Planting a
// speculative fill that keeps its pages without comparing block maps
// fails here.)
func TestHandoffHintBlocksReusedElsewhere(t *testing.T) {
	_, a, b, fa, fb, _ := handoffFixture(t)
	if err := fb.Truncate(0); err != nil {
		t.Fatal(err)
	}
	g1 := bytes.Repeat([]byte("other file g1 "), 5000)[:64<<10]
	writeFile(t, b, "/g", g1) // takes the blocks /f gave back
	v2 := bytes.Repeat([]byte("frangipani v2 "), 5000)[:64<<10]
	if _, err := fb.WriteAt(v2, 0); err != nil {
		t.Fatal(err)
	}
	readAll(t, fa, v2)
	gb, err := b.Open("/g")
	if err != nil {
		t.Fatal(err)
	}
	g2 := bytes.Repeat([]byte("other file g2 "), 5000)[:64<<10]
	if _, err := gb.WriteAt(g2, 0); err != nil {
		t.Fatal(err)
	}
	ga, err := a.Open("/g")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, ga, g2)
}

// TestConcurrentOpensFillOnce: two lookups of one path on a server that
// has cached nothing both miss the same directory and inode sectors, and
// fill them at once. Neither fill may copy over the entry the other is
// already reading (the race detector watches).
func TestConcurrentOpensFillOnce(t *testing.T) {
	tw := newTestWorld(t)
	w := tw.mount(t, "wsW", nil)
	if err := w.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	writeFile(t, w, "/d/f", []byte("x"))
	for i := 0; i < 4; i++ {
		fresh := tw.mount(t, "wsR"+string(rune('0'+i)), nil)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for j := 0; j < 2; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := fresh.Open("/d/f"); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}

// handoffReadAllocs bounds what a 64 KB read right after another
// server's write took the file's lock allocates, the whole process
// counted: the lock traffic — one object a message: the acquire batch,
// the revoke, the release batch and the grant —, the writer's flush as
// its lock is downgraded (nothing), the speculative fill's claim and the
// lone ReadV's five replies, two per replica of the pages' chunk and one
// from the inode sector's server, one object each. The sixteen pages and
// the inode sector cost nothing: the revoke dropped the file's entries,
// and the fill takes them again; nor does the fill's claim, which comes
// from the gate's free list. It counts 9. It counted 11 to 12 while every
// claim and transaction was a new object, 28 to 29
// while every page and sector filled was a new object, 94 to 97 while
// every request cost five objects, then 68 while the clerk's queue, its
// batches' lists, its revoke goroutine, the server's waiter queue and
// cast lists, the Petal fan-outs, the fill's Petal view and every read
// reply's parts allocated. A bound, not a pin: the lock traffic around a
// handoff moves the count by one. Lower it with a change that means to.
const handoffReadAllocs = 9

// TestHandoffReadAllocs holds a handoff read to handoffReadAllocs. The
// writer's write, and the revoke it causes, run before each count
// starts; what the world's demons allocate meanwhile is not the read's,
// so the least of several rounds is the read's own. Checked only without
// the race detector.
func TestHandoffReadAllocs(t *testing.T) {
	_, a, _, fa, fb, data := handoffFixture(t)
	rec := make([]byte, BlockSize)
	buf := make([]byte, len(data))
	least := int64(-1)
	spec := a.m.specFills.Value()
	const rounds = 40
	for i := 0; i < rounds; i++ {
		if _, err := fb.WriteAt(rec, int64(i%16)*BlockSize); err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := fa.ReadAt(buf, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if n := int64(m1.Mallocs - m0.Mallocs); least < 0 || n < least {
			least = n
		}
	}
	if n := a.m.specFills.Value() - spec; n != rounds {
		t.Fatalf("%d speculative fills in %d handoff reads", n, rounds)
	}
	t.Logf("allocs per handoff 64 KB ReadAt: %d", least)
	if !raceBuild() && least > handoffReadAllocs {
		t.Fatalf("a handoff 64 KB ReadAt allocates %d times, want at most %d", least, handoffReadAllocs)
	}
}

// dirHandoffFixture is a directory /d of a few entries that server "wsA"
// made and server "wsB" has added to, so B holds /d's lock and A, which
// created through it, has had it taken away: A keeps a hint of /d.
func dirHandoffFixture(t *testing.T) (tw *testWorld, a, b *FS) {
	t.Helper()
	tw = newTestWorld(t)
	a = tw.mount(t, "wsA", nil)
	b = tw.mount(t, "wsB", nil)
	if err := a.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := a.Create(fmt.Sprintf("/d/a%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Create("/d/b0"); err != nil {
		t.Fatal(err)
	}
	return tw, a, b
}

// petalFetches returns a function that reports the Petal Reads and
// ReadVs machine has made since it was called.
func petalFetches(tw *testWorld, machine string) func() (reads, readvs int64) {
	r := tw.w.Obs.Histogram("petal.read.latency#" + machine)
	v := tw.w.Obs.Histogram("petal.readv.latency#" + machine)
	r0, v0 := r.Count(), v.Count()
	return func() (int64, int64) { return r.Count() - r0, v.Count() - v0 }
}

// TestDirHandoffCreateRemoveIsOneReadV: once another server's create has
// taken a directory's lock away, a create in it and then a remove from
// it — each right after such a handoff — fetch the directory's inode
// sector and the content sectors its hint maps in one Petal ReadV, and
// nothing else.
func TestDirHandoffCreateRemoveIsOneReadV(t *testing.T) {
	tw, a, b := dirHandoffFixture(t)
	for i, op := range []struct {
		name string
		do   func() error
	}{
		{"create", func() error { return a.Create("/d/a4") }},
		{"remove", func() error { return a.Remove("/d/a1") }},
	} {
		if i > 0 {
			if err := b.Create(fmt.Sprintf("/d/b%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		dirs, dropped := a.m.specDirs.Value(), a.m.specDropped.Value()
		fetched := petalFetches(tw, "wsA")
		if err := op.do(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if r, v := fetched(); r != 0 || v != 1 {
			t.Errorf("the %s after a handoff made %d Reads and %d ReadVs of Petal, want 0 and 1", op.name, r, v)
		}
		if n := a.m.specDirs.Value() - dirs; n != 1 {
			t.Errorf("the %s made %d speculative directory fills, want 1", op.name, n)
		}
		if n := a.m.specDropped.Value() - dropped; n != 0 {
			t.Errorf("the %s dropped %d speculative fills, want none: the directory kept its block", op.name, n)
		}
	}
	want := []string{"a0", "a2", "a3", "a4", "b0", "b1"}
	for _, f := range []*FS{a, b} {
		if got := names(t, f, "/d"); !slices.Equal(got, want) {
			t.Errorf("%s lists %v, want %v", f.machine, got, want)
		}
	}
}

// names returns the sorted names in directory path, as f lists them.
func names(t *testing.T, f *FS, path string) []string {
	t.Helper()
	es, err := f.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range es {
		out = append(out, e.Name)
	}
	slices.Sort(out)
	return out
}

// longName is an entry name of about a quarter of a directory sector, so
// that a few dozen entries fill a directory block.
func longName(prefix string, i int) string {
	return fmt.Sprintf("%s%03d-%s", prefix, i, strings.Repeat("x", 100))
}

// TestDirHandoffHintStaleAfterGrowth: after A's hint was taken, the other
// server adds entries until the directory grows a second block, then
// removes some from the first. A lists exactly the entries there are:
// neither the sectors it cached before the handoff nor the ones its hint
// names may stand in for what B wrote. (Planting a revoke that keeps the
// directory's sectors fails here.)
func TestDirHandoffHintStaleAfterGrowth(t *testing.T) {
	_, a, b := dirHandoffFixture(t)
	for i := 0; i < 48; i++ { // four a sector: twelve sectors
		if err := b.Create("/d/" + longName("g", i)); err != nil {
			t.Fatal(err)
		}
	}
	if info, err := b.Stat("/d"); err != nil || info.Size <= BlockSize {
		t.Fatalf("setup: /d is %d bytes (%v), want more than a block", info.Size, err)
	}
	for _, n := range []string{"a0", "a2", "b0", longName("g", 3), longName("g", 40)} {
		if err := b.Remove("/d/" + n); err != nil {
			t.Fatal(err)
		}
	}
	dropped := a.m.specDropped.Value()
	if got, want := names(t, a, "/d"), names(t, b, "/d"); !slices.Equal(got, want) {
		t.Fatalf("A lists %d entries, B %d: A %v", len(got), len(want), got)
	}
	if n := a.m.specDropped.Value() - dropped; n != 1 {
		t.Errorf("%d speculative fills dropped, want 1: the directory grew a block", n)
	}
}

// TestDirHandoffHintBlocksReusedElsewhere: A's hint names the block of
// /d, a directory the other server made, and that server empties and
// removes /d; a file takes /d's inode and another directory, /o, takes
// its block, under /o's lock. A's next fetch of the inode drops what it
// read on the hint's word, and A lists /o as it is after B has written
// it again. (Planting a speculative fill that keeps its sectors without
// comparing block maps fails here.)
func TestDirHandoffHintBlocksReusedElsewhere(t *testing.T) {
	tw := newTestWorld(t)
	a := tw.mount(t, "wsA", nil)
	b := tw.mount(t, "wsB", nil)
	if err := b.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := b.Create(fmt.Sprintf("/d/b%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.ReadDir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := b.Create("/d/b4"); err != nil { // A keeps a hint of /d
		t.Fatal(err)
	}
	d, err := b.Stat("/d")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := b.Remove(fmt.Sprintf("/d/b%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := b.Create("/g"); err != nil { // takes /d's inode
		t.Fatal(err)
	}
	if g, err := b.Stat("/g"); err != nil || g.Inum != d.Inum {
		t.Fatalf("setup: /g is inode %d (%v), want /d's %d", g.Inum, err, d.Inum)
	}
	if err := b.Mkdir("/o"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // the first takes /d's block
		if err := b.Create(fmt.Sprintf("/o/o%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	dropped := a.m.specDropped.Value()
	if g, err := a.Stat("/g"); err != nil || g.Type != TypeFile {
		t.Fatalf("A stats /g as %v (%v), want a file", g.Type, err)
	}
	if n := a.m.specDropped.Value() - dropped; n != 1 {
		t.Errorf("%d speculative fills dropped, want 1: the inode is a file now", n)
	}
	for i := 3; i < 6; i++ {
		if err := b.Create(fmt.Sprintf("/o/o%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"o0", "o1", "o2", "o3", "o4", "o5"}
	if got := names(t, a, "/o"); !slices.Equal(got, want) {
		t.Fatalf("A lists /o as %v, want %v", got, want)
	}
}

// TestFirstTouchSegmentStolenByTurns: two servers create files by turns
// in a file system with one inode segment, so each create steals the
// segment's lock from the other, and with it the free inodes whose locks
// the other took ahead on its first touch. Then they remove every third
// file and create again by turns, in inodes the other server freed.
// Every file reads back, on both servers, what its creator wrote, and
// fsck is clean.
func TestFirstTouchSegmentStolenByTurns(t *testing.T) {
	tw := newTestWorldLayout(t, tinyInodeLayout())
	servers := []*FS{tw.mount(t, "wsA", nil), tw.mount(t, "wsB", nil)}
	for _, f := range servers {
		if err := f.Mkdir("/" + f.machine); err != nil {
			t.Fatal(err)
		}
	}
	content := map[string][]byte{}
	create := func(i int) {
		f := servers[i%2]
		path := fmt.Sprintf("/%s/f%d", f.machine, i)
		data := []byte(fmt.Sprintf("%s made file %d", f.machine, i))
		writeFile(t, f, path, data)
		content[path] = data
	}
	const n = 40
	for i := 0; i < n; i++ {
		create(i)
	}
	for i := 0; i < n; i += 3 {
		f := servers[i%2]
		path := fmt.Sprintf("/%s/f%d", f.machine, i)
		if err := servers[(i+1)%2].Remove(path); err != nil {
			t.Fatal(err)
		}
		delete(content, path)
	}
	for i := n; i < n+n/2; i++ {
		create(i)
	}
	inums := map[int64]string{}
	for path, data := range content {
		for _, f := range servers {
			if got := readFile(t, f, path); !bytes.Equal(got, data) {
				t.Errorf("%s reads %s as %q, want %q", f.machine, path, got, data)
			}
		}
		info, err := servers[0].Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if other, dup := inums[info.Inum]; dup {
			t.Errorf("%s and %s are both inode %d", path, other, info.Inum)
		}
		inums[info.Inum] = path
	}
	for _, f := range servers {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Check(tw.client("fsck"), tw.vd, tw.lay)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		t.Errorf("fsck: %s %s", p.Kind, p.Msg)
	}
}

// revokeNoneAllocs bounds what a lock handoff that takes a cached
// directory's lock to None from its holder allocates, the whole process
// counted: one object a message — the taker's acquire batch, the revoke,
// the holder's release batch and the grant. The holder's side, the
// flush of nothing dirty, the hint it keeps (a slot of a fixed table)
// and the invalidation of the directory's sectors, allocates nothing.
// A bound, not a pin, as handoffReadAllocs is.
const revokeNoneAllocs = 4

// TestRevokeToNoneAllocs holds a revoke to None to revokeNoneAllocs.
// Each round A lists /d, which takes its lock back shared and fills its
// sectors, before the count starts; then B takes the lock exclusive.
// The least of several rounds is the handoff's own. Checked only
// without the race detector.
func TestRevokeToNoneAllocs(t *testing.T) {
	_, a, b := dirHandoffFixture(t)
	info, err := a.Stat("/d")
	if err != nil {
		t.Fatal(err)
	}
	id := InodeLock(info.Inum)
	least := int64(-1)
	const rounds = 30
	for i := 0; i < rounds; i++ {
		if _, err := a.ReadDir("/d"); err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := b.clerk.Lock(id, lockservice.Exclusive); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		b.clerk.Unlock(id)
		if n := int64(m1.Mallocs - m0.Mallocs); least < 0 || n < least {
			least = n
		}
	}
	if a.meta.Contains(a.lay.InodeAddr(info.Inum)) {
		t.Fatal("the revoke left /d's inode sector cached")
	}
	t.Logf("allocs per revoke to None: %d", least)
	if !raceBuild() && least > revokeNoneAllocs {
		t.Fatalf("a revoke to None allocates %d times, want at most %d", least, revokeNoneAllocs)
	}
}
