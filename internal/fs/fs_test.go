package fs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"frangipani/internal/lockservice"
	"frangipani/internal/petal"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// testWorld assembles a full stack: Petal servers, lock servers, and
// an initialized virtual disk ready to mount.
type testWorld struct {
	w          *sim.World
	petals     []*petal.Server
	locks      []*lockservice.Server
	petalNames []string
	lockNames  []string
	lay        Layout
	vd         petal.VDiskID
	mounts     []*FS
}

func lockCfg() lockservice.Config {
	cfg := lockservice.DefaultConfig()
	cfg.HeartbeatEvery = 2 * time.Second
	cfg.SuspectAfter = 10 * time.Second
	return cfg
}

func newTestWorld(t testing.TB) *testWorld {
	t.Helper()
	return newTestWorldLayout(t, DefaultLayout())
}

// newTestWorldLayout is newTestWorld with a caller-chosen layout, for
// tests that need small class ranges (e.g. inode exhaustion).
func newTestWorldLayout(t testing.TB, lay Layout) *testWorld {
	t.Helper()
	return newTestWorldIn(t, sim.NewWorld(100, 99), lay)
}

// newTestWorldIn builds the test cluster in a world the caller made
// (and may have stripped of its registry, for a NoObs cluster).
func newTestWorldIn(t testing.TB, w *sim.World, lay Layout) *testWorld {
	t.Helper()
	tw := &testWorld{w: w, lay: lay, vd: "shared"}

	pcfg := petal.DefaultServerConfig(256 << 20)
	pcfg.NumDisks = 3
	pcfg.HeartbeatEvery = 2 * time.Second
	pcfg.SuspectAfter = 10 * time.Second
	for i := 0; i < 3; i++ {
		tw.petalNames = append(tw.petalNames, fmt.Sprintf("p%d", i))
	}
	for _, n := range tw.petalNames {
		tw.petals = append(tw.petals, petal.NewServer(w, n, tw.petalNames, pcfg))
	}
	for i := 0; i < 3; i++ {
		tw.lockNames = append(tw.lockNames, fmt.Sprintf("ls%d", i))
	}
	for _, n := range tw.lockNames {
		tw.locks = append(tw.locks, lockservice.NewServer(w, n, tw.lockNames, lockCfg()))
	}
	adminPC := tw.client("admin")
	if err := adminPC.CreateVDisk(tw.vd); err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(adminPC, tw.vd, tw.lay); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, f := range tw.mounts {
			if !f.Poisoned() {
				_ = f.Unmount()
			}
		}
		for _, s := range tw.locks {
			s.Close()
		}
		for _, s := range tw.petals {
			s.Close()
		}
		w.Stop()
	})
	return tw
}

func (tw *testWorld) client(machine string) *petal.Client {
	return petal.NewClient(tw.w, machine, tw.petalNames)
}

func (tw *testWorld) mount(t testing.TB, machine string, mutate func(*Config)) *FS {
	t.Helper()
	return tw.mountVia(t, machine, rpc.SimCarrier{Net: tw.w.Net}, mutate)
}

// mountVia is mount with the server's Petal driver on carrier.
func (tw *testWorld) mountVia(t testing.TB, machine string, carrier rpc.Carrier, mutate func(*Config)) *FS {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Lock = lockCfg()
	if mutate != nil {
		mutate(&cfg)
	}
	pc := petal.NewClientWithCarrier(tw.w, machine, tw.petalNames, carrier)
	f, err := Mount(tw.w, machine, pc, tw.vd, tw.lockNames, tw.lay, cfg)
	if err != nil {
		t.Fatalf("mount %s: %v", machine, err)
	}
	tw.mounts = append(tw.mounts, f)
	return f
}

func writeFile(t testing.TB, f *FS, path string, data []byte) {
	t.Helper()
	h, err := f.OpenFile(path, true)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	if _, err := h.WriteAt(data, 0); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
}

func readFile(t *testing.T, f *FS, path string) []byte {
	t.Helper()
	h, err := f.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	size, err := h.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	n, err := h.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		t.Fatalf("read %s: %v", path, err)
	}
	return buf[:n]
}

func TestCreateStatReadDir(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	if err := f.Create("/a.txt"); err != nil {
		t.Fatal(err)
	}
	if err := f.Create("/a.txt"); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := f.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := f.Create("/dir/b.txt"); err != nil {
		t.Fatal(err)
	}
	info, err := f.Stat("/a.txt")
	if err != nil || info.Type != TypeFile || info.Size != 0 || info.Nlink != 1 {
		t.Fatalf("stat a.txt: %+v err=%v", info, err)
	}
	info, err = f.Stat("/dir")
	if err != nil || info.Type != TypeDir || info.Nlink != 2 {
		t.Fatalf("stat dir: %+v err=%v", info, err)
	}
	ents, err := f.ReadDir("/")
	if err != nil || len(ents) != 2 {
		t.Fatalf("readdir / = %v err=%v", ents, err)
	}
	if _, err := f.Stat("/ghost"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat ghost: %v", err)
	}
	if _, err := f.ReadDir("/a.txt"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("readdir on file: %v", err)
	}
}

func TestFileWriteReadRoundTrip(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i * 13)
	}
	writeFile(t, f, "/f", data)
	got := readFile(t, f, "/f")
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	// Overwrite in the middle.
	h, _ := f.Open("/f")
	patch := []byte("PATCHED")
	if _, err := h.WriteAt(patch, 500); err != nil {
		t.Fatal(err)
	}
	copy(data[500:], patch)
	if got := readFile(t, f, "/f"); !bytes.Equal(got, data) {
		t.Fatal("patch mismatch")
	}
}

func TestLargeFileCrossesIntoLargeBlock(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	// 100 KB: 64 KB of small blocks plus 36 KB in the large block.
	data := make([]byte, 100<<10)
	for i := range data {
		data[i] = byte(i / 7)
	}
	writeFile(t, f, "/big", data)
	if got := readFile(t, f, "/big"); !bytes.Equal(got, data) {
		t.Fatal("large file round trip mismatch")
	}
	info, _ := f.Stat("/big")
	if info.Size != int64(len(data)) {
		t.Fatalf("size %d, want %d", info.Size, len(data))
	}
}

func TestSparseFileHolesReadZero(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	if err := f.Create("/sparse"); err != nil {
		t.Fatal(err)
	}
	h, _ := f.Open("/sparse")
	if _, err := h.WriteAt([]byte{0xFF}, 70<<10); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if _, err := h.ReadAt(buf, 4096); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
	// EOF semantics.
	if _, err := h.ReadAt(buf, (70<<10)+1); err != io.EOF {
		t.Fatalf("read past EOF: %v", err)
	}
}

// TestReadStartingInsideHole: a read that starts at an unaligned offset
// inside a hole zero-fills up to the next page boundary only, and then
// returns the data of the page that follows.
func TestReadStartingInsideHole(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	h, err := f.OpenFile("/holey", true)
	if err != nil {
		t.Fatal(err)
	}
	// Page 0 written, page 1 a hole, page 2 written: the model is the
	// whole file as it must read back.
	model := make([]byte, 3*BlockSize)
	for _, page := range []int{0, 2} {
		p := model[page*BlockSize : (page+1)*BlockSize]
		for i := range p {
			p[i] = byte(i)*7 + byte(page) + 1
		}
		if _, err := h.WriteAt(p, int64(page*BlockSize)); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []struct{ off, n int }{
		{BlockSize + 1000, 2 * BlockSize}, // hole+1000, through the written page to EOF
		{BlockSize + 1000, BlockSize},     // ends inside the written page
		{BlockSize - 10, BlockSize + 20},  // data, the whole hole, data
		{BlockSize + 4095, 2},             // the hole's last byte and the next page's first
	} {
		want := model[r.off:min(r.off+r.n, len(model))]
		got := make([]byte, r.n)
		for i := range got {
			got[i] = 0xFF
		}
		n, err := h.ReadAt(got, int64(r.off))
		if err != nil && err != io.EOF {
			t.Fatalf("read %d at %d: %v", r.n, r.off, err)
		}
		if !bytes.Equal(got[:n], want) {
			t.Errorf("read %d at %d: %d bytes that differ from the model", r.n, r.off, n)
		}
	}
}

func TestRemoveAndSpaceReuse(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	writeFile(t, f, "/doomed", bytes.Repeat([]byte{1}, 8192))
	info, _ := f.Stat("/doomed")
	if err := f.Remove("/doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat("/doomed"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat removed: %v", err)
	}
	// The inode bit must be clear again.
	if set, err := f.bitState(classInode, info.Inum); err != nil || set {
		t.Fatalf("inode bit still set after remove (err=%v)", err)
	}
	// Removing again fails.
	if err := f.Remove("/doomed"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestRmdirSemantics(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	if err := f.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := f.Create("/d/x"); err != nil {
		t.Fatal(err)
	}
	if err := f.Rmdir("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	if err := f.Remove("/d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("remove dir: %v", err)
	}
	if err := f.Remove("/d/x"); err != nil {
		t.Fatal(err)
	}
	if err := f.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
	root, _ := f.Stat("/")
	if root.Nlink != 2 {
		t.Fatalf("root nlink %d after rmdir, want 2", root.Nlink)
	}
}

func TestRename(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	writeFile(t, f, "/old", []byte("hello"))
	if err := f.Mkdir("/sub"); err != nil {
		t.Fatal(err)
	}
	// Same-dir rename.
	if err := f.Rename("/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, f, "/new"); string(got) != "hello" {
		t.Fatalf("renamed content %q", got)
	}
	if _, err := f.Stat("/old"); !errors.Is(err, ErrNotExist) {
		t.Fatal("old name still present")
	}
	// Cross-dir rename.
	if err := f.Rename("/new", "/sub/moved"); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, f, "/sub/moved"); string(got) != "hello" {
		t.Fatalf("moved content %q", got)
	}
	// Replacing rename.
	writeFile(t, f, "/victim", []byte("bye"))
	writeFile(t, f, "/attacker", []byte("won"))
	if err := f.Rename("/attacker", "/victim"); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, f, "/victim"); string(got) != "won" {
		t.Fatalf("replace content %q", got)
	}
	// Directory into own subtree is rejected.
	if err := f.Mkdir("/sub/inner"); err != nil {
		t.Fatal(err)
	}
	if err := f.Rename("/sub", "/sub/inner/evil"); !errors.Is(err, ErrInval) {
		t.Fatalf("cycle rename: %v", err)
	}
	// Directory rename moves nlink accounting.
	if err := f.Rename("/sub/inner", "/top"); err != nil {
		t.Fatal(err)
	}
	sub, _ := f.Stat("/sub")
	if sub.Nlink != 2 {
		t.Fatalf("sub nlink %d, want 2", sub.Nlink)
	}
	root, _ := f.Stat("/")
	if root.Nlink != 4 { // ".", "..", sub, top
		t.Fatalf("root nlink %d, want 4", root.Nlink)
	}
}

func TestSymlinks(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	writeFile(t, f, "/target", []byte("payload"))
	if err := f.Symlink("/target", "/ln"); err != nil {
		t.Fatal(err)
	}
	got, err := f.Readlink("/ln")
	if err != nil || got != "/target" {
		t.Fatalf("readlink = %q err=%v", got, err)
	}
	// Opening through the symlink reaches the target.
	if got := readFile(t, f, "/ln"); string(got) != "payload" {
		t.Fatalf("read through symlink: %q", got)
	}
	// Relative symlink.
	if err := f.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := f.Symlink("../target", "/d/rel"); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, f, "/d/rel"); string(got) != "payload" {
		t.Fatalf("read through relative symlink: %q", got)
	}
	// Symlink loops terminate.
	if err := f.Symlink("/loop2", "/loop1"); err != nil {
		t.Fatal(err)
	}
	if err := f.Symlink("/loop1", "/loop2"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Open("/loop1"); err == nil {
		t.Fatal("symlink loop resolved")
	}
}

func TestHardLinks(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	writeFile(t, f, "/orig", []byte("shared bytes"))
	if err := f.Link("/orig", "/alias"); err != nil {
		t.Fatal(err)
	}
	info, _ := f.Stat("/orig")
	if info.Nlink != 2 {
		t.Fatalf("nlink %d, want 2", info.Nlink)
	}
	if err := f.Remove("/orig"); err != nil {
		t.Fatal(err)
	}
	// Content survives through the other link.
	if got := readFile(t, f, "/alias"); string(got) != "shared bytes" {
		t.Fatalf("alias content %q", got)
	}
	info, _ = f.Stat("/alias")
	if info.Nlink != 1 {
		t.Fatalf("nlink %d after remove, want 1", info.Nlink)
	}
}

func TestTruncate(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	data := bytes.Repeat([]byte{7}, 80<<10) // into the large block
	writeFile(t, f, "/t", data)
	h, _ := f.Open("/t")
	if err := h.Truncate(5000); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, f, "/t")
	if len(got) != 5000 || !bytes.Equal(got, data[:5000]) {
		t.Fatalf("truncated content wrong (len %d)", len(got))
	}
	// Extend: the re-grown region must read zeros, not stale bytes.
	if err := h.Truncate(9000); err != nil {
		t.Fatal(err)
	}
	got = readFile(t, f, "/t")
	for _, b := range got[5000:] {
		if b != 0 {
			t.Fatal("extended region not zero")
		}
	}
}

func TestCoherentSharingAcrossServers(t *testing.T) {
	tw := newTestWorld(t)
	f1 := tw.mount(t, "ws1", nil)
	f2 := tw.mount(t, "ws2", nil)
	// "changes made to a file or directory on one machine are
	// immediately visible on all others" (§2.1).
	writeFile(t, f1, "/shared", []byte("from ws1"))
	if got := readFile(t, f2, "/shared"); string(got) != "from ws1" {
		t.Fatalf("ws2 sees %q", got)
	}
	// And back: ws2 updates, ws1 must see it.
	h2, _ := f2.Open("/shared")
	if _, err := h2.WriteAt([]byte("from ws2!"), 0); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, f1, "/shared"); string(got) != "from ws2!" {
		t.Fatalf("ws1 sees %q", got)
	}
	// Namespace coherence.
	if err := f1.Mkdir("/made-on-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Stat("/made-on-1"); err != nil {
		t.Fatalf("ws2 cannot see new dir: %v", err)
	}
	if err := f2.Remove("/shared"); err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Stat("/shared"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("ws1 still sees removed file: %v", err)
	}
}

func TestConcurrentCreatesDistinctServers(t *testing.T) {
	tw := newTestWorld(t)
	f1 := tw.mount(t, "ws1", nil)
	f2 := tw.mount(t, "ws2", nil)
	done := make(chan error, 2)
	go func() {
		for i := 0; i < 8; i++ {
			if err := f1.Create(fmt.Sprintf("/a%d", i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 8; i++ {
			if err := f2.Create(fmt.Sprintf("/b%d", i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	ents, err := f1.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 16 {
		t.Fatalf("%d entries, want 16", len(ents))
	}
	seen := make(map[int64]bool)
	for _, e := range ents {
		if seen[e.Inum] {
			t.Fatalf("inode %d allocated twice", e.Inum)
		}
		seen[e.Inum] = true
	}
}

func TestCrashRecoveryReplaysLog(t *testing.T) {
	tw := newTestWorld(t)
	f1 := tw.mount(t, "ws1", func(c *Config) {
		c.SyncLog = true        // log reaches Petal
		c.SyncEvery = time.Hour // but metadata write-back never runs
	})
	f2 := tw.mount(t, "ws2", nil)

	// ws1 creates files; the updates are in its log but NOT in the
	// permanent locations.
	for i := 0; i < 5; i++ {
		if err := f1.Create(fmt.Sprintf("/crash%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	f1.Crash()

	// ws2 forces the conflict: its operations need ws1's locks, which
	// the lock service releases only after recovery replays ws1's log.
	deadline := time.Now().Add(60 * time.Second)
	var ents []DirEntry
	for time.Now().Before(deadline) {
		var err error
		ents, err = f2.ReadDir("/")
		if err == nil && len(ents) == 5 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(ents) != 5 {
		t.Fatalf("after recovery ws2 sees %d entries, want 5", len(ents))
	}
	for i := 0; i < 5; i++ {
		if _, err := f2.Stat(fmt.Sprintf("/crash%d", i)); err != nil {
			t.Fatalf("crash%d missing after recovery: %v", i, err)
		}
	}
	if f2.m.recoveries.Value() == 0 {
		t.Fatal("no recovery ran on ws2")
	}
	// The recovered state passes the consistency check.
	rep, err := Check(tw.client("checker"), tw.vd, tw.lay)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		t.Errorf("fsck: %s: %s", p.Kind, p.Msg)
	}
}

func TestLeaseLossPoisonsDirtyServer(t *testing.T) {
	tw := newTestWorld(t)
	f1 := tw.mount(t, "ws1", func(c *Config) {
		c.SyncEvery = time.Hour // keep data dirty
	})
	writeFile(t, f1, "/dirty", []byte("unsaved"))
	// Partition ws1's clerk from the lock service.
	tw.w.Net.Isolate(lockservice.ClerkAddr("ws1"))
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) && !f1.Poisoned() {
		time.Sleep(5 * time.Millisecond)
	}
	if !f1.Poisoned() {
		t.Fatal("server with dirty cache not poisoned after lease loss")
	}
	if err := f1.Create("/nope"); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("op on poisoned fs: %v", err)
	}
}

func TestServerAdditionIsTransparent(t *testing.T) {
	tw := newTestWorld(t)
	f1 := tw.mount(t, "ws1", nil)
	writeFile(t, f1, "/pre", []byte("before"))
	// §7: "The new server need only be told which Petal virtual disk
	// to use and where to find the lock service."
	f3 := tw.mount(t, "ws3", nil)
	if got := readFile(t, f3, "/pre"); string(got) != "before" {
		t.Fatalf("new server reads %q", got)
	}
	writeFile(t, f3, "/post", []byte("after"))
	if got := readFile(t, f1, "/post"); string(got) != "after" {
		t.Fatalf("old server reads %q", got)
	}
	if f1.LogSlot() == f3.LogSlot() {
		t.Fatal("two live servers share a log slot")
	}
}

func TestBackupBarrierSnapshotAndRestore(t *testing.T) {
	tw := newTestWorld(t)
	f1 := tw.mount(t, "ws1", func(c *Config) {
		c.SyncEvery = time.Hour // force the barrier to do the cleaning
	})
	f2 := tw.mount(t, "ws2", func(c *Config) {
		c.SyncEvery = time.Hour
	})
	writeFile(t, f1, "/a", []byte("alpha"))
	writeFile(t, f2, "/b", []byte("beta"))

	if err := f1.SnapshotWithBarrier("snap1"); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot writes must not appear in the snapshot.
	writeFile(t, f1, "/c", []byte("gamma"))

	// Restore the snapshot to a new disk and verify it without any
	// recovery (the barrier made it FS-level consistent).
	adminPC := tw.client("restorer")
	if err := Restore(adminPC, "snap1", "restored", tw.lay); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(adminPC, "restored", tw.lay)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		t.Errorf("fsck on restored: %s: %s", p.Kind, p.Msg)
	}
	fr, err := Mount(tw.w, "ws9", tw.client("ws9"), "restored", tw.lockNames, tw.lay, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Unmount()
	if got := readFile(t, fr, "/a"); string(got) != "alpha" {
		t.Fatalf("restored /a = %q", got)
	}
	if got := readFile(t, fr, "/b"); string(got) != "beta" {
		t.Fatalf("restored /b = %q", got)
	}
	if _, err := fr.Stat("/c"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("post-snapshot file leaked into snapshot: %v", err)
	}
}

func TestFsckDetectsCorruption(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	writeFile(t, f, "/x", []byte("data"))
	if err := f.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	pc := tw.client("corruptor")
	rep, err := Check(pc, tw.vd, tw.lay)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		for _, p := range rep.Problems {
			t.Logf("pre-corruption: %s %s", p.Kind, p.Msg)
		}
		t.Fatal("clean fs reported problems")
	}
	// Corrupt: clear the nlink of /x's inode behind the FS's back.
	info, _ := f.Stat("/x")
	sec := make([]byte, SectorSize)
	if err := pc.Read(tw.vd, tw.lay.InodeAddr(info.Inum), sec); err != nil {
		t.Fatal(err)
	}
	sec[offNlink] = 9
	if err := pc.Write(tw.vd, tw.lay.InodeAddr(info.Inum), sec); err != nil {
		t.Fatal(err)
	}
	rep, err = Check(pc, tw.vd, tw.lay)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range rep.Problems {
		if p.Kind == "nlink" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fsck missed the nlink corruption: %+v", rep.Problems)
	}
}

func TestLogReclaimUnderLoad(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", func(c *Config) {
		c.SyncEvery = time.Hour // only reclaim pressure flushes
	})
	// The 128 KB log fills after ~1000-1600 metadata ops (§4); do
	// enough creates to wrap it several times.
	for i := 0; i < 600; i++ {
		if err := f.Create(fmt.Sprintf("/f%03d", i)); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		if i%3 == 0 {
			if err := f.Remove(fmt.Sprintf("/f%03d", i)); err != nil {
				t.Fatalf("remove %d: %v", i, err)
			}
		}
	}
	ents, err := f.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 400 {
		t.Fatalf("%d entries, want 400", len(ents))
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(tw.client("checker"), tw.vd, tw.lay)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		t.Errorf("fsck after reclaim: %s: %s", p.Kind, p.Msg)
	}
}

func TestWriteSharingAlternatingWriters(t *testing.T) {
	tw := newTestWorld(t)
	f1 := tw.mount(t, "ws1", nil)
	f2 := tw.mount(t, "ws2", nil)
	writeFile(t, f1, "/pingpong", make([]byte, 4096))
	h1, _ := f1.Open("/pingpong")
	h2, _ := f2.Open("/pingpong")
	for round := 0; round < 4; round++ {
		tag1 := []byte(fmt.Sprintf("ws1-round-%d", round))
		if _, err := h1.WriteAt(tag1, 0); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(tag1))
		if _, err := h2.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, tag1) {
			t.Fatalf("round %d: ws2 read %q, want %q", round, buf, tag1)
		}
		tag2 := []byte(fmt.Sprintf("WS2-ROUND-%d", round))
		if _, err := h2.WriteAt(tag2, 100); err != nil {
			t.Fatal(err)
		}
		if _, err := h1.ReadAt(buf, 100); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, tag2[:len(buf)]) {
			t.Fatalf("round %d: ws1 read %q, want %q", round, buf, tag2)
		}
	}
}

func TestDirectoryGrowsAcrossSectorsAndBlocks(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	// Enough entries to need several sectors (and more than one 4 KB
	// metadata block for the directory).
	const n = 400
	for i := 0; i < n; i++ {
		if err := f.Create(fmt.Sprintf("/file-with-a-rather-long-name-%04d", i)); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	ents, err := f.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != n {
		t.Fatalf("%d entries, want %d", len(ents), n)
	}
	// Spot-check lookups.
	for _, i := range []int{0, n / 2, n - 1} {
		if _, err := f.Stat(fmt.Sprintf("/file-with-a-rather-long-name-%04d", i)); err != nil {
			t.Fatalf("stat %d: %v", i, err)
		}
	}
	root, _ := f.Stat("/")
	if root.Size <= SectorSize {
		t.Fatalf("root dir size %d; expected growth", root.Size)
	}
}

func TestFsyncDurability(t *testing.T) {
	tw := newTestWorld(t)
	f1 := tw.mount(t, "ws1", func(c *Config) {
		c.SyncEvery = time.Hour
	})
	writeFile(t, f1, "/durable", []byte("must survive"))
	h, _ := f1.Open("/durable")
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	// After fsync the data is in Petal: a direct (uncached) read of a
	// fresh client must see it once metadata is recovered/replayed.
	// Simpler check here: a second server reads it (its cache is
	// cold, so the bytes must come from Petal).
	f2 := tw.mount(t, "ws2", nil)
	if got := readFile(t, f2, "/durable"); string(got) != "must survive" {
		t.Fatalf("after fsync, ws2 reads %q", got)
	}
}
