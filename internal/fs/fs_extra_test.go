package fs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestCrashConsistentSnapshotNeedsReplay exercises §8's first backup
// flavor: a snapshot taken WITHOUT the barrier captures logs with
// unapplied records; Restore must replay them to produce the full
// state.
func TestCrashConsistentSnapshotNeedsReplay(t *testing.T) {
	tw := newTestWorld(t)
	f1 := tw.mount(t, "ws1", func(c *Config) {
		c.SyncLog = true        // records reach Petal...
		c.SyncEvery = time.Hour // ...but metadata write-back never runs
	})
	for i := 0; i < 4; i++ {
		if err := f1.Create([]string{"/a", "/b", "/c", "/d"}[i]); err != nil {
			t.Fatal(err)
		}
	}
	// No barrier, no sync: the files exist only in ws1's log.
	if err := f1.SnapshotCrashConsistent("crashsnap"); err != nil {
		t.Fatal(err)
	}
	pc := tw.client("restorer")
	if err := Restore(pc, "crashsnap", "restored", tw.lay); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(pc, "restored", tw.lay)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		t.Errorf("fsck: %s %s", p.Kind, p.Msg)
	}
	fr, err := Mount(tw.w, "wsX", tw.client("wsX"), "restored", tw.lockNames, tw.lay, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Unmount()
	ents, err := fr.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 4 {
		t.Fatalf("restored crash-consistent snapshot has %d entries, want 4 (log replay failed)", len(ents))
	}
}

// TestReadAheadOffPrefetchesNothing: with Config.ReadAhead 0 (Figure
// 8's knob) a sequential reader of a file another server wrote fetches
// what it reads and nothing ahead of it.
func TestReadAheadOffPrefetchesNothing(t *testing.T) {
	tw := newTestWorld(t)
	w := tw.mount(t, "ws1", nil)
	writeFile(t, w, "/seq", bytes.Repeat([]byte{9}, 256<<10))
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	f := tw.mount(t, "ws2", func(c *Config) { c.ReadAhead = 0 })
	h, err := f.Open("/seq")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	for off := int64(0); off < 256<<10; off += 64 << 10 {
		if _, err := h.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	if hits := f.m.raHits.Value(); hits != 0 {
		t.Fatalf("read-ahead ran while disabled (hits=%d)", hits)
	}
	if fills := f.m.fills.Value(); fills == 0 {
		t.Fatal("the reader filled nothing: the test read from a warm cache")
	}
}

// TestRenameReplacesFileFreesBlocks: the replaced file's storage is
// freed and its bit cleared.
func TestRenameReplacesFileFreesBlocks(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	writeFile(t, f, "/victim", bytes.Repeat([]byte{1}, 8192))
	vic, _ := f.Stat("/victim")
	writeFile(t, f, "/winner", []byte("w"))
	if err := f.Rename("/winner", "/victim"); err != nil {
		t.Fatal(err)
	}
	if set, err := f.bitState(classInode, vic.Inum); err != nil || set {
		t.Fatalf("replaced inode %d still allocated (err=%v)", vic.Inum, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(tw.client("chk"), tw.vd, tw.lay)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		t.Errorf("fsck: %s %s", p.Kind, p.Msg)
	}
}

// TestDeepDirectoryTree exercises long path resolution.
func TestDeepDirectoryTree(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	path := ""
	for i := 0; i < 12; i++ {
		path += "/d"
		if err := f.Mkdir(path); err != nil {
			t.Fatalf("mkdir %s: %v", path, err)
		}
	}
	writeFile(t, f, path+"/leaf", []byte("deep"))
	if got := readFile(t, f, path+"/leaf"); string(got) != "deep" {
		t.Fatalf("deep read %q", got)
	}
	// ".." resolution
	info, err := f.Stat(path + "/../d/leaf")
	if err != nil || info.Size != 4 {
		t.Fatalf("dotdot stat: %+v %v", info, err)
	}
}

// TestManySmallFilesAcrossServers stresses allocation across two
// servers' bitmap portions and checks global consistency.
func TestManySmallFilesAcrossServers(t *testing.T) {
	tw := newTestWorld(t)
	f1 := tw.mount(t, "ws1", nil)
	f2 := tw.mount(t, "ws2", nil)
	if err := f1.Mkdir("/d1"); err != nil {
		t.Fatal(err)
	}
	if err := f2.Mkdir("/d2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		writeFile(t, f1, fmt1("/d1/f%02d", i), bytes.Repeat([]byte{byte(i)}, 5000))
		writeFile(t, f2, fmt1("/d2/f%02d", i), bytes.Repeat([]byte{byte(i)}, 5000))
	}
	if err := f1.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f2.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(tw.client("chk"), tw.vd, tw.lay)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		t.Errorf("fsck: %s %s", p.Kind, p.Msg)
	}
	if rep.Files != 80 {
		t.Fatalf("fsck found %d files, want 80", rep.Files)
	}
	// Cross-verify a few files from the other server.
	for i := 0; i < 40; i += 13 {
		got := readFile(t, f2, fmt1("/d1/f%02d", i))
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 5000)) {
			t.Fatalf("cross-server read mismatch at %d", i)
		}
	}
}

func fmt1(format string, a ...any) string {
	return fmt.Sprintf(format, a...)
}

// TestErrorTaxonomy pins the exported error values.
func TestErrorTaxonomy(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	writeFile(t, f, "/file", []byte("x"))
	cases := []struct {
		err  error
		want error
	}{
		{f.Mkdir("/file/sub"), ErrNotDir},
		{f.Create(""), ErrInval},
		{f.Rmdir("/file"), ErrNotDir},
		{f.Symlink(string(bytes.Repeat([]byte{'a'}, MaxSymlink+1)), "/ln"), ErrNameTooLong},
	}
	for i, c := range cases {
		if !errors.Is(c.err, c.want) {
			t.Errorf("case %d: err=%v want %v", i, c.err, c.want)
		}
	}
	if _, err := f.Open("/file/impossible"); err == nil {
		t.Error("open through a file succeeded")
	}
}
