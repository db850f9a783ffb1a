package localfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"frangipani/internal/sim"
)

func newFS(t *testing.T) *FS {
	t.Helper()
	w := sim.NewWorld(1000, 3)
	cfg := DefaultConfig()
	cfg.DiskParams = sim.DefaultDiskParams(64 << 20)
	f := New(w, "adv", cfg)
	t.Cleanup(func() {
		f.Close()
		w.Stop()
	})
	return f
}

func TestNamespaceOps(t *testing.T) {
	f := newFS(t)
	if err := f.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := f.Create("/d/x"); err != nil {
		t.Fatal(err)
	}
	if err := f.Create("/d/x"); !errors.Is(err, ErrExist) {
		t.Fatalf("dup create: %v", err)
	}
	info, err := f.Stat("/d/x")
	if err != nil || info.IsDir {
		t.Fatalf("stat: %+v %v", info, err)
	}
	ents, err := f.ReadDir("/d")
	if err != nil || len(ents) != 1 || ents[0].Name != "x" {
		t.Fatalf("readdir: %v %v", ents, err)
	}
	if err := f.Rename("/d/x", "/y"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat("/d/x"); !errors.Is(err, ErrNotExist) {
		t.Fatal("rename left source")
	}
	if err := f.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := f.Remove("/y"); err != nil {
		t.Fatal(err)
	}
	if err := f.Rmdir("/nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("rmdir missing: %v", err)
	}
}

func TestFileIO(t *testing.T) {
	f := newFS(t)
	h, err := f.OpenFile("/f", true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 200<<10) // spans several stripe units
	for i := range data {
		data[i] = byte(i * 31)
	}
	if _, err := h.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if n, err := h.ReadAt(got, 0); err != nil && err != io.EOF || n != len(data) {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	// Durability through cache eviction: force a sync, drop pages by
	// overfilling, then re-read.
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadAt(got[:100], int64(len(data))); err != io.EOF {
		t.Fatalf("EOF read: %v", err)
	}
}

func TestEvictionWriteback(t *testing.T) {
	w := sim.NewWorld(2000, 3)
	defer w.Stop()
	cfg := DefaultConfig()
	cfg.DiskParams = sim.DefaultDiskParams(64 << 20)
	cfg.CacheCap = 8 // tiny cache forces eviction
	f := New(w, "adv", cfg)
	defer f.Close()
	h, err := f.OpenFile("/f", true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64*PageSize)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if _, err := h.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := h.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost through eviction")
	}
}

func TestStripingSpreadsDisks(t *testing.T) {
	f := newFS(t)
	h, _ := f.OpenFile("/big", true)
	data := make([]byte, 8*StripeSize)
	if _, err := h.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	used := 0
	for _, d := range f.disks {
		if _, w, _, _ := d.Stats(); w > 0 {
			used++
		}
	}
	if used < 4 {
		t.Fatalf("writes hit only %d disks; striping ineffective", used)
	}
}

func TestManySmallFiles(t *testing.T) {
	f := newFS(t)
	for i := 0; i < 100; i++ {
		path := fmt.Sprintf("/s%d", i)
		h, err := f.OpenFile(path, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt([]byte("tiny"), 0); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := f.ReadDir("/")
	if err != nil || len(ents) != 100 {
		t.Fatalf("readdir: %d err=%v", len(ents), err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestColdReadOneTransferPerRun: a cold read brings its pages, and on a
// sequential stream the read-ahead's, in one transfer per disk's run of
// stripe space — not one 4 KB read a page — and the bytes are the file's.
func TestColdReadOneTransferPerRun(t *testing.T) {
	f := newFS(t)
	h, _ := f.OpenFile("/big", true)
	data := make([]byte, 4*StripeSize)
	for i := range data {
		data[i] = byte(i*7 + i>>12)
	}
	if _, err := h.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.DropCache(); err != nil {
		t.Fatal(err)
	}
	reads := func() (n int64) {
		for _, d := range f.disks {
			r, _, _, _ := d.Stats()
			n += r
		}
		return n
	}
	got := make([]byte, len(data))
	for i, want := range []int64{1, 2, 1, 0} { // the first read is not yet a stream: no read-ahead
		r0 := reads()
		off := int64(i) * StripeSize
		if n, err := h.ReadAt(got[off:off+StripeSize], off); err != nil && err != io.EOF || n != StripeSize {
			t.Fatalf("read %d: n=%d err=%v", i, n, err)
		}
		if n := reads() - r0; n != want {
			t.Errorf("read %d of a stripe unit made %d disk reads, want %d", i, n, want)
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("the cold reads return the wrong bytes")
	}
}
