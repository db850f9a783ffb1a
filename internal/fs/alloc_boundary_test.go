package fs

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// tinyInodeLayout shrinks the inode class far below one bitmap
// segment (SegBits = 32256 bits), so segment 0 straddles the inode
// ceiling and the meta-small floor. Every inode scan must clamp its
// range to [0, MaxInodes) and every directory-block scan in the same
// segment must clamp to [MaxInodes, ...) — a claim crossing either
// boundary hands out an object of the wrong class.
func tinyInodeLayout() Layout {
	lay := DefaultLayout()
	lay.MaxInodes = 600
	return lay
}

// TestSegScanClassBoundary exhausts a 600-inode class whose range is
// a strict prefix of segment 0 and checks the allocator's verdicts
// stay exact at the boundary: exactly MaxInodes-1 creatable objects
// (the root holds inode 0), freed bits become allocatable again
// despite resume hints pointing past them, and re-exhaustion fails at
// exactly the freed count.
func TestSegScanClassBoundary(t *testing.T) {
	tw := newTestWorldLayout(t, tinyInodeLayout())
	f := tw.mount(t, "ws1", nil)

	const dirs = 4
	for d := 0; d < dirs; d++ {
		if err := f.Mkdir(fmt.Sprintf("/d%d", d)); err != nil {
			t.Fatal(err)
		}
	}
	created := 0
	for {
		err := f.Create(fmt.Sprintf("/d%d/f%d", created%dirs, created))
		if errors.Is(err, ErrNoSpace) {
			break
		}
		if err != nil {
			t.Fatalf("create %d: %v", created, err)
		}
		created++
	}
	// Inode capacity: MaxInodes minus the root, minus the dirs. If
	// the inode scan ever claimed a bit past the class ceiling (the
	// meta-small floor shares segment 0), this count would overshoot.
	want := int(tw.lay.MaxInodes) - 1 - dirs
	if created != want {
		t.Fatalf("created %d files before ErrNoSpace, want exactly %d", created, want)
	}

	// The scan hints must have been doing their job on the way up:
	// sticky-segment hits and resume hits, not O(bits) rescans.
	cnt := func(name string) int64 {
		return tw.w.Obs.Counter("fs." + name + "#ws1").Value()
	}
	if cnt("alloc.sticky.hits") == 0 {
		t.Fatal("no sticky-segment hits during fill")
	}
	if cnt("alloc.resume.hits") == 0 {
		t.Fatal("no resume-hint hits during fill")
	}

	// Free a scattered handful. Their bits sit below the resume hint,
	// so only the hint pull-back on free makes them findable again.
	const freed = 9
	for i := 0; i < freed; i++ {
		if err := f.Remove(fmt.Sprintf("/d%d/f%d", (i*31)%dirs, i*31)); err != nil {
			t.Fatalf("remove %d: %v", i, err)
		}
	}
	for i := 0; i < freed; i++ {
		if err := f.Create(fmt.Sprintf("/d0/g%d", i)); err != nil {
			t.Fatalf("recreate %d after free: %v", i, err)
		}
	}
	if err := f.Create("/d0/overflow"); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("create beyond refilled capacity: got %v, want ErrNoSpace", err)
	}
	// The overflow scan resumed above the class floor (the hint sits
	// past the highest refilled bit), so its "full" verdict required
	// exactly the one full-prefix rescan the hint contract promises.
	if cnt("alloc.rescan") == 0 {
		t.Fatal("segment declared full without a full-prefix rescan")
	}

	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(tw.client("chk"), tw.vd, tw.lay)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("consistency check after boundary exhaustion: %v", rep.Problems)
	}
}

// TestSegmentStealAcrossServers runs the paper's bitmap-steal path
// under race: ws2 removes files ws1 created (clearing bits inside
// segments ws1's allocator considers its own, which briefly steals
// the segment locks) while ws1 keeps allocating from those segments.
func TestSegmentStealAcrossServers(t *testing.T) {
	tw := newTestWorld(t)
	f1 := tw.mount(t, "ws1", nil)
	f2 := tw.mount(t, "ws2", nil)

	const n = 30
	if err := f1.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		writeFile(t, f1, fmt.Sprintf("/d/f%d", i), []byte("steal me"))
	}
	if err := f1.Sync(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	errc := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := f2.Remove(fmt.Sprintf("/d/f%d", i)); err != nil {
				errc <- fmt.Errorf("ws2 remove f%d: %w", i, err)
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < n; i++ {
		writeFile(t, f1, fmt.Sprintf("/d/g%d", i), []byte("fresh"))
	}
	wg.Wait()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	if err := f1.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f2.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, f2, "/d/g7"); string(got) != "fresh" {
		t.Fatalf("cross-server read after steal: %q", got)
	}
	rep, err := Check(tw.client("chk"), tw.vd, tw.lay)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("consistency check after steals: %v", rep.Problems)
	}
	if rep.Files != n {
		t.Fatalf("checker found %d files, want %d", rep.Files, n)
	}
}

// TestFreedDirBlockWrittenBackBeforeReuse: ws1 empties and removes a
// directory whose emptied sectors it has not written back, and ws2 makes
// a directory that allocates the freed block — in a layout whose inodes
// and directory blocks share one bitmap segment, so ws2 takes the
// segment's lock from ws1 to do it. The dead sectors must reach Petal
// before ws2 reads the block, not after ws2 has written its entries
// there: once both servers have synced, a third server lists every entry
// of ws2's directory, and fsck is clean.
func TestFreedDirBlockWrittenBackBeforeReuse(t *testing.T) {
	lay := tinyInodeLayout()
	lay.MetaSmallBoundary = 600 // directory blocks in segment 0 too
	tw := newTestWorldLayout(t, lay)
	ws1 := tw.mount(t, "ws1", nil)
	ws2 := tw.mount(t, "ws2", nil)
	if err := ws1.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := ws1.Create(fmt.Sprintf("/d/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ws1.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := ws1.Remove(fmt.Sprintf("/d/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	d, err := ws1.Stat("/d")
	if err != nil {
		t.Fatal(err)
	}
	if err := ws1.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
	// /d's inode goes to a file of ws1's, so that ws2 takes no lock of
	// ws1's that covers /d's sectors.
	if err := ws1.Create("/keep"); err != nil {
		t.Fatal(err)
	}
	if keep, err := ws1.Stat("/keep"); err != nil || keep.Inum != d.Inum {
		t.Fatalf("setup: /keep is inode %d (%v), want /d's %d", keep.Inum, err, d.Inum)
	}
	if err := ws2.Mkdir("/o"); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("o%d", i)
		if err := ws2.Create("/o/" + name); err != nil {
			t.Fatal(err)
		}
		want = append(want, name)
	}
	for _, f := range []*FS{ws2, ws1} {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if got := names(t, tw.mount(t, "ws3", nil), "/o"); !slices.Equal(got, want) {
		t.Errorf("a third server lists /o as %v, want %v", got, want)
	}
	rep, err := Check(tw.client("fsck"), tw.vd, tw.lay)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		t.Errorf("fsck: %s %s", p.Kind, p.Msg)
	}
}
