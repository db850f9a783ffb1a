package workload

import (
	"bytes"
	"testing"
	"time"

	"frangipani/internal/localfs"
	"frangipani/internal/sim"
)

// The workload drivers are exercised end-to-end over Frangipani by
// the bench suite; these tests validate them cheaply over the local
// baseline, plus the pure helpers.

func newLocal(t *testing.T) (*sim.World, FS) {
	t.Helper()
	w := sim.NewWorld(1000, 9)
	cfg := localfs.DefaultConfig()
	cfg.DiskParams = sim.DefaultDiskParams(128 << 20)
	lf := localfs.New(w, "adv", cfg)
	t.Cleanup(func() {
		lf.Close()
		w.Stop()
	})
	return w, Local{FS: lf}
}

func TestMABRunsCleanly(t *testing.T) {
	w, f := newLocal(t)
	m := MAB{Dirs: 3, FilesPerDir: 2, FileSize: 2048}
	phases, err := m.Run(f, w.Clock, "/mab")
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range phases {
		if d <= 0 {
			t.Fatalf("phase %d (%s) has non-positive duration %v", i, MABPhases[i], d)
		}
	}
	// The tree must actually exist: dirs, sources, objects, binary.
	names, err := f.ReadDirNames("/mab")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != m.Dirs+1 { // dirs + a.out
		t.Fatalf("mab tree has %d entries, want %d", len(names), m.Dirs+1)
	}
}

func TestConnectathonRunsCleanly(t *testing.T) {
	w, f := newLocal(t)
	c := Connectathon{Files: 12}
	times, err := c.Run(f, w.Clock, "/cthon")
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range times {
		if d <= 0 {
			t.Fatalf("test %d (%s) has non-positive duration %v", i, ConnectathonTests[i], d)
		}
	}
}

func TestSeqWriteReadRoundTrip(t *testing.T) {
	w, f := newLocal(t)
	const total = 1 << 20
	if _, err := SeqWrite(f, w.Clock, "/seq", total, 64<<10); err != nil {
		t.Fatal(err)
	}
	n, dur, err := SeqRead(f, w.Clock, "/seq", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Fatalf("read %d bytes, want %d", n, total)
	}
	if dur <= 0 {
		t.Fatal("non-positive read duration")
	}
}

func TestSmallReadSwarm(t *testing.T) {
	w, f := newLocal(t)
	bytes_, dur, err := SmallReadSwarm(f, f, w.Clock, "/swarm", 8, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	if bytes_ != 8*8<<10 || dur <= 0 {
		t.Fatalf("swarm: bytes=%d dur=%v", bytes_, dur)
	}
}

func TestContentionRigsOnBaseline(t *testing.T) {
	w, f := newLocal(t)
	if err := writeAll(f, "/hot", content(256<<10, 1)); err != nil {
		t.Fatal(err)
	}
	read, written, err := ReaderWriterContention(w.Clock, f, []FS{f, f}, "/hot",
		256<<10, 16<<10, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if read.Bytes == 0 || written.Ops == 0 {
		t.Fatalf("rig idle: read %+v, written %+v", read, written)
	}
	ws, err := WriteSharing(w.Clock, []FS{f, f}, "/hot", 8<<10, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Ops == 0 {
		t.Fatal("write-sharing rig idle")
	}
}

func TestContentDeterministic(t *testing.T) {
	a := content(1024, 7)
	b := content(1024, 7)
	c := content(1024, 8)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed, different content")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds, same content")
	}
}
