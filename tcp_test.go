package frangipani_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"frangipani/internal/fs"
	"frangipani/internal/lockservice"
	"frangipani/internal/petal"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// TestTwoServerModelOverTCP runs fs's two-server model
// (TestRandomOpsTwoServersAgainstModel: the same seed, the same 160
// operations) over the loopback TCP carrier: every result is checked
// against an in-memory model, every file is read back from both
// servers, and fsck ends it. Lock traffic, its revokes and the Petal
// data path all cross real sockets. The operation loop is a copy of
// internal/fs/model2_test.go's, which a root test cannot import: a
// change to one is made to both, so the two runs stay one stream.
func TestTwoServerModelOverTCP(t *testing.T) {
	s := newTCPStack(t, "m")
	servers := []*fs.FS{s.mount(t, "mws1"), s.mount(t, "mws2")}
	rng := rand.New(rand.NewSource(777))
	files := map[string][]byte{}
	read := func(op string, f *fs.FS, p string) {
		t.Helper()
		want := files[p]
		h, err := f.Open(p)
		if err != nil {
			t.Fatalf("%s open %s on %s: %v", op, p, f.Machine(), err)
		}
		got := make([]byte, len(want))
		if len(got) > 0 {
			if _, err := h.ReadAt(got, 0); err != nil && err != io.EOF {
				t.Fatalf("%s read %s on %s: %v", op, p, f.Machine(), err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %s sees stale content for %s", op, f.Machine(), p)
		}
	}

	for i := 0; i < 160; i++ {
		f := servers[rng.Intn(len(servers))]
		var names []string
		for p := range files {
			names = append(names, p)
		}
		op := rng.Intn(8)
		switch {
		case op < 2 || len(names) == 0: // create
			p := fmt.Sprintf("/x%03d", i)
			if _, ok := files[p]; !ok {
				if err := f.Create(p); err != nil {
					t.Fatalf("op %d create %s on %s: %v", i, p, f.Machine(), err)
				}
				files[p] = nil
			}
		case op < 5: // write
			p := names[rng.Intn(len(names))]
			h, err := f.Open(p)
			if err != nil {
				t.Fatalf("op %d open %s on %s: %v", i, p, f.Machine(), err)
			}
			off := rng.Int63n(32 << 10)
			data := make([]byte, rng.Intn(8<<10)+1)
			rng.Read(data)
			if _, err := h.WriteAt(data, off); err != nil {
				t.Fatalf("op %d write %s on %s: %v", i, p, f.Machine(), err)
			}
			cur := files[p]
			if int64(len(cur)) < off+int64(len(data)) {
				grown := make([]byte, off+int64(len(data)))
				copy(grown, cur)
				cur = grown
			}
			copy(cur[off:], data)
			files[p] = cur
		case op < 6: // remove
			p := names[rng.Intn(len(names))]
			if err := f.Remove(p); err != nil {
				t.Fatalf("op %d remove %s on %s: %v", i, p, f.Machine(), err)
			}
			delete(files, p)
		default: // verify, from either server
			p := names[rng.Intn(len(names))]
			read(fmt.Sprintf("op %d verify", i), servers[rng.Intn(len(servers))], p)
		}
	}

	for p := range files {
		for _, f := range servers {
			read("final", f, p)
		}
	}
	for _, f := range servers {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := fs.Check(s.admin, s.vd, s.lay)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		t.Errorf("fsck: %s %s", p.Kind, p.Msg)
	}
	if rep.Files != len(files) {
		t.Fatalf("fsck sees %d files, model has %d", rep.Files, len(files))
	}
}

// tcpStack is the full stack on one loopback TCP carrier, in real time
// (TCP is real): three Petal servers, three lock servers and a
// formatted virtual disk. Every host's name starts with the prefix the
// test gave it, and t's clean-up closes everything.
type tcpStack struct {
	w       *sim.World
	carrier *rpc.TCPCarrier
	petals  []string
	locks   []string
	lcfg    lockservice.Config
	admin   *petal.Client
	vd      petal.VDiskID
	lay     fs.Layout
}

func newTCPStack(t *testing.T, prefix string) *tcpStack {
	t.Helper()
	s := &tcpStack{carrier: rpc.NewTCPCarrier(), w: sim.NewWorld(1, 11), lay: fs.DefaultLayout()}
	t.Cleanup(s.carrier.Close)
	t.Cleanup(s.w.Stop)
	pcfg := petal.DefaultServerConfig(256 << 20)
	pcfg.NumDisks = 2
	for i := 0; i < 3; i++ {
		s.petals = append(s.petals, fmt.Sprintf("%sp%d", prefix, i))
		s.locks = append(s.locks, fmt.Sprintf("%sl%d", prefix, i))
	}
	for _, n := range s.petals {
		t.Cleanup(petal.NewServerWithCarrier(s.w, n, s.petals, pcfg, s.carrier).Close)
	}
	s.lcfg = lockservice.DefaultConfig()
	s.lcfg.HeartbeatEvery = 200 * time.Millisecond
	s.lcfg.SuspectAfter = 2 * time.Second
	for _, n := range s.locks {
		t.Cleanup(lockservice.NewServerWithCarrier(s.w, n, s.locks, s.lcfg, s.carrier).Close)
	}
	s.admin = petal.NewClientWithCarrier(s.w, prefix+"admin", s.petals, s.carrier)
	t.Cleanup(s.admin.Close)
	s.vd = petal.VDiskID(prefix + "fs")
	if err := s.admin.CreateVDisk(s.vd); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkfs(s.admin, s.vd, s.lay); err != nil {
		t.Fatal(err)
	}
	return s
}

// mount mounts the virtual disk on a new Frangipani server.
func (s *tcpStack) mount(t *testing.T, name string) *fs.FS {
	t.Helper()
	fcfg := fs.DefaultConfig()
	fcfg.Lock = s.lcfg
	fcfg.Carrier = s.carrier
	pc := petal.NewClientWithCarrier(s.w, name, s.petals, s.carrier)
	t.Cleanup(pc.Close)
	f, err := fs.Mount(s.w, name, pc, s.vd, s.locks, s.lay, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Unmount() })
	return f
}
