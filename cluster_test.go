package frangipani_test

import (
	"errors"
	"io"
	"testing"
	"time"

	"frangipani"
	"frangipani/internal/obs"
	"frangipani/internal/petal"
)

func newTestCluster(t *testing.T) *frangipani.Cluster {
	t.Helper()
	cfg := frangipani.DefaultClusterConfig()
	cfg.GuardWrites = true
	c, err := frangipani.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestClusterLifecycle(t *testing.T) {
	c := newTestCluster(t)
	ws1, err := c.AddServer("ws1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddServer("ws1"); err == nil {
		t.Fatal("duplicate machine accepted")
	}
	if err := ws1.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveServer("ws1"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveServer("ws1"); err == nil {
		t.Fatal("double remove accepted")
	}
	// State persists across the server's life.
	ws2, err := c.AddServer("ws2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws2.Stat("/a"); err != nil {
		t.Fatalf("state lost across server remove/add: %v", err)
	}
}

func TestClusterSharedNamespace(t *testing.T) {
	c := newTestCluster(t)
	ws1, _ := c.AddServer("ws1")
	ws2, _ := c.AddServer("ws2")
	h, err := ws1.OpenFile("/data.bin", true)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("written on machine one")
	if _, err := h.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	h2, err := ws2.Open("/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := h2.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("ws2 read %q", got)
	}
}

func TestClusterFsckOnIdle(t *testing.T) {
	c := newTestCluster(t)
	ws1, _ := c.AddServer("ws1")
	for _, p := range []string{"/x", "/y", "/z"} {
		if err := ws1.Create(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := ws1.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck problems: %+v", rep.Problems)
	}
	if rep.Files != 3 || rep.Dirs != 1 {
		t.Fatalf("fsck counts: %+v", rep)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	cfg := frangipani.DefaultClusterConfig()
	cfg.PetalServers = 0
	if _, err := frangipani.NewCluster(cfg); err == nil {
		t.Fatal("zero petal servers accepted")
	}
}

// TestGuardedWritesRejectExpiredLease drives the write guard the
// cluster installs under GuardWrites (§6's hazard fix) through a Petal
// client of its own, on a virtual disk of its own: a write stamped with
// an expired lease is refused, one stamped with a live lease or not
// stamped at all lands.
func TestGuardedWritesRejectExpiredLease(t *testing.T) {
	c := newTestCluster(t)
	pc := c.Client("zombie")
	if err := pc.CreateVDisk("guarded"); err != nil {
		t.Fatal(err)
	}
	write := func() error { return pc.Write("guarded", 0, make([]byte, 512)) }

	pc.SetLeaseInfo(func() int64 { return 1 }) // expired eons ago
	if err := write(); !errors.Is(err, petal.ErrLeaseExpired) {
		t.Fatalf("write stamped with an expired lease: err = %v, want ErrLeaseExpired", err)
	}
	pc.SetLeaseInfo(func() int64 { return c.NowNs() + int64(time.Hour) })
	if err := write(); err != nil {
		t.Fatalf("write stamped with a live lease: %v", err)
	}
	pc.SetLeaseInfo(nil)
	if err := write(); err != nil {
		t.Fatalf("unstamped write: %v", err)
	}
}

// TestClusterAccountingKnob checks NoAccounting suppresses the
// account table while plain clusters attribute bound work.
func TestClusterAccountingKnob(t *testing.T) {
	cfg := frangipani.DefaultClusterConfig()
	cfg.NoAccounting = true
	off, err := frangipani.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(off.Close)
	if off.Accounts() != nil {
		t.Fatal("NoAccounting cluster still has an account table")
	}

	c := newTestCluster(t)
	ws1, err := c.AddServer("ws1")
	if err != nil {
		t.Fatal(err)
	}
	h, err := ws1.As("tenant-a").OpenFile("/acct.bin", true)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64<<10)
	if _, err := h.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	stats := c.Accounts().Snapshot()
	var got *obs.AccountStat
	for i := range stats {
		if stats[i].Principal == "tenant-a" {
			got = &stats[i]
		}
	}
	if got == nil {
		t.Fatalf("tenant-a missing from account table: %+v", stats)
	}
	if got.BytesIn != int64(len(payload)) {
		t.Fatalf("tenant-a BytesIn = %d, want %d", got.BytesIn, len(payload))
	}
	if got.Ops == 0 || got.WALBytes == 0 {
		t.Fatalf("tenant-a ops/WAL not attributed: %+v", *got)
	}
}

func TestErrorsSurfaceThroughFacade(t *testing.T) {
	c := newTestCluster(t)
	ws1, _ := c.AddServer("ws1")
	if _, err := ws1.Stat("/missing"); !errors.Is(err, errNotExist(ws1)) {
		// fs.ErrNotExist is internal; just assert an error came back.
		if err == nil {
			t.Fatal("stat of missing path succeeded")
		}
	}
}

// errNotExist fishes the canonical not-exist error out via a probe.
func errNotExist(f *frangipani.FS) error {
	_, err := f.Stat("/definitely-not-here-either")
	return err
}
