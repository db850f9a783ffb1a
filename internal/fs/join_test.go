package fs

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"frangipani/internal/lockservice"
)

// awaitSessionGone waits until no lock server lists machine's session
// on table: a clean close is a cast, applied through Paxos a moment
// after Unmount returns.
func awaitSessionGone(t *testing.T, tw *testWorld, machine, table string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		open := false
		for _, s := range tw.locks {
			if _, ok := s.State().Sessions[machine+"/"+table]; ok {
				open = true
			}
		}
		if !open {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s's session on %s is still open", machine, table)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// recoveryOf returns what ws's journal recorded of the recovery of dead:
// the records scanned and the blocks replayed, and whether it got that far.
func recoveryOf(tw *testWorld, ws, dead string) (scanned, replayed int64, done bool) {
	var sawScan bool
	for _, ev := range tw.w.Obs.Journal(ws).Events() {
		if ev.Layer != "fs" || ev.Op != "recover" || ev.Detail != dead {
			continue
		}
		switch ev.Kind {
		case "scanned":
			scanned, sawScan = ev.Arg, true
		case "replayed":
			replayed, done = ev.Arg, sawScan
		}
	}
	return scanned, replayed, done
}

// reuseSlot mounts ws1 with a synchronous log, runs mutate on it,
// unmounts it, and mounts ws3 on the log slot ws1 gave back. ws2 is
// mounted throughout, to recover ws3.
func reuseSlot(t *testing.T, mutate func(f1 *FS)) (tw *testWorld, f2, f3 *FS) {
	tw = newTestWorld(t)
	f1 := tw.mount(t, "ws1", func(c *Config) { c.SyncLog = true })
	f2 = tw.mount(t, "ws2", nil)
	mutate(f1)
	if err := f1.Unmount(); err != nil {
		t.Fatal(err)
	}
	awaitSessionGone(t, tw, "ws1", string(tw.vd))
	f3 = tw.mount(t, "ws3", func(c *Config) {
		c.SyncLog = true        // the log reaches Petal
		c.SyncEvery = time.Hour // but metadata write-back never runs
	})
	if f3.logSlot != f1.logSlot {
		t.Fatalf("ws3 got log slot %d, not ws1's %d", f3.logSlot, f1.logSlot)
	}
	if f3.clerk.LeaseID() <= f1.clerk.LeaseID() {
		t.Fatalf("ws3's lease %d does not outrank ws1's %d", f3.clerk.LeaseID(), f1.clerk.LeaseID())
	}
	return tw, f2, f3
}

// TestReusedSlotRecoversNewTenancy: ws1 wraps its log several times and
// unmounts; ws3 gets the same slot, which nothing clears, logs five
// creates over the start of ws1's old log and crashes before any of
// them reaches its permanent location. Recovery replays ws3's records,
// not the older-looking run ws1 left: every acknowledged create is there
// and the disk checks clean.
func TestReusedSlotRecoversNewTenancy(t *testing.T) {
	tw, f2, f3 := reuseSlot(t, func(f1 *FS) {
		for i := 0; i < 1200; i++ {
			name := fmt.Sprintf("/churn%d", i%7)
			if err := f1.Create(name); err != nil {
				t.Fatal(err)
			}
			if err := f1.Remove(name); err != nil {
				t.Fatal(err)
			}
		}
		if st := f1.log.Stats(); st.BytesWritten < 2*f1.lay.LogSize {
			t.Fatalf("ws1 wrote %d log bytes, not enough to wrap its %d-byte log twice", st.BytesWritten, f1.lay.LogSize)
		}
	})
	for i := 0; i < 5; i++ {
		if err := f3.Create(fmt.Sprintf("/new%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	f3.Crash()

	deadline := time.Now().Add(60 * time.Second)
	var ents []DirEntry
	for time.Now().Before(deadline) {
		var err error
		if ents, err = f2.ReadDir("/"); err == nil && len(ents) == 5 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	found := 0
	for i := 0; i < 5; i++ {
		if _, err := f2.Stat(fmt.Sprintf("/new%d", i)); err == nil {
			found++
		}
	}
	if found != 5 || len(ents) != 5 {
		t.Fatalf("after recovery %d of ws3's 5 acknowledged creates are there (%d entries in /)", found, len(ents))
	}
	if _, _, done := recoveryOf(tw, "ws2", "ws3"); !done {
		t.Fatal("ws2 recorded no recovery of ws3")
	}
	fsckClean(t, tw)
}

// TestRecoveryOfSilentTenantReplaysNothing: ws3 takes ws1's slot and
// crashes before it logs anything. Its recovery scans its own tenancy,
// which holds nothing: none of ws1's records is scanned or replayed.
func TestRecoveryOfSilentTenantReplaysNothing(t *testing.T) {
	tw, _, f3 := reuseSlot(t, func(f1 *FS) {
		for i := 0; i < 50; i++ {
			if err := f1.Create(fmt.Sprintf("/old%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := f1.Sync(); err != nil {
			t.Fatal(err)
		}
	})
	f3.Crash()
	deadline := time.Now().Add(60 * time.Second)
	for {
		scanned, replayed, done := recoveryOf(tw, "ws2", "ws3")
		if done {
			if scanned != 0 || replayed != 0 {
				t.Fatalf("recovering ws3, which logged nothing, scanned %d records and replayed %d blocks", scanned, replayed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ws2 never recovered ws3")
		}
		time.Sleep(5 * time.Millisecond)
	}
	fsckClean(t, tw)
}

// TestMountWritesNothing: joining costs a lease and the params sector
// (§7). A Mount sends Petal no write and reads one sector.
func TestMountWritesNothing(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", nil)
	st := f.PetalStats()
	if st.WriteVRPCs != 0 {
		t.Errorf("Mount sent %d Petal writes, want none", st.WriteVRPCs)
	}
	if read := st.ReadPrimary + st.ReadBackup; st.ReadVExtents != 1 || read != SectorSize {
		t.Errorf("Mount read %d extents, %d bytes; want the params sector: 1 extent, %d bytes", st.ReadVExtents, read, SectorSize)
	}
}

// TestMountUnformattedLeavesNoSession: a Mount of a virtual disk that
// holds no file system fails, and the session it opened meanwhile is
// closed again.
func TestMountUnformattedLeavesNoSession(t *testing.T) {
	tw := newTestWorld(t)
	const blank = "blank"
	if err := tw.client("admin").CreateVDisk(blank); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Lock = lockCfg()
	if f, err := Mount(tw.w, "ws1", tw.client("ws1"), blank, tw.lockNames, tw.lay, cfg); err == nil {
		tw.mounts = append(tw.mounts, f)
		t.Fatal("Mount of an unformatted virtual disk succeeded")
	}
	awaitSessionGone(t, tw, "ws1", blank)
}

// TestRemountAfterCrashRecoversOldTenancy: ws1 crashes with a create in
// its log that no write-back reached, and its machine mounts again under
// the same name before the lease has expired. The lock service refuses
// the new incarnation until ws2 has recovered the old one's log, so the
// create is there, and the new mount gets a lease of its own.
func TestRemountAfterCrashRecoversOldTenancy(t *testing.T) {
	tw := newTestWorld(t)
	f1 := tw.mount(t, "ws1", func(c *Config) {
		c.SyncLog = true        // the log reaches Petal
		c.SyncEvery = time.Hour // but metadata write-back never runs
	})
	f2 := tw.mount(t, "ws2", nil)
	if err := f1.Create("/logged"); err != nil {
		t.Fatal(err)
	}
	f1.Crash()

	cfg := DefaultConfig()
	cfg.Lock = lockCfg()
	deadline := time.Now().Add(60 * time.Second)
	var again *FS
	for again == nil {
		f, err := Mount(tw.w, "ws1", tw.client("ws1"), tw.vd, tw.lockNames, tw.lay, cfg)
		switch {
		case err == nil:
			again = f
			tw.mounts = append(tw.mounts, f)
		case !errors.Is(err, lockservice.ErrPriorSession):
			t.Fatalf("mount ws1 again: %v", err)
		case time.Now().After(deadline):
			t.Fatal("ws1 could not mount again for 60 s")
		default:
			time.Sleep(20 * time.Millisecond)
		}
	}
	if again.clerk.LeaseID() == f1.clerk.LeaseID() {
		t.Errorf("ws1 mounted again under its dead session's lease %d", f1.clerk.LeaseID())
	}
	if _, err := f2.Stat("/logged"); err != nil {
		t.Fatalf("ws1's logged create is gone once ws1 mounted again: %v", err)
	}
	if _, _, done := recoveryOf(tw, "ws2", "ws1"); !done {
		t.Error("ws2 recorded no recovery of ws1")
	}
}
