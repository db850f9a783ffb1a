package fs

import (
	"fmt"

	"frangipani/internal/lockservice"
	"frangipani/internal/petal"
	"frangipani/internal/wal"
)

// Backup implements §8. Two flavors:
//
//   - SnapshotCrashConsistent takes a plain Petal snapshot. It is
//     "crash-consistent": restoring it is "the same problem as
//     recovering from a system-wide power failure" — the logs are in
//     the snapshot and must be replayed.
//
//   - SnapshotWithBarrier implements the improved scheme: the backup
//     holder acquires the global barrier lock in exclusive mode;
//     every Frangipani server holds it shared for each modification,
//     and its revoke callback cleans all dirty state before
//     releasing. The resulting snapshot is consistent at the file
//     system level and needs no recovery.

// SnapshotCrashConsistent takes a Petal snapshot without quiescing
// the servers.
func (fs *FS) SnapshotCrashConsistent(snap petal.VDiskID) error {
	if err := fs.usable(); err != nil {
		return err
	}
	return fs.pc.Snapshot(fs.vd, snap)
}

// SnapshotWithBarrier quiesces all servers via the barrier lock,
// then snapshots. The snapshot can be mounted read-only directly.
func (fs *FS) SnapshotWithBarrier(snap petal.VDiskID) error {
	if err := fs.usable(); err != nil {
		return err
	}
	// Clean our own state first: our shared barrier hold upgrades in
	// place, so our revoke callback will not fire.
	if err := fs.Sync(); err != nil {
		return err
	}
	if err := fs.lock(nil, LockBarrier, lockservice.Exclusive); err != nil {
		return err
	}
	defer fs.clerk.Unlock(LockBarrier)
	if err := fs.Sync(); err != nil {
		return err
	}
	return fs.pc.Snapshot(fs.vd, snap)
}

// Restore copies a snapshot onto a fresh virtual disk and replays
// every log found in it, producing a writable disk equal to the
// snapshot's post-recovery state ("it can be restored by copying it
// back to a new Petal virtual disk and running recovery on each
// log", §8). Each slot's log is its newest tenancy: a slot is handed
// out again only once its tenant unmounted cleanly or was recovered, so
// no older tenancy there holds an update the disk lacks.
func Restore(pc *petal.Client, snap, dest petal.VDiskID, lay Layout) error {
	if err := pc.CreateVDisk(dest); err != nil {
		return err
	}
	chunks, err := pc.ListChunks(snap)
	if err != nil {
		return err
	}
	buf := make([]byte, petal.ChunkSize)
	for _, ch := range chunks {
		off := ch * petal.ChunkSize
		if err := pc.Read(snap, off, buf); err != nil {
			return fmt.Errorf("fs: restore read chunk %d: %w", ch, err)
		}
		if err := pc.Write(dest, off, buf); err != nil {
			return fmt.Errorf("fs: restore write chunk %d: %w", ch, err)
		}
	}
	// Run recovery on every log slot.
	dev := &clientDev{pc: pc, vd: dest}
	for slot := 0; slot < lay.LogSlots; slot++ {
		region := &clientRegion{pc: pc, vd: dest, base: lay.LogSlotBase(slot)}
		recs, err := wal.Scan(region, lay.LogSize)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			continue
		}
		if _, err := wal.Replay(recs, dev); err != nil {
			return err
		}
		// The replayed log stays: a later mount of this slot writes under
		// a newer lease, which outranks it.
	}
	return nil
}

// clientRegion and clientDev adapt a raw Petal client to the WAL
// interfaces (no lease guard: restore targets a fresh private disk).
type clientRegion struct {
	pc   *petal.Client
	vd   petal.VDiskID
	base int64
}

func (r *clientRegion) ReadAt(p []byte, off int64) error { return r.pc.Read(r.vd, r.base+off, p) }
func (r *clientRegion) WriteAt(p []byte, off int64) error {
	return r.pc.Write(r.vd, r.base+off, p)
}

type clientDev struct {
	pc *petal.Client
	vd petal.VDiskID
}

func (d *clientDev) ReadAt(p []byte, off int64) error  { return d.pc.Read(d.vd, off, p) }
func (d *clientDev) WriteAt(p []byte, off int64) error { return d.pc.Write(d.vd, off, p) }
