package sim

import (
	"errors"
	"fmt"
	"sync"
)

// SectorSize is the atomic unit of disk I/O. The paper's recovery
// scheme assumes "a disk write failure leaves the contents of a single
// sector in either the old state or the new state but never in a
// combination of both"; the simulated disk enforces exactly that.
const SectorSize = 512

// Errors returned by Disk operations.
var (
	ErrDiskFailed = errors.New("sim: disk failed")
	ErrBadSector  = errors.New("sim: CRC error reading sector")
	ErrDiskBounds = errors.New("sim: I/O beyond end of disk")
)

// DiskParams describes the performance envelope of a simulated drive.
// The defaults in DefaultDiskParams are the paper's DIGITAL RZ29:
// 4.3 GB, 9 ms average seek, 6 MB/s sustained transfer.
type DiskParams struct {
	Capacity     int64    // bytes
	SeekTime     Duration // charged per I/O that moves the arm
	TransferRate int64    // bytes per simulated second
}

// DefaultDiskParams returns RZ29-like parameters scaled to the given
// capacity.
func DefaultDiskParams(capacity int64) DiskParams {
	return DiskParams{
		Capacity:     capacity,
		SeekTime:     9 * msec,
		TransferRate: 6 << 20,
	}
}

const msec = Duration(1e6)

// diskSlab is how many bytes of sectors the disk makes at once when a
// write touches sectors it has never held: a 64 KB write to fresh space
// is one allocation, not 128.
const diskSlab = 64 << 10

// Disk is a simulated physical drive: a sparse sector store behind a
// single arm (a Resource). Sequential I/O pays only transfer time;
// an I/O that moves the arm pays a seek. Writes are atomic per
// sector. Fault injection supports whole-disk failure, torn
// multi-sector writes (a prefix of sectors is applied), and per-sector
// CRC read errors.
type Disk struct {
	params DiskParams
	arm    *Resource
	clock  *Clock

	mu        sync.Mutex
	sectors   map[int64][]byte // sector index -> 512 bytes
	slab      []byte           // what is left of the slab first-written sectors are cut from
	head      int64            // sector index under the arm
	failed    bool
	badSector map[int64]bool // sectors that return CRC errors
	tornAfter int64          // if >= 0, apply only this many sectors of the next write, then fail the disk
	reads     int64
	writes    int64
	bytesRead int64
	bytesWr   int64
	seeks     int64    // I/Os that moved the arm
	seekTime  Duration // and what moving it cost them
}

// NewDisk returns an empty simulated disk.
func NewDisk(clock *Clock, name string, params DiskParams) *Disk {
	if params.TransferRate <= 0 {
		params.TransferRate = 6 << 20
	}
	return &Disk{
		params:    params,
		arm:       NewResource(clock, name),
		clock:     clock,
		sectors:   make(map[int64][]byte),
		badSector: make(map[int64]bool),
		tornAfter: -1,
		head:      -1,
	}
}

// Params returns the disk's performance parameters.
func (d *Disk) Params() DiskParams { return d.params }

// serviceTime computes the virtual-time cost of an I/O of n bytes
// starting at sector s, and updates the head position. Arm movement
// costs the full average seek only for long hops; short hops pay a
// track-to-track seek (1/8 of average, floor 1 ms), matching how
// real drives behave on mostly-sequential workloads.
func (d *Disk) serviceTime(s int64, n int) Duration {
	cost := Duration(float64(n) / float64(d.params.TransferRate) * 1e9)
	if d.head != s { // arm movement
		gap := s - d.head
		if gap < 0 {
			gap = -gap
		}
		seek := d.params.SeekTime
		if gap*SectorSize <= 2<<20 {
			seek = max(d.params.SeekTime/8, msec)
		}
		cost += seek
		d.seeks++
		d.seekTime += seek
	}
	d.head = s + int64((n+SectorSize-1)/SectorSize)
	return cost
}

func (d *Disk) checkRange(off int64, n int) error {
	if off < 0 || n < 0 || off+int64(n) > d.params.Capacity {
		return fmt.Errorf("%w: off=%d len=%d cap=%d", ErrDiskBounds, off, n, d.params.Capacity)
	}
	if off%SectorSize != 0 || n%SectorSize != 0 {
		return fmt.Errorf("sim: unaligned I/O off=%d len=%d", off, n)
	}
	return nil
}

// ReadAt reads len(p) bytes at byte offset off. Unwritten sectors
// read as zero. Both off and len(p) must be sector-aligned.
func (d *Disk) ReadAt(p []byte, off int64) error {
	if err := d.checkRange(off, len(p)); err != nil {
		return err
	}
	d.mu.Lock()
	if d.failed {
		d.mu.Unlock()
		return ErrDiskFailed
	}
	s := off / SectorSize
	cost := d.serviceTime(s, len(p))
	var bad error
	for i := 0; i < len(p)/SectorSize; i++ {
		idx := s + int64(i)
		if d.badSector[idx] {
			bad = fmt.Errorf("%w: sector %d", ErrBadSector, idx)
			break
		}
		dst := p[i*SectorSize : (i+1)*SectorSize]
		if sec, ok := d.sectors[idx]; ok {
			copy(dst, sec)
		} else {
			clear(dst)
		}
	}
	d.reads++
	d.bytesRead += int64(len(p))
	d.mu.Unlock()
	d.arm.Use(cost)
	return bad
}

// WriteAt writes len(p) bytes at byte offset off, sector-atomically.
// If a torn write has been injected, only a prefix of the sectors is
// applied and the disk fails.
func (d *Disk) WriteAt(p []byte, off int64) error {
	if err := d.checkRange(off, len(p)); err != nil {
		return err
	}
	d.mu.Lock()
	if d.failed {
		d.mu.Unlock()
		return ErrDiskFailed
	}
	s := off / SectorSize
	cost := d.serviceTime(s, len(p))
	n := len(p) / SectorSize
	torn := false
	if d.tornAfter >= 0 {
		if int64(n) > d.tornAfter {
			n = int(d.tornAfter)
			torn = true
		}
		d.tornAfter -= int64(n)
	}
	for i := 0; i < n; i++ {
		idx := s + int64(i)
		sec := d.sectors[idx]
		if sec == nil {
			if len(d.slab) == 0 {
				d.slab = make([]byte, diskSlab)
			}
			sec, d.slab = d.slab[:SectorSize:SectorSize], d.slab[SectorSize:]
			d.sectors[idx] = sec
		}
		copy(sec, p[i*SectorSize:(i+1)*SectorSize])
	}
	d.writes++
	d.bytesWr += int64(n * SectorSize)
	if torn {
		d.failed = true
		d.mu.Unlock()
		return ErrDiskFailed
	}
	d.mu.Unlock()
	d.arm.Use(cost)
	return nil
}

// Fail marks the disk dead: all subsequent I/O returns ErrDiskFailed.
func (d *Disk) Fail() {
	d.mu.Lock()
	d.failed = true
	d.mu.Unlock()
}

// Revive clears a failure, preserving whatever sectors survived.
func (d *Disk) Revive() {
	d.mu.Lock()
	d.failed = false
	d.tornAfter = -1
	d.mu.Unlock()
}

// Failed reports whether the disk is currently failed.
func (d *Disk) Failed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed
}

// InjectTornWrite arranges for the disk to apply only the next n
// sectors written and then fail, simulating a power loss mid-write.
func (d *Disk) InjectTornWrite(n int) {
	d.mu.Lock()
	d.tornAfter = int64(n)
	d.mu.Unlock()
}

// CorruptSector marks one sector as returning CRC errors on read,
// simulating media damage. Petal's replication is expected to mask it.
func (d *Disk) CorruptSector(idx int64) {
	d.mu.Lock()
	d.badSector[idx] = true
	d.mu.Unlock()
}

// Stats reports cumulative I/O counters.
func (d *Disk) Stats() (reads, writes, bytesRead, bytesWritten int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads, d.writes, d.bytesRead, d.bytesWr
}

// Seeks reports how many I/Os moved the arm and the seek time they
// were charged, apart from their transfer time.
func (d *Disk) Seeks() (seeks int64, seekTime Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seeks, d.seekTime
}
