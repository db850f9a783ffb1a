// Package fs implements the Frangipani file server: the paper's
// primary contribution. Multiple FS instances (one per machine) run
// the same code against one shared Petal virtual disk, coordinating
// through the distributed lock service, each logging its metadata
// updates to a private write-ahead log kept inside Petal.
package fs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Sizes.
const (
	// SectorSize is the metadata coherence unit: "we ensure that a
	// single disk sector does not hold more than one data structure
	// that could be shared" (§5).
	SectorSize = 512
	// BlockSize is the small-block size (§3: "small data blocks, each
	// 4 KB").
	BlockSize = 4096
	// InodeSize: "we have made inodes 512 bytes long, the size of a
	// disk block, thereby avoiding ... false sharing" (§3).
	InodeSize = 512
	// NumDirect is the number of small blocks per file: "The first
	// 64 KB (16 blocks) of a file are stored in small blocks" (§3).
	NumDirect = 16
	// DirectBytes is the byte range covered by small blocks.
	DirectBytes = NumDirect * BlockSize

	tb = int64(1) << 40
)

// Layout places the six regions of §3 in Petal's sparse address
// space. All constants are the paper's; only LargeBlockSize is
// configurable (1 TB in the paper — any power-of-two multiple of
// BlockSize works, and benchmarks use the real value because Petal
// address space is free).
type Layout struct {
	// ParamsBase holds shared configuration (region 0, 1 TB).
	ParamsBase int64
	// LogBase starts the log region (region 1, 1 TB, 256 slots).
	LogBase  int64
	LogSlots int
	LogSize  int64
	logStep  int64
	// BitmapBase starts the allocation bitmaps (region 2, 3 TB).
	BitmapBase int64
	// InodeBase starts the inodes (region 3, 1 TB, 2^31 inodes).
	InodeBase int64
	MaxInodes int64
	// SmallBase starts the 4 KB blocks (region 4, 2^47 bytes).
	SmallBase   int64
	SmallBlocks int64
	// MetaSmallBoundary splits the small-block space: blocks below it
	// are only ever used for metadata (directories), those above only
	// for user data. This enforces the paper's rule that "freed
	// metadata blocks are reused only to hold new metadata" without
	// needing a persistent taint list.
	MetaSmallBoundary int64
	// LargeBase starts the large blocks (region 5, one per file past
	// 64 KB).
	LargeBase      int64
	LargeBlockSize int64
	LargeBlocks    int64

	// SegBits is the size of one lockable allocation-bitmap segment,
	// in bits.
	SegBits int64
}

// DefaultLayout returns the paper's §3 layout. Large blocks are the
// paper's full 1 TB: Petal commits physical space only on write, so
// the sparseness costs nothing.
func DefaultLayout() Layout {
	l := Layout{
		ParamsBase:        0,
		LogBase:           1 * tb,
		LogSlots:          256,
		LogSize:           128 << 10,
		BitmapBase:        2 * tb,
		InodeBase:         5 * tb,
		MaxInodes:         1 << 31,
		SmallBase:         6 * tb,
		SmallBlocks:       1 << 35,
		MetaSmallBoundary: 1 << 34,
		LargeBase:         134 * tb,
		LargeBlockSize:    1 * tb,
		SegBits:           8 * bitsPerSector, // 8 bitmap sectors per segment
	}
	l.logStep = tb / int64(l.LogSlots)
	// Cap the address space at 2^62 to stay far from int64 overflow.
	l.LargeBlocks = ((int64(1) << 62) - l.LargeBase) / l.LargeBlockSize
	return l
}

// Validate checks internal consistency.
func (l *Layout) Validate() error {
	if l.SegBits%bitsPerSector != 0 {
		return errors.New("fs: segment size must be whole bitmap sectors")
	}
	if l.LargeBlockSize%BlockSize != 0 {
		return errors.New("fs: large block size must be a multiple of 4 KB")
	}
	if l.LogSize > l.logStep {
		return errors.New("fs: log size exceeds slot stride")
	}
	return nil
}

// Region address helpers.

// LogSlotBase returns the Petal address of a server's private log.
func (l *Layout) LogSlotBase(slot int) int64 {
	return l.LogBase + int64(slot)*l.logStep
}

// InodeAddr returns the Petal address of inode i.
func (l *Layout) InodeAddr(i int64) int64 { return l.InodeBase + i*InodeSize }

// SmallAddr returns the Petal address of small block j.
func (l *Layout) SmallAddr(j int64) int64 { return l.SmallBase + j*BlockSize }

// LargeAddr returns the Petal address of large block k.
func (l *Layout) LargeAddr(k int64) int64 { return l.LargeBase + k*l.LargeBlockSize }

// bitsPerSector is the number of allocation bits per bitmap sector:
// the last 8 bytes of every metadata sector hold its version trailer,
// leaving 504 usable bytes.
const bitsPerSector = 504 * 8

// bitLoc locates allocation bit b: the Petal address of its bitmap
// sector, the byte offset within the sector, and the bit mask.
func (l *Layout) bitLoc(b int64) (sectorAddr int64, byteOff int, mask byte) {
	sector := b / bitsPerSector
	rem := b % bitsPerSector
	return l.BitmapBase + sector*SectorSize, int(rem / 8), 1 << (rem % 8)
}

// Allocation classes. The bitmap maps bits to objects with a fixed
// rule (§3: "The mapping between bits in the allocation bitmap and
// inodes is fixed").
type allocClass int

const (
	classInode allocClass = iota
	classMetaSmall
	classDataSmall
	classLarge
	numClasses
)

func (c allocClass) String() string {
	switch c {
	case classInode:
		return "inode"
	case classMetaSmall:
		return "meta-small"
	case classDataSmall:
		return "data-small"
	case classLarge:
		return "large"
	}
	return "invalid"
}

// classRange returns the bitmap bit range [lo, hi) of a class.
func (l *Layout) classRange(c allocClass) (lo, hi int64) {
	switch c {
	case classInode:
		return 0, l.MaxInodes
	case classMetaSmall:
		return l.MaxInodes, l.MaxInodes + l.MetaSmallBoundary
	case classDataSmall:
		return l.MaxInodes + l.MetaSmallBoundary, l.MaxInodes + l.SmallBlocks
	case classLarge:
		return l.MaxInodes + l.SmallBlocks, l.MaxInodes + l.SmallBlocks + l.LargeBlocks
	}
	panic("fs: bad alloc class")
}

// bitFor maps an object index of a class to its bitmap bit. The two
// small-block classes share one index space — the split only directs
// which segments allocations come from.
func (l *Layout) bitFor(c allocClass, idx int64) int64 {
	var b int64
	switch c {
	case classInode:
		b = idx
	case classMetaSmall, classDataSmall:
		b = l.MaxInodes + idx
	case classLarge:
		b = l.MaxInodes + l.SmallBlocks + idx
	default:
		panic("fs: bad alloc class")
	}
	if idx < 0 {
		panic(fmt.Sprintf("fs: bit out of range: class %v idx %d", c, idx))
	}
	return b
}

// objForBit maps a bitmap bit back to (class, object index). Small
// blocks use a single index space regardless of the meta/data split.
func (l *Layout) objForBit(b int64) (allocClass, int64) {
	switch {
	case b < l.MaxInodes:
		return classInode, b
	case b < l.MaxInodes+l.MetaSmallBoundary:
		return classMetaSmall, b - l.MaxInodes
	case b < l.MaxInodes+l.SmallBlocks:
		return classDataSmall, b - l.MaxInodes
	default:
		return classLarge, b - l.MaxInodes - l.SmallBlocks
	}
}

// segRange returns the segment index range [lo, hi) covering a
// class.
func (l *Layout) segRange(c allocClass) (lo, hi int64) {
	blo, bhi := l.classRange(c)
	return blo / l.SegBits, (bhi + l.SegBits - 1) / l.SegBits
}

// Lock identifiers. The high byte tags the lock's kind; sorted
// acquisition (ascending ids) therefore orders inode locks before
// bitmap-segment locks, which is the deadlock-avoidance order every
// operation uses.
const (
	lockTagInode  = uint64(1) << 56
	lockTagBitmap = uint64(2) << 56
	// LockBarrier is the single global lock used by the backup
	// barrier (§8): servers hold it shared for every modification,
	// the backup program requests it exclusive.
	LockBarrier = uint64(4) << 56
)

// InodeLock returns the lock covering inode i and all its data.
func InodeLock(i int64) uint64 { return lockTagInode | uint64(i) }

// SegLock returns the lock covering allocation-bitmap segment s.
func SegLock(s int64) uint64 { return lockTagBitmap | uint64(s) }

// LockName decodes a lock id into a human-readable name for the
// hot-lock contention table ("inode/7", "bitmap-seg/3", ...).
func LockName(id uint64) string {
	n := id & (uint64(1)<<56 - 1)
	switch id &^ (uint64(1)<<56 - 1) {
	case lockTagInode:
		return fmt.Sprintf("inode/%d", n)
	case lockTagBitmap:
		return fmt.Sprintf("bitmap-seg/%d", n)
	case LockBarrier:
		return "backup-barrier"
	}
	return fmt.Sprintf("%#x", id)
}

// ParseLockName is the inverse of LockName: it accepts the rendered
// forms ("inode/7", "bitmap-seg/3", "backup-barrier")
// as well as a raw decimal or 0x-hex lock id.
func ParseLockName(s string) (uint64, bool) {
	if s == "backup-barrier" {
		return LockBarrier, true
	}
	for _, p := range []struct {
		prefix string
		tag    uint64
	}{
		{"inode/", lockTagInode},
		{"bitmap-seg/", lockTagBitmap},
	} {
		if strings.HasPrefix(s, p.prefix) {
			n, err := strconv.ParseUint(s[len(p.prefix):], 10, 64)
			if err != nil {
				return 0, false
			}
			return p.tag | n, true
		}
	}
	base := 10
	if strings.HasPrefix(s, "0x") {
		s, base = s[2:], 16
	}
	n, err := strconv.ParseUint(s, base, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Params sector (one sector at ParamsBase).
const paramsMagic = 0x46524749 // "FRGI"

type params struct {
	Magic   uint32
	Version uint32
	Root    int64
}

func encodeParams(p params) []byte {
	b := make([]byte, SectorSize)
	binary.LittleEndian.PutUint32(b[0:4], p.Magic)
	binary.LittleEndian.PutUint32(b[4:8], p.Version)
	binary.LittleEndian.PutUint64(b[8:16], uint64(p.Root))
	return b
}

func decodeParams(b []byte) (params, error) {
	p := params{
		Magic:   binary.LittleEndian.Uint32(b[0:4]),
		Version: binary.LittleEndian.Uint32(b[4:8]),
		Root:    int64(binary.LittleEndian.Uint64(b[8:16])),
	}
	if p.Magic != paramsMagic {
		return p, errors.New("fs: not a Frangipani file system (bad magic)")
	}
	return p, nil
}

// RootInum is the inode number of the root directory.
const RootInum = 0
