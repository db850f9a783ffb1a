package petal

import (
	"fmt"
	"sort"
	"sync"

	"frangipani/internal/bufpool"
	"frangipani/internal/sim"
)

// extent locates one committed chunk on a server's local disks. A
// negative dev marks a decommit tombstone: the chunk is explicitly
// absent at that epoch, hiding older-epoch data from newer views.
type extent struct {
	dev int
	off int64
}

const tombstoneDev = -1

// vchunk indexes the epochs present for one (vdisk, chunk) pair.
type vchunk struct {
	VDisk VDiskID
	Chunk int64
}

// store is one Petal server's physical storage: a set of local disks
// (optionally fronted by NVRAM) carved into 64 KB extents, plus the
// chunk directory mapping chunkKeys to extents.
type store struct {
	devs  []sim.BlockDev
	disks []*sim.Disk // raw disks, for fault injection and capacity
	caps  []int64

	mu        sync.Mutex
	extents   map[chunkKey]extent
	epochs    map[vchunk][]int64 // sorted ascending
	free      [][]int64          // per-dev free extent offsets
	next      []int64            // per-dev bump allocator
	committed int64              // bytes of committed physical space
	initing   map[chunkKey]*sync.WaitGroup
}

// newStore builds a store over the given disks. If nvram is non-nil
// it must be parallel to disks and is used for all I/O.
func newStore(disks []*sim.Disk, nvram []*sim.NVRAM) *store {
	s := &store{
		extents: make(map[chunkKey]extent),
		epochs:  make(map[vchunk][]int64),
		free:    make([][]int64, len(disks)),
		next:    make([]int64, len(disks)),
		initing: make(map[chunkKey]*sync.WaitGroup),
	}
	for i, d := range disks {
		s.disks = append(s.disks, d)
		s.caps = append(s.caps, d.Params().Capacity)
		if nvram != nil && nvram[i] != nil {
			s.devs = append(s.devs, nvram[i])
		} else {
			s.devs = append(s.devs, d)
		}
	}
	return s
}

// alloc finds a free extent, preferring the least-loaded disk.
func (s *store) alloc() (extent, error) {
	best, bestFreeBytes := -1, int64(-1)
	for i := range s.devs {
		freeBytes := s.caps[i] - s.next[i] + int64(len(s.free[i]))*ChunkSize
		if freeBytes >= ChunkSize && freeBytes > bestFreeBytes {
			best, bestFreeBytes = i, freeBytes
		}
	}
	if best < 0 {
		return extent{}, fmt.Errorf("petal: server out of physical space")
	}
	if n := len(s.free[best]); n > 0 {
		off := s.free[best][n-1]
		s.free[best] = s.free[best][:n-1]
		return extent{dev: best, off: off}, nil
	}
	off := s.next[best]
	s.next[best] += ChunkSize
	return extent{dev: best, off: off}, nil
}

func (s *store) indexInsert(key chunkKey) {
	vc := vchunk{key.VDisk, key.Chunk}
	eps := s.epochs[vc]
	i := sort.Search(len(eps), func(i int) bool { return eps[i] >= key.Epoch })
	if i < len(eps) && eps[i] == key.Epoch {
		return
	}
	eps = append(eps, 0)
	copy(eps[i+1:], eps[i:])
	eps[i] = key.Epoch
	s.epochs[vc] = eps
}

// latest returns the highest epoch <= ceiling at which (v, chunk) has
// an entry, or 0 if none.
func (s *store) latest(v VDiskID, chunk, ceiling int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latestLocked(v, chunk, ceiling)
}

func (s *store) latestLocked(v VDiskID, chunk, ceiling int64) int64 {
	eps := s.epochs[vchunk{v, chunk}]
	i := sort.Search(len(eps), func(i int) bool { return eps[i] > ceiling })
	if i == 0 {
		return 0
	}
	return eps[i-1]
}

// readChunk fills dst from off within the chunk visible at epoch
// ceiling. Missing or decommitted chunks are not read: committed is
// false then, letting the caller skip network payload for holes, and dst
// is left as it was.
func (s *store) readChunk(v VDiskID, chunk, ceiling int64, off int, dst []byte) (committed bool, err error) {
	s.mu.Lock()
	e := s.latestLocked(v, chunk, ceiling)
	if e == 0 {
		s.mu.Unlock()
		return false, nil
	}
	key := chunkKey{v, chunk, e}
	ext := s.extents[key]
	wg := s.initing[key]
	s.mu.Unlock()
	if wg != nil {
		wg.Wait() // COW seed copy in progress; read after it lands
	}
	if ext.dev == tombstoneDev {
		return false, nil
	}
	// The disks read whole sectors: an unaligned range is read through
	// the covering sector-aligned one.
	lo := int64(off) &^ (sim.SectorSize - 1)
	hi := (int64(off+len(dst)) + sim.SectorSize - 1) &^ (sim.SectorSize - 1)
	if lo == int64(off) && hi == int64(off+len(dst)) {
		return true, s.devs[ext.dev].ReadAt(dst, ext.off+lo)
	}
	bufp := bufpool.Get(int(hi - lo))
	defer bufpool.Put(bufp)
	if err := s.devs[ext.dev].ReadAt(*bufp, ext.off+lo); err != nil {
		return false, err
	}
	copy(dst, (*bufp)[int64(off)-lo:])
	return true, nil
}

// writeChunk applies data at off within (v, chunk) at exactly epoch.
// If the chunk has no extent at that epoch, one is allocated and
// seeded copy-on-write from the latest older epoch, preserving
// snapshot contents.
func (s *store) writeChunk(v VDiskID, chunk, epoch int64, off int, data []byte) error {
	key := chunkKey{v, chunk, epoch}
	s.mu.Lock()
	ext, ok := s.extents[key]
	var seed *extent
	var initWG *sync.WaitGroup
	if !ok || ext.dev == tombstoneDev {
		if prev := s.latestLocked(v, chunk, epoch-1); prev != 0 && !ok {
			pe := s.extents[chunkKey{v, chunk, prev}]
			if pe.dev != tombstoneDev {
				seed = &pe
			}
		}
		newExt, err := s.alloc()
		if err != nil {
			s.mu.Unlock()
			return err
		}
		ext = newExt
		s.extents[key] = ext
		s.indexInsert(key)
		s.committed += ChunkSize
		if seed != nil {
			// Publish an init barrier so concurrent writers to other
			// parts of this chunk wait for the COW seed copy.
			initWG = &sync.WaitGroup{}
			initWG.Add(1)
			s.initing[key] = initWG
		}
	} else if wg := s.initing[key]; wg != nil {
		s.mu.Unlock()
		wg.Wait()
		s.mu.Lock()
	}
	s.mu.Unlock()

	if seed != nil {
		buf := make([]byte, ChunkSize)
		err := s.devs[seed.dev].ReadAt(buf, seed.off)
		if err == nil {
			err = s.devs[ext.dev].WriteAt(buf, ext.off)
		}
		s.mu.Lock()
		delete(s.initing, key)
		s.mu.Unlock()
		initWG.Done()
		if err != nil {
			return err
		}
	}
	// Sector-align the user write with read-modify-write at the edges.
	lo := int64(off) &^ (sim.SectorSize - 1)
	hi := (int64(off+len(data)) + sim.SectorSize - 1) &^ (sim.SectorSize - 1)
	if lo == int64(off) && hi == int64(off+len(data)) {
		return s.devs[ext.dev].WriteAt(data, ext.off+lo)
	}
	buf := make([]byte, hi-lo)
	if err := s.devs[ext.dev].ReadAt(buf, ext.off+lo); err != nil {
		return err
	}
	copy(buf[int64(off)-lo:], data)
	return s.devs[ext.dev].WriteAt(buf, ext.off+lo)
}

// putRaw installs a whole chunk image at an exact key: a partner's
// repair push (PushChunkReq).
func (s *store) putRaw(key chunkKey, data []byte) error {
	s.mu.Lock()
	ext, ok := s.extents[key]
	if !ok || ext.dev == tombstoneDev {
		newExt, err := s.alloc()
		if err != nil {
			s.mu.Unlock()
			return err
		}
		ext = newExt
		s.extents[key] = ext
		s.indexInsert(key)
		s.committed += ChunkSize
	}
	s.mu.Unlock()
	return s.devs[ext.dev].WriteAt(data, ext.off)
}

// getRaw reads a whole chunk image at an exact key.
func (s *store) getRaw(key chunkKey) ([]byte, bool, error) {
	s.mu.Lock()
	ext, ok := s.extents[key]
	s.mu.Unlock()
	if !ok || ext.dev == tombstoneDev {
		return nil, false, nil
	}
	buf := make([]byte, ChunkSize)
	err := s.devs[ext.dev].ReadAt(buf, ext.off)
	return buf, err == nil, err
}

// decommit hides (v, chunk) from views at epoch and frees physical
// space not needed by older epochs (which snapshots may still see).
// When no older epoch exists the tombstone itself is elided.
func (s *store) decommit(v VDiskID, chunk, epoch int64) {
	key := chunkKey{v, chunk, epoch}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ext, ok := s.extents[key]; ok && ext.dev != tombstoneDev {
		// Free the extent at this epoch.
		s.free[ext.dev] = append(s.free[ext.dev], ext.off)
		s.committed -= ChunkSize
		if s.latestLocked(v, chunk, epoch-1) == 0 {
			// Nothing older: remove the entry entirely.
			delete(s.extents, key)
			s.removeEpoch(v, chunk, epoch)
			return
		}
		s.extents[key] = extent{dev: tombstoneDev}
		return
	}
	if s.latestLocked(v, chunk, epoch-1) != 0 {
		// Older data exists (possibly snapshot-visible): mask it.
		s.extents[key] = extent{dev: tombstoneDev}
		s.indexInsert(key)
	}
}

func (s *store) removeEpoch(v VDiskID, chunk, epoch int64) {
	vc := vchunk{v, chunk}
	eps := s.epochs[vc]
	i := sort.Search(len(eps), func(i int) bool { return eps[i] >= epoch })
	if i < len(eps) && eps[i] == epoch {
		s.epochs[vc] = append(eps[:i], eps[i+1:]...)
	}
	if len(s.epochs[vc]) == 0 {
		delete(s.epochs, vc)
	}
}

// decommitRange decommits every committed chunk of v in
// [first, last] at the given epoch. Cost is proportional to the
// chunks actually committed, not the (possibly huge, sparse) range.
func (s *store) decommitRange(v VDiskID, first, last, epoch int64) {
	s.mu.Lock()
	var hits []int64
	for vc := range s.epochs {
		if vc.VDisk == v && vc.Chunk >= first && vc.Chunk <= last {
			hits = append(hits, vc.Chunk)
		}
	}
	s.mu.Unlock()
	for _, ch := range hits {
		s.decommit(v, ch, epoch)
	}
}

// committedBytes reports physical space committed on this server.
func (s *store) committedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.committed
}

// visibleChunks returns the chunk indexes of a vdisk that are
// committed (non-tombstone) at the given epoch ceiling.
func (s *store) visibleChunks(v VDiskID, ceiling int64) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int64
	for vc := range s.epochs {
		if vc.VDisk != v {
			continue
		}
		e := s.latestLocked(v, vc.Chunk, ceiling)
		if e == 0 {
			continue
		}
		if s.extents[chunkKey{v, vc.Chunk, e}].dev == tombstoneDev {
			continue
		}
		out = append(out, vc.Chunk)
	}
	return out
}

// keys returns all chunk keys present (including tombstones), for
// tests and the consistency checker.
func (s *store) keys() []chunkKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]chunkKey, 0, len(s.extents))
	for k := range s.extents {
		out = append(out, k)
	}
	return out
}
