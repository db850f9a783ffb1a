package sim

import (
	"sync"

	"frangipani/internal/bufpool"
	"frangipani/internal/reuse"
)

// BlockDev is the interface shared by Disk, NVRAM, and Petal's client
// driver: sector-aligned random-access block storage.
type BlockDev interface {
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
}

// nvEntry is one staged sector: its bytes are slot, the card's copy of
// them, which only the entry points at — a rewrite copies its bytes into
// the same slot, and a read and a destage copy out of it, all under the
// card's lock — so the entry can be a value in the map. epoch
// distinguishes rewrites so the destager only evicts an entry if the
// disk write it completed still reflects the latest staged data.
type nvEntry struct {
	slot   *nvSlot
	epoch  int64
	queued bool // in one of the destage queues; false while its run is on the arm
}

// nvSlot holds one staged sector's bytes. Its one owner is the entry
// that stages it; once the sector is destaged it goes back to the card's
// free list, so staging a sector takes one and allocates nothing.
type nvSlot [SectorSize]byte

// nvScratch is a read's copy of the staged sectors it covers, taken
// before its disk read: their bytes, in order, and the index of each
// sector in the read.
type nvScratch struct {
	data []byte
	at   []int
}

// slabSlots is how many slots the card makes at once when its free list
// is empty: 64 KB of sectors, one object.
const slabSlots = 128

// runSectors caps a destage run: 32 KB, one part of a Petal write. A
// read that arrives while a run is on the arm waits for all of it
// (EXPERIMENTS.md, "Destage in head order").
const runSectors = 64

// NVRAM is a battery-backed write buffer placed in front of a disk,
// modelling the paper's PrestoServe cards (8 MB). Writes complete as
// soon as they are staged in NVRAM; a background thread destages them
// to the disk in runs of up to 32 KB, in the disk's head order, each
// sweep serving what was queued before it began (takeRun). Reads see
// the union of NVRAM and disk contents, the newest staged write
// winning. The paper treats NVRAM failure as
// equivalent to failure of the Petal server it fronts, and so do we:
// there is no separate NVRAM fault mode.
//
// The card is the simulator's, not the file system's: on the host it
// costs a write one copy of its payload into slots from the card's free
// list and a map store per sector, a read one copy of the staged sectors
// it covers into scratch from the card's list and one back, and a write,
// a read and a destage no allocation at all once the card has made slots
// and scratch for what it stages and reads at its fullest
// (TestNVRAMStagingAllocs), so that the host-time metrics read the code
// above it. The card keeps those slots: its staged memory is its
// high-water mark of staged sectors, 512 bytes each, not rounded up.
type NVRAM struct {
	disk     *Disk
	clock    *Clock
	capacity int // sectors, at least one
	latency  Duration

	mu      sync.Mutex
	cond    *sync.Cond
	dirty   map[int64]nvEntry // sector index -> staged data
	epoch   int64
	stopped bool
	free    reuse.List[*nvSlot]    // slots no entry stages
	scratch reuse.List[*nvScratch] // of reads that are done

	// The queued sectors in sector order, in two sets: those of the sweep
	// under way, queued before it began, and those of the next (takeRun).
	// A rewrite of a queued sector leaves it in its set.
	queue     sectorTree
	now, next int32 // their roots in queue, 0 when empty

	run    *[]byte // the destager's: the run on its way to the disk, from bufpool
	epochs []int64 // and the epoch of each of its sectors
}

// NewNVRAM wraps disk with capacity bytes of write buffer. Writes
// complete after latency (the DMA cost of staging into the card).
func NewNVRAM(clock *Clock, disk *Disk, capacity int, latency Duration) *NVRAM {
	n := newNVRAM(clock, disk, capacity, latency)
	go n.destager()
	return n
}

// newNVRAM is the card without its destager, for tests that step one
// by hand (takeRun, the disk write, retire).
func newNVRAM(clock *Clock, disk *Disk, capacity int, latency Duration) *NVRAM {
	n := &NVRAM{
		disk:     disk,
		clock:    clock,
		capacity: max(capacity/SectorSize, 1),
		latency:  latency,
		dirty:    make(map[int64]nvEntry),
	}
	n.cond = sync.NewCond(&n.mu)
	return n
}

// WriteAt stages the write into NVRAM, blocking only if the buffer is
// full (destage backpressure). p is copied once, into the card's slots,
// before WriteAt returns; a write larger than the card is staged in
// card-sized parts.
func (n *NVRAM) WriteAt(p []byte, off int64) error {
	if err := n.disk.checkRange(off, len(p)); err != nil {
		return err
	}
	if n.disk.Failed() {
		return ErrDiskFailed
	}
	for card := n.capacity * SectorSize; len(p) > card; p, off = p[card:], off+int64(card) {
		n.stage(p[:card], off)
	}
	n.stage(p, off)
	n.clock.Sleep(n.latency)
	return nil
}

// stage copies p, which fits the card, into the slots of the sectors at
// off — a staged sector's own, a new one's from the free list — once
// there is room for those of them that are not staged already: a rewrite
// takes no room.
func (n *NVRAM) stage(p []byte, off int64) {
	s := off / SectorSize
	count := len(p) / SectorSize
	n.mu.Lock()
	// Room for count new sectors is room enough; short of that, see how
	// many of them are new.
	for !n.stopped && len(n.dirty)+count > n.capacity && len(n.dirty)+n.unstaged(s, count) > n.capacity {
		n.cond.Wait()
	}
	n.epoch++
	fresh := int64(-1) // where the sectors before idx that this write queues begin; -1: none
	for i := 0; i < count; i++ {
		idx := s + int64(i)
		e, ok := n.dirty[idx]
		if !ok {
			e.slot = n.slot()
		}
		if !e.queued {
			e.queued = true
			if fresh < 0 {
				fresh = idx
			}
		} else {
			n.enqueue(fresh, idx)
			fresh = -1
		}
		copy(e.slot[:], p[i*SectorSize:])
		e.epoch = n.epoch
		n.dirty[idx] = e
	}
	n.enqueue(fresh, s+int64(count))
	n.cond.Broadcast()
	n.mu.Unlock()
}

// enqueue queues the sectors [from, to) for the next sweep; from < 0
// queues none.
func (n *NVRAM) enqueue(from, to int64) {
	if from >= 0 {
		n.queue.addRange(&n.next, from, to)
	}
}

// slot takes a slot from the free list, making a slab of them if it is
// empty.
func (n *NVRAM) slot() *nvSlot {
	if slot, ok := n.free.Take(); ok {
		return slot
	}
	slab := make([]nvSlot, min(slabSlots, n.capacity))
	for i := range slab[1:] {
		n.free.Put(&slab[1+i])
	}
	return &slab[0]
}

// unstaged counts the sectors of [s, s+count) the card does not hold.
func (n *NVRAM) unstaged(s int64, count int) int {
	fresh := 0
	for i := 0; i < count; i++ {
		if _, ok := n.dirty[s+int64(i)]; !ok {
			fresh++
		}
	}
	return fresh
}

// ReadAt reads through the NVRAM overlay. The disk is read, and
// charged, for the whole range, staged sectors included; the staged
// sectors then overlay their bytes on what the disk returned, so a read
// sees what was written, not what has been destaged. A staged sector
// saves the read no arm time: serving it from the card would be a read
// hit, which the modelled PrestoServe card is not used for here, and a
// change to the modelled hardware (DESIGN §3.4, "Rejected"). The staged
// sectors are copied out under the card's lock before the disk read
// (snapshot), so a concurrent destage (which removes entries after
// writing them) cannot leave a window where the data is in neither
// place, and a rewrite meanwhile changes nothing the read holds.
func (n *NVRAM) ReadAt(p []byte, off int64) error {
	sc := n.snapshot(off/SectorSize, len(p)/SectorSize)
	err := n.disk.ReadAt(p, off)
	n.apply(p, sc)
	return err
}

// snapshot copies the staged sectors of [s, s+count) into scratch from
// the card's list.
func (n *NVRAM) snapshot(s int64, count int) *nvScratch {
	sc, ok := n.scratch.Take()
	if !ok {
		sc = new(nvScratch)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := 0; i < count; i++ {
		if e, ok := n.dirty[s+int64(i)]; ok {
			sc.data = append(sc.data, e.slot[:]...)
			sc.at = append(sc.at, i)
		}
	}
	return sc
}

// apply lays the sectors snapshot copied into sc over p, the bytes the
// disk returned, and gives sc back.
func (n *NVRAM) apply(p []byte, sc *nvScratch) {
	for k, i := range sc.at {
		copy(p[i*SectorSize:], sc.data[k*SectorSize:(k+1)*SectorSize])
	}
	sc.data, sc.at = sc.data[:0], sc.at[:0]
	n.scratch.Put(sc)
}

// destager drains staged sectors to the disk a run at a time, in the
// order takeRun picks. Entries stay readable in the overlay until the
// disk write completes, and survive if they are re-dirtied while in
// flight.
func (n *NVRAM) destager() {
	for {
		start, ok := n.takeRun()
		if !ok {
			return
		}
		// A failed write (the disk is dead) drops the run all the same:
		// the machine fronted by this NVRAM is considered failed.
		_ = n.disk.WriteAt(*n.run, start*SectorSize)
		n.retire(start)
	}
}

// takeRun waits for a queued sector and gathers a run into n.run, the
// epochs its sectors were staged at into n.epochs, and returns the run's
// first sector; ok is false once the card is stopped and drained.
//
// The run is in the disk's head order (C-LOOK, the one-way elevator of
// BSD's disksort): it starts at the first sector of this sweep at or
// after the head — where the arm will be once what it has been given is
// done — or, when none is ahead, at the lowest, and takes the queued
// sectors that follow it on the disk, up to runSectors. A sweep serves
// only what was queued before it began; what is queued meanwhile waits
// for the next, which begins when this one is drained. So a writer that
// stays just ahead of the head cannot keep a sector behind it on the
// card: no sector waits beyond the end of the sweep after the one it was
// queued in.
//
// The run's buffer is the shared pool's (Disk.WriteAt copies out of it)
// and goes back in retire: a buffer per card, kept at the size of its
// longest run, is resident memory that every idle card holds on to.
func (n *NVRAM) takeRun() (start int64, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for n.now == 0 && n.next == 0 && !n.stopped {
		n.cond.Wait()
	}
	if n.now == 0 && n.next == 0 {
		return 0, false
	}
	if n.now == 0 { // the next sweep begins
		n.now, n.next = n.next, 0
	}
	start, ok = n.queue.ceil(n.now, n.disk.headSector())
	if !ok {
		start, _ = n.queue.ceil(n.now, 0)
	}
	n.epochs = n.epochs[:0]
	for idx := start; len(n.epochs) < runSectors; idx++ {
		e, ok := n.dirty[idx]
		if !ok || !e.queued {
			break
		}
		e.queued = false
		n.dirty[idx] = e
		n.epochs = append(n.epochs, e.epoch)
	}
	end := start + int64(len(n.epochs))
	n.queue.cut(&n.now, start, end)
	n.queue.cut(&n.next, start, end)
	n.run = bufpool.Get(len(n.epochs) * SectorSize)
	for i := range n.epochs {
		copy((*n.run)[i*SectorSize:], n.dirty[start+int64(i)].slot[:])
	}
	return start, true
}

// retire drops the sectors of the run takeRun gathered at start, now on
// the disk, unless they were re-dirtied while it was in flight.
func (n *NVRAM) retire(start int64) {
	bufpool.Put(n.run)
	n.run = nil
	n.mu.Lock()
	for i, epoch := range n.epochs {
		idx := start + int64(i)
		if e, ok := n.dirty[idx]; ok && !e.queued && e.epoch == epoch {
			n.free.Put(e.slot)
			delete(n.dirty, idx)
		}
	}
	n.cond.Broadcast()
	n.mu.Unlock()
}

// Flush blocks until all staged sectors have reached the disk. The
// destager broadcasts after every run it has written.
func (n *NVRAM) Flush() {
	n.mu.Lock()
	for len(n.dirty) > 0 && !n.stopped {
		n.cond.Wait()
	}
	n.mu.Unlock()
}

// Close stops the destager after draining.
func (n *NVRAM) Close() {
	n.Flush()
	n.mu.Lock()
	n.stopped = true
	n.cond.Broadcast()
	n.mu.Unlock()
}
