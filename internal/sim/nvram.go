package sim

import (
	"sync"

	"frangipani/internal/bufpool"
)

// BlockDev is the interface shared by Disk, NVRAM, and Petal's client
// driver: sector-aligned random-access block storage.
type BlockDev interface {
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
}

// nvEntry is one staged sector: its bytes are slot, the card's copy of
// them, which is never written again while anybody points at it: a
// rewrite repoints the entry at a slot of its own. That is what lets the
// entry be a value in the map (no object per sector to keep alive or to
// share) and lets ReadAt hold the bytes with the lock released. epoch
// distinguishes rewrites so the destager only evicts an entry if the
// disk write it completed still reflects the latest staged data.
type nvEntry struct {
	slot   *nvSlot
	epoch  int64
	queued bool // present in the destage order queue
}

// nvSlot holds one staged sector's bytes. refs counts who points at it,
// under the card's lock: the entry that stages it, until the sector is
// rewritten or destaged, and each read that snapshotted it, until it has
// overlaid it. A slot nobody points at goes back to the card's free list,
// so staging a sector takes one and allocates nothing.
type nvSlot struct {
	data [SectorSize]byte
	refs int
}

// slabSlots is how many slots the card makes at once when its free list
// is empty: 64 KB of sectors, one object.
const slabSlots = 128

// NVRAM is a battery-backed write buffer placed in front of a disk,
// modelling the paper's PrestoServe cards (8 MB). Writes complete as
// soon as they are staged in NVRAM; a background thread destages them
// to the disk. Reads see the union of NVRAM and disk contents, the
// newest staged write winning. The paper treats NVRAM failure as
// equivalent to failure of the Petal server it fronts, and so do we:
// there is no separate NVRAM fault mode.
//
// The card is the simulator's, not the file system's: on the host it
// costs a write one copy of its payload into slots from the card's free
// list and a map store per sector, and a write, a read and a destage no
// allocation at all once the card has made slots for what it stages at
// its fullest (TestNVRAMStagingAllocs), so that the host-time metrics read
// the code above it. The card keeps those slots: its staged memory is its
// high-water mark of staged sectors, 512 bytes each, not rounded up.
type NVRAM struct {
	disk     *Disk
	clock    *Clock
	capacity int // sectors, at least one
	latency  Duration

	mu      sync.Mutex
	cond    *sync.Cond
	dirty   map[int64]nvEntry // sector index -> staged data
	order   []int64           // FIFO destage order (queued entries)
	epoch   int64
	stopped bool
	free    []*nvSlot // slots nobody points at

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

// stage copies p, which fits the card, into slots for the sectors at off
// and points them there, once there is room for those of them that are
// not staged already: a rewrite takes no room.
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
	for i := 0; i < count; i++ {
		idx := s + int64(i)
		e, ok := n.dirty[idx]
		if ok {
			n.unrefLocked(e.slot)
		}
		if !e.queued {
			n.order = append(n.order, idx)
		}
		slot := n.slotLocked()
		copy(slot.data[:], p[i*SectorSize:])
		n.dirty[idx] = nvEntry{slot: slot, epoch: n.epoch, queued: true}
	}
	n.cond.Broadcast()
	n.mu.Unlock()
}

// slotLocked takes a slot from the free list, making a slab of them if it
// is empty, pointed at once.
func (n *NVRAM) slotLocked() *nvSlot {
	if len(n.free) == 0 {
		slab := make([]nvSlot, min(slabSlots, n.capacity))
		for i := range slab {
			n.free = append(n.free, &slab[i])
		}
	}
	k := len(n.free) - 1
	slot := n.free[k]
	n.free[k] = nil
	n.free = n.free[:k]
	slot.refs = 1
	return slot
}

// unrefLocked lets go of one pointer at slot; the last puts it back on
// the free list.
func (n *NVRAM) unrefLocked(slot *nvSlot) {
	if slot.refs--; slot.refs == 0 {
		n.free = append(n.free, slot)
	}
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
// sectors are snapshotted before the disk read, by reference — each slot
// counts the read among its holders until the overlay is done, so a
// rewrite or a destage meanwhile cannot recycle it — and a concurrent
// destage (which removes entries after writing them) cannot leave a
// window where the data is in neither place.
func (n *NVRAM) ReadAt(p []byte, off int64) error {
	var buf [128]*nvSlot // stack scratch for a 64 KB read; longer ones spill to the heap
	overlay := buf[:min(len(p)/SectorSize, len(buf))]
	if len(p)/SectorSize > len(buf) {
		overlay = make([]*nvSlot, len(p)/SectorSize)
	}
	held := n.hold(overlay, off/SectorSize)
	err := n.disk.ReadAt(p, off)
	if held {
		n.overlay(p, overlay, err == nil)
	}
	return err
}

// hold points overlay[i] at the slot of sector s+i if it is staged, nil
// if not, each held for the read, and reports whether any is.
func (n *NVRAM) hold(overlay []*nvSlot, s int64) (held bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := range overlay {
		overlay[i] = nil
		if e, ok := n.dirty[s+int64(i)]; ok {
			e.slot.refs++
			overlay[i], held = e.slot, true
		}
	}
	return held
}

// overlay copies the held slots over p's sectors, if apply, and lets go
// of them.
func (n *NVRAM) overlay(p []byte, overlay []*nvSlot, apply bool) {
	for i, slot := range overlay {
		if slot != nil && apply {
			copy(p[i*SectorSize:], slot.data[:])
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, slot := range overlay {
		if slot != nil {
			n.unrefLocked(slot)
		}
	}
}

// destager drains staged sectors to the disk in FIFO order, batching
// contiguous runs into single disk writes. Entries stay readable in
// the overlay until the disk write completes, and survive if they are
// re-dirtied while in flight.
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

// takeRun waits for a queued sector and gathers the contiguous run that
// starts at the oldest one into n.run, the epochs it was staged at into
// n.epochs, and returns the run's first sector; ok is false once the
// card is stopped and drained. The run's buffer is the shared pool's
// (Disk.WriteAt copies out of it) and goes back in retire: a buffer per
// card, kept at the size of its longest run, is resident memory that
// every idle card holds on to.
func (n *NVRAM) takeRun() (start int64, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for len(n.order) == 0 && !n.stopped {
		n.cond.Wait()
	}
	if len(n.order) == 0 {
		return 0, false
	}
	start = n.order[0]
	taken := 1
	for taken < len(n.order) && n.order[taken] == start+int64(taken) {
		taken++
	}
	n.run, n.epochs = bufpool.Get(taken*SectorSize), n.epochs[:0]
	for i, idx := range n.order[:taken] {
		e := n.dirty[idx]
		copy((*n.run)[i*SectorSize:], e.slot.data[:])
		n.epochs = append(n.epochs, e.epoch)
		e.queued = false
		n.dirty[idx] = e
	}
	n.order = n.order[:copy(n.order, n.order[taken:])] // one backing array for life
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
			n.unrefLocked(e.slot)
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
