package sim

import (
	"sync"
)

// BlockDev is the interface shared by Disk, NVRAM, and Petal's client
// driver: sector-aligned random-access block storage.
type BlockDev interface {
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
}

// nvEntry is one staged sector. epoch distinguishes rewrites so the
// destager only evicts an entry if the disk write it completed still
// reflects the latest staged data.
type nvEntry struct {
	data   []byte
	epoch  int64
	queued bool // present in the destage order queue
}

// NVRAM is a battery-backed write buffer placed in front of a disk,
// modelling the paper's PrestoServe cards (8 MB). Writes complete as
// soon as they are staged in NVRAM; a background thread destages them
// to the disk. Reads see the union of NVRAM and disk contents. The
// paper treats NVRAM failure as equivalent to failure of the Petal
// server it fronts, and so do we: there is no separate NVRAM fault
// mode.
type NVRAM struct {
	disk     *Disk
	clock    *Clock
	capacity int
	latency  Duration

	mu      sync.Mutex
	cond    *sync.Cond
	dirty   map[int64]*nvEntry // sector index -> staged data
	order   []int64            // FIFO destage order (queued entries)
	epoch   int64
	stopped bool
}

// NewNVRAM wraps disk with capacity bytes of write buffer. Writes
// complete after latency (the DMA cost of staging into the card).
func NewNVRAM(clock *Clock, disk *Disk, capacity int, latency Duration) *NVRAM {
	n := &NVRAM{
		disk:     disk,
		clock:    clock,
		capacity: capacity / SectorSize,
		latency:  latency,
		dirty:    make(map[int64]*nvEntry),
	}
	n.cond = sync.NewCond(&n.mu)
	go n.destager()
	return n
}

// WriteAt stages the write into NVRAM, blocking only if the buffer is
// full (destage backpressure).
func (n *NVRAM) WriteAt(p []byte, off int64) error {
	if err := n.disk.checkRange(off, len(p)); err != nil {
		return err
	}
	if n.disk.Failed() {
		return ErrDiskFailed
	}
	s := off / SectorSize
	count := len(p) / SectorSize
	n.mu.Lock()
	for len(n.dirty)+count > n.capacity && !n.stopped {
		n.cond.Wait()
	}
	n.epoch++
	for i := 0; i < count; i++ {
		idx := s + int64(i)
		e := n.dirty[idx]
		if e == nil {
			e = &nvEntry{data: make([]byte, SectorSize)}
			n.dirty[idx] = e
		}
		copy(e.data, p[i*SectorSize:(i+1)*SectorSize])
		e.epoch = n.epoch
		if !e.queued {
			e.queued = true
			n.order = append(n.order, idx)
		}
	}
	n.cond.Broadcast()
	n.mu.Unlock()
	n.clock.Sleep(n.latency)
	return nil
}

// ReadAt reads through the NVRAM overlay: staged sectors come from
// the buffer, the rest from disk. The overlay is snapshotted before
// the disk read so a concurrent destage (which removes entries after
// writing them) cannot leave a window where the data is in neither
// place.
func (n *NVRAM) ReadAt(p []byte, off int64) error {
	s := off / SectorSize
	count := len(p) / SectorSize
	overlay := make(map[int][]byte)
	n.mu.Lock()
	for i := 0; i < count; i++ {
		if e, ok := n.dirty[s+int64(i)]; ok {
			buf := make([]byte, SectorSize)
			copy(buf, e.data)
			overlay[i] = buf
		}
	}
	n.mu.Unlock()
	if err := n.disk.ReadAt(p, off); err != nil {
		return err
	}
	for i, buf := range overlay {
		copy(p[i*SectorSize:(i+1)*SectorSize], buf)
	}
	return nil
}

// destager drains staged sectors to the disk in FIFO order, batching
// contiguous runs into single disk writes. Entries stay readable in
// the overlay until the disk write completes, and survive if they are
// re-dirtied while in flight.
func (n *NVRAM) destager() {
	for {
		n.mu.Lock()
		for len(n.order) == 0 && !n.stopped {
			n.cond.Wait()
		}
		if len(n.order) == 0 && n.stopped {
			n.mu.Unlock()
			return
		}
		// Take a contiguous run starting at the oldest queued sector.
		start := n.order[0]
		var run []byte
		var epochs []int64
		taken := 0
		for taken < len(n.order) && n.order[taken] == start+int64(taken) {
			e := n.dirty[n.order[taken]]
			run = append(run, e.data...)
			epochs = append(epochs, e.epoch)
			e.queued = false
			taken++
		}
		n.order = n.order[taken:]
		n.mu.Unlock()

		err := n.disk.WriteAt(run, start*SectorSize)

		n.mu.Lock()
		for i := 0; i < taken; i++ {
			idx := start + int64(i)
			e := n.dirty[idx]
			if e == nil || e.queued || e.epoch != epochs[i] {
				continue // re-dirtied while in flight; keep it
			}
			if err == nil {
				delete(n.dirty, idx)
			} else {
				// Disk write failed (disk dead): drop anyway; the
				// machine fronted by this NVRAM is considered failed.
				delete(n.dirty, idx)
			}
		}
		n.cond.Broadcast()
		n.mu.Unlock()
	}
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
