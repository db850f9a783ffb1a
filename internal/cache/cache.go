// Package cache implements the buffer cache used by each Frangipani
// server (standing in for the kernel's unified buffer cache). Every
// entry records the lock that covers it and the write-ahead-log
// sequence number of the latest logged update that dirtied it, so the
// file system can implement the paper's coherence rules:
//
//   - release a read lock  => invalidate the covered entries;
//   - downgrade a write lock => flush the covered dirty entries,
//     keep them cached;
//   - release a write lock => flush and invalidate.
//
// The pool evicts clean entries LRU-first; dirty victims are handed
// to the registered flusher (which must write the log record before
// the block, per the WAL rule) and leave only once it has written them
// back.
//
// An entry is pinned while somebody holds it. Every call that hands one
// out — Lookup, Peek, Insert, Fill and the dirty lists — pins it, the
// victims it gives the flusher are pinned until the flusher returns, and
// the holder calls Unpin when it is done with the entry's bytes. A pin
// does not keep an entry resident: eviction and invalidation drop pinned
// entries like any other. It keeps the entry's memory its holder's: a
// dropped entry goes on the pool's spare list, to be the block of a later
// insert, only once nobody holds it, so a pool reuses the frame a drop
// frees the way a unified buffer cache does, and never under a reader or
// a writer. Insert and Fill evict before they take an entry, so an insert
// into a full pool takes its own clean victim. A pin that is never
// released costs that entry's reuse and nothing else: the collector still
// owns the memory.
package cache

import (
	"sync"

	"frangipani/internal/obs"
	"frangipani/internal/reuse"
)

// Entry is one cached block. Data is mutated in place by the owner
// while it holds the covering lock; in-place writes go through
// Pool.Mutate so background flushers (which snapshot via
// SnapshotBatch) never observe a torn block.
type Entry struct {
	Addr  int64
	Data  []byte
	Dirty bool
	// Seq is the log sequence of the latest record describing this
	// block's pending update; the log must be flushed through Seq
	// before Data may be written to Petal.
	Seq int64
	// First is the log sequence of the oldest record whose update to
	// this block has not reached Petal: records carry only the bytes
	// they changed, so the log may be released through First only once
	// Data has been written.
	First int64
	// Joint is the log sequence of the newest record that changed this
	// block together with another one. A record that changed this block
	// alone is atomic with the block's write, so a write-back that may
	// go ahead of the log (a lock's revoke) forces it only through Joint.
	Joint int64
	// Owner is the lock id covering this block.
	Owner uint64

	gen int64 // bumped on every MarkDirty; guards MarkCleanIfBatch
	// pins counts the holders the entry was handed to and that have not
	// unpinned it; resident says the pool's map holds it. An entry that
	// is neither is free to be reused.
	pins     int32
	resident bool
	// The entry's place in its pool's LRU ring; nil once it has been
	// dropped, or while it is a victim being written back. The links live
	// here so that an insert allocates the entry, which holds its block,
	// and nothing else.
	prev, next *Entry
	// The entry's place in its owner's list (Pool.byOwner), while
	// indexed: the owner index costs nothing per entry either.
	ownPrev, ownNext *Entry
	indexed          bool
}

// pageEntry and sectorEntry are an entry and its block in one
// allocation, for the file system's 4 KB data pages and 512-byte
// metadata sectors: Data slices the array. The entry comes first, so the
// collector scans its pointers and not the block. A pool of another
// block size allocates the two apart.
type pageEntry struct {
	Entry
	block [4096]byte
}

type sectorEntry struct {
	Entry
	block [512]byte
}

// takeLocked enters an entry for addr under owner, pinned once for the
// caller, and returns it: a spare one if the pool has one, its block
// still holding its old bytes for the caller to overwrite, else a new one
// with a zeroed block.
func (p *Pool) takeLocked(addr int64, owner uint64) *Entry {
	e, ok := p.spare.Take()
	if ok {
		*e = Entry{Data: e.Data, gen: e.gen}
	} else {
		e = p.newEntry()
	}
	e.Addr, e.Owner, e.resident = addr, owner, true
	p.pinLocked(e)
	p.entries[addr] = e
	p.pushFrontLocked(e)
	p.addOwnerLocked(e)
	return e
}

// newEntry returns an entry with a zeroed block of the pool's size.
func (p *Pool) newEntry() *Entry {
	switch p.blockSize {
	case len(pageEntry{}.block):
		pe := new(pageEntry)
		pe.Data = pe.block[:]
		return &pe.Entry
	case len(sectorEntry{}.block):
		se := new(sectorEntry)
		se.Data = se.block[:]
		return &se.Entry
	}
	return &Entry{Data: make([]byte, p.blockSize)}
}

// Flusher writes the dirty victims of one insert to stable storage
// (log first, then blocks) and marks clean what it wrote. It is called
// with the pool lock NOT held, and may reorder its slice but not
// overwrite it: the pool unpins what the slice holds once it returns.
type Flusher func([]*Entry) error

// Pool is a fixed-capacity block cache. Resident entries are on a ring
// through lru, most recently used first; a dirty victim stays in
// entries, off the ring, until its flusher has returned.
type Pool struct {
	blockSize int
	capacity  int
	flusher   Flusher

	mu      sync.Mutex
	entries map[int64]*Entry
	lru     Entry // ring sentinel: next = most recent, prev = eviction victim
	onRing  int   // entries on the ring: what capacity bounds
	// byOwner holds, per lock, the head of the list of the entries it
	// covers, linked through the entries themselves; an owner leaves the
	// map with its last entry.
	byOwner map[uint64]*Entry
	// spare holds dropped entries that nobody holds, for inserts to take
	// before they allocate; at most capacity of them.
	spare  reuse.List[*Entry]
	pinned int // pins held on the pool's entries, resident or not

	hits, misses, evictions *obs.Counter
}

// NewPool creates a cache holding up to capacity blocks of blockSize
// bytes. Counters start standalone; SetObs repoints them at a
// registry.
func NewPool(blockSize, capacity int) *Pool {
	p := &Pool{
		blockSize: blockSize,
		capacity:  capacity,
		entries:   make(map[int64]*Entry),
		byOwner:   make(map[uint64]*Entry),
		hits:      obs.NewCounter(),
		misses:    obs.NewCounter(),
		evictions: obs.NewCounter(),
	}
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	return p
}

// unlinkLocked takes e off the ring, if it is on it.
func (p *Pool) unlinkLocked(e *Entry) {
	if e.prev == nil {
		return
	}
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	p.onRing--
}

// pushFrontLocked makes e, which is off the ring, the most recent.
func (p *Pool) pushFrontLocked(e *Entry) {
	e.prev, e.next = &p.lru, p.lru.next
	e.prev.next, e.next.prev = e, e
	p.onRing++
}

// pushBackLocked makes e, which is off the ring, the least recent: the
// next victim.
func (p *Pool) pushBackLocked(e *Entry) {
	e.prev, e.next = p.lru.prev, &p.lru
	e.prev.next, e.next.prev = e, e
	p.onRing++
}

// SetObs attaches the pool's counters to a registry under
// "cache.<metric>#<instance>". Call before concurrent use; a nil
// registry keeps the standalone counters.
func (p *Pool) SetObs(reg *obs.Registry, instance string) {
	if reg == nil {
		return
	}
	p.mu.Lock()
	p.hits = reg.Counter("cache.hits#" + instance)
	p.misses = reg.Counter("cache.misses#" + instance)
	p.evictions = reg.Counter("cache.evictions#" + instance)
	p.mu.Unlock()
}

// SetFlusher installs the dirty-eviction write-back.
func (p *Pool) SetFlusher(f Flusher) {
	p.mu.Lock()
	p.flusher = f
	p.mu.Unlock()
}

// BlockSize returns the pool's block size.
func (p *Pool) BlockSize() int { return p.blockSize }

// Capacity returns the pool's entry capacity.
func (p *Pool) Capacity() int { return p.capacity }

// Usage reports occupancy for health probing: resident entries and
// how many of them are dirty.
func (p *Pool) Usage() (resident, dirty int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.entries {
		if e.Dirty {
			dirty++
		}
	}
	return len(p.entries), dirty
}

// Lookup returns the cached entry for addr, if present, pinned and
// bumped in the LRU order. It is the demand lookup: the hit and miss
// counters count these calls and nothing else, so their ratio says how
// often whoever needed a block found it here.
func (p *Pool) Lookup(addr int64) (*Entry, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[addr]
	if ok {
		p.unlinkLocked(e)
		p.pushFrontLocked(e)
		p.pinLocked(e)
		p.hits.Inc()
	} else {
		p.misses.Inc()
	}
	return e, ok
}

// Peek is Lookup for the owner's checks on its own work — is a block it
// is about to fetch, or has just fetched, already here? Nobody is
// waiting for the block, so Peek counts nothing and leaves the LRU order
// alone. A hit is pinned, as Lookup's is.
func (p *Pool) Peek(addr int64) (*Entry, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[addr]
	if ok {
		p.pinLocked(e)
	}
	return e, ok
}

// Contains reports whether a block is cached at addr, and hands nothing
// out: for a predicate that only asks whether to fetch it.
func (p *Pool) Contains(addr int64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.entries[addr]
	return ok
}

// Pin pins entries the caller holds pinned already, for a holder that
// outlives the caller's own hold (a write-back flight).
func (p *Pool) Pin(es ...*Entry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range es {
		p.pinLocked(e)
	}
}

// Unpin releases one pin on each of es that is not nil. An entry that
// the pool has dropped goes on the spare list once its last pin is gone.
// Unpinning an entry nobody holds is a bug that would hand a block to two
// addresses, and panics.
func (p *Pool) Unpin(es ...*Entry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.unpinLocked(es)
}

// UnpinBehind is Unpin for a sequential reader that has read es, in file
// order, and gone past them: each on the LRU ring moves to its tail, so
// they are evicted before every page the reader has not come to yet
// (drop-behind). Within one call they go in file order, the first of es
// first; a later call's pages go before an earlier one's.
func (p *Pool) UnpinBehind(es ...*Entry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(es) - 1; i >= 0; i-- {
		if e := es[i]; e != nil && e.prev != nil {
			p.unlinkLocked(e)
			p.pushBackLocked(e)
		}
	}
	p.unpinLocked(es)
}

func (p *Pool) unpinLocked(es []*Entry) {
	for _, e := range es {
		if e == nil {
			continue
		}
		if e.pins <= 0 {
			panic("cache: Unpin of an entry nobody holds")
		}
		e.pins--
		p.pinned--
		if e.pins == 0 && !e.resident {
			p.spareLocked(e)
		}
	}
}

// Pinned returns the pins held on the pool's entries: what a holder
// that forgot to unpin leaves behind.
func (p *Pool) Pinned() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pinned
}

func (p *Pool) pinLocked(e *Entry) {
	e.pins++
	p.pinned++
}

// spareLocked keeps e, which nobody holds and the pool has dropped, for
// a later insert, unless the spare list is full.
func (p *Pool) spareLocked(e *Entry) {
	if p.spare.Len() < p.capacity {
		p.spare.Put(e)
	}
}

// forgetLocked marks e, which the pool has just taken out of its map,
// dropped, and spares it if nobody holds it.
func (p *Pool) forgetLocked(e *Entry) {
	e.resident = false
	if e.pins == 0 {
		p.spareLocked(e)
	}
}

// Insert adds (or replaces) the entry for addr with the given data
// and owner, evicting if needed, and returns it pinned. A nil data is a
// block of zeros.
func (p *Pool) Insert(addr int64, data []byte, owner uint64) *Entry {
	p.mu.Lock()
	if e, ok := p.entries[addr]; ok {
		if data == nil {
			clear(e.Data)
		} else {
			copy(e.Data, data)
		}
		p.setOwnerLocked(e, owner)
		p.unlinkLocked(e)
		p.pushFrontLocked(e)
		p.pinLocked(e)
		p.mu.Unlock()
		return e
	}
	victims := p.collectVictimsLocked(p.capacity - 1)
	e := p.takeLocked(addr, owner)
	clear(e.Data[copy(e.Data, data):])
	p.mu.Unlock()
	p.flushVictims(victims)
	return e
}

// Fill is the insert of a block just read from storage: it adds the
// entry for addr with a copy of data and owner unless one is resident,
// and then returns the resident entry untouched — whoever put it there
// (a concurrent fill of the same block, or a writer that has dirtied it)
// may be reading or changing it, and its bytes are at least as new.
// inserted reports which. A fill is not a demand lookup: it counts
// nothing and leaves a resident entry's place in the LRU order alone.
// Either way the entry it returns is pinned.
func (p *Pool) Fill(addr int64, data []byte, owner uint64) (e *Entry, inserted bool) {
	p.mu.Lock()
	if e, ok := p.entries[addr]; ok {
		p.pinLocked(e)
		p.mu.Unlock()
		return e, false
	}
	victims := p.collectVictimsLocked(p.capacity - 1)
	e = p.takeLocked(addr, owner)
	clear(e.Data[copy(e.Data, data):])
	p.mu.Unlock()
	p.flushVictims(victims)
	return e, true
}

// Own puts the block cached at addr, if there is one, under owner, dirty
// or not: for a block that passes from one lock's protection to
// another's, so that the new lock's revoke is the one that writes it
// back and drops it.
func (p *Pool) Own(addr int64, owner uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.entries[addr]; ok {
		p.setOwnerLocked(e, owner)
	}
}

func (p *Pool) setOwnerLocked(e *Entry, owner uint64) {
	if e.Owner == owner {
		return
	}
	p.removeOwnerLocked(e)
	e.Owner = owner
	p.addOwnerLocked(e)
}

// addOwnerLocked puts e at the head of its owner's list, unless it is on
// it already.
func (p *Pool) addOwnerLocked(e *Entry) {
	if e.indexed {
		return
	}
	head := p.byOwner[e.Owner]
	e.ownPrev, e.ownNext, e.indexed = nil, head, true
	if head != nil {
		head.ownPrev = e
	}
	p.byOwner[e.Owner] = e
}

// removeOwnerLocked takes e off its owner's list, if it is on it.
func (p *Pool) removeOwnerLocked(e *Entry) {
	if !e.indexed {
		return
	}
	if e.ownNext != nil {
		e.ownNext.ownPrev = e.ownPrev
	}
	switch {
	case e.ownPrev != nil:
		e.ownPrev.ownNext = e.ownNext
	case e.ownNext != nil:
		p.byOwner[e.Owner] = e.ownNext
	default:
		delete(p.byOwner, e.Owner)
	}
	e.ownPrev, e.ownNext, e.indexed = nil, nil, false
}

// collectVictimsLocked trims the ring to limit entries (capacity, or
// one less before an insert takes an entry), dropping clean victims —
// onto the spare list, unless someone holds them — and returning dirty
// ones, pinned, which stay resident off the ring — a lookup still finds
// their bytes, the newest there are, and the lock that covers them still
// counts them dirty — until they are written.
func (p *Pool) collectVictimsLocked(limit int) []*Entry {
	var dirty []*Entry
	for p.onRing > limit && p.onRing > 0 {
		e := p.lru.prev
		p.unlinkLocked(e)
		if e.Dirty {
			p.pinLocked(e)
			dirty = append(dirty, e)
			continue
		}
		p.dropLocked(e)
	}
	return dirty
}

// dropLocked evicts e, which is off the ring.
func (p *Pool) dropLocked(e *Entry) {
	delete(p.entries, e.Addr)
	p.removeOwnerLocked(e)
	p.forgetLocked(e)
	p.evictions.Inc()
}

// flushVictims writes the dirty victims back with one flusher call and
// then drops those that are clean and nobody touched meanwhile, and
// unpins them all. One that is still dirty (its write-back failed) goes
// back on the ring: a dirty block leaves only by being written.
func (p *Pool) flushVictims(victims []*Entry) {
	if len(victims) == 0 {
		return
	}
	p.mu.Lock()
	f := p.flusher
	p.mu.Unlock()
	if f != nil {
		_ = f(victims)
	}
	p.mu.Lock()
	for _, e := range victims {
		switch {
		case e.prev != nil || p.entries[e.Addr] != e: // used again, or invalidated
		case e.Dirty:
			p.pushFrontLocked(e)
		default:
			p.dropLocked(e)
		}
	}
	p.mu.Unlock()
	p.Unpin(victims...)
}

// MarkDirty flags the entry and records the covering log sequence. An
// entry evicted since its owner was handed it (by Lookup or Insert) is
// admitted again, in place of any copy fetched meanwhile: the caller
// holds the covering lock, so its bytes are the newest, and a dirty
// entry that no pool holds would never be written back. A victim on its
// way out is in use again, and back on the ring. The caller must hold e
// pinned: an entry nobody holds may be another block's already, and
// MarkDirty of one panics.
func (p *Pool) MarkDirty(e *Entry, seq int64) { p.markDirty(e, seq, false) }

// MarkDirtyJoint is MarkDirty for a record at seq that changed other
// blocks too: it is e's Joint as well.
func (p *Pool) MarkDirtyJoint(e *Entry, seq int64) { p.markDirty(e, seq, true) }

func (p *Pool) markDirty(e *Entry, seq int64, joint bool) {
	p.mu.Lock()
	if e.pins <= 0 {
		p.mu.Unlock()
		panic("cache: MarkDirty of an entry nobody holds")
	}
	if !e.Dirty {
		e.First = seq
	}
	e.Dirty = true
	e.gen++
	if seq > e.Seq {
		e.Seq = seq
	}
	if joint && seq > e.Joint {
		e.Joint = seq
	}
	var victims []*Entry
	if e.prev == nil {
		if old, ok := p.entries[e.Addr]; ok && old != e {
			p.unlinkLocked(old)
			p.removeOwnerLocked(old)
			p.forgetLocked(old)
		}
		p.entries[e.Addr] = e
		e.resident = true
		p.pushFrontLocked(e)
		p.addOwnerLocked(e)
		victims = p.collectVictimsLocked(p.capacity)
	}
	p.mu.Unlock()
	p.flushVictims(victims)
}

// SnapshotBatch copies each entry's block into buf (which must hold
// len(es) blocks) and its dirty generation into gens (which must hold
// len(es)), all under one lock acquisition. Owners mutate Data through
// Mutate, so a flusher snapshot never observes a torn concurrent update.
func (p *Pool) SnapshotBatch(es []*Entry, buf []byte, gens []int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, e := range es {
		gens[i] = e.gen
		copy(buf[i*p.blockSize:], e.Data)
	}
}

// Mutate runs fn under the pool lock. Owners use it for in-place
// Data writes so flusher snapshots are properly ordered with respect
// to them; fn must not call back into the pool.
func (p *Pool) Mutate(fn func()) {
	p.mu.Lock()
	fn()
	p.mu.Unlock()
}

// CopyOut copies into dst the bytes of e, which the caller holds, from
// off on, under the pool lock: a reader that shares a block with a writer
// on its server sees each Mutate of it whole or not at all. It returns
// the bytes copied.
func (p *Pool) CopyOut(dst []byte, e *Entry, off int) int {
	p.mu.Lock()
	n := copy(dst, e.Data[off:])
	p.mu.Unlock()
	return n
}

// MarkCleanIfBatch clears the dirty flag of every entry whose
// generation still matches the flusher's snapshot, with one lock
// acquisition. Entries re-dirtied since keep their flag.
func (p *Pool) MarkCleanIfBatch(es []*Entry, gens []int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, e := range es {
		if e.gen == gens[i] {
			e.Dirty = false
		}
	}
}

// DirtyByOwner appends to dst the dirty entries covered by a lock,
// pinned, and returns it: a caller that keeps its list from call to call
// allocates nothing.
func (p *Pool) DirtyByOwner(dst []*Entry, owner uint64) []*Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	for e := p.byOwner[owner]; e != nil; e = e.ownNext {
		if e.Dirty {
			p.pinLocked(e)
			dst = append(dst, e)
		}
	}
	return dst
}

// AllDirty returns every dirty entry, pinned (sync demon sweep).
func (p *Pool) AllDirty() []*Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*Entry
	for _, e := range p.entries {
		if e.Dirty {
			p.pinLocked(e)
			out = append(out, e)
		}
	}
	return out
}

// DirtyThrough returns the dirty entries that hold an update logged at
// or before seq, pinned: what has to be written back before the log can
// be released through seq. An entry's newest sequence does not say — a
// block updated by every record would never qualify.
func (p *Pool) DirtyThrough(seq int64) []*Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*Entry
	for _, e := range p.entries {
		if e.Dirty && e.First <= seq {
			p.pinLocked(e)
			out = append(out, e)
		}
	}
	return out
}

// InvalidateByOwner drops all entries covered by a lock (which must
// have been flushed already if their contents still matter: a dropped
// entry is no longer dirty, so a flusher that still holds it leaves it
// alone).
func (p *Pool) InvalidateByOwner(owner uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for e := p.byOwner[owner]; e != nil; {
		next := e.ownNext
		p.unlinkLocked(e)
		e.Dirty = false
		e.ownPrev, e.ownNext, e.indexed = nil, nil, false
		if p.entries[e.Addr] == e {
			delete(p.entries, e.Addr)
			p.forgetLocked(e)
		}
		e = next
	}
	delete(p.byOwner, owner)
}

// Invalidate drops one entry by address, regardless of dirtiness.
func (p *Pool) Invalidate(addr int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.entries[addr]; ok {
		delete(p.entries, addr)
		p.unlinkLocked(e)
		p.removeOwnerLocked(e)
		e.Dirty = false
		p.forgetLocked(e)
	}
}

// InvalidateAll empties the cache (lease loss: "the server discards
// all its locks and the data in its cache").
func (p *Pool) InvalidateAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.entries {
		e.ownPrev, e.ownNext, e.indexed = nil, nil, false
		p.forgetLocked(e)
	}
	p.entries = make(map[int64]*Entry)
	p.byOwner = make(map[uint64]*Entry)
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	p.onRing = 0
}

// HasDirty reports whether any entry is dirty.
func (p *Pool) HasDirty() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.entries {
		if e.Dirty {
			return true
		}
	}
	return false
}

// Len returns the number of cached entries.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// MaxSeq returns the highest covering log sequence across the entries
// and the highest of their Joint sequences, read with one lock
// acquisition.
func (p *Pool) MaxSeq(es []*Entry) (seq, joint int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range es {
		seq, joint = max(seq, e.Seq), max(joint, e.Joint)
	}
	return seq, joint
}

// Newer counts the entries of es whose covering log sequence is past
// seq.
func (p *Pool) Newer(es []*Entry, seq int64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, e := range es {
		if e.Seq > seq {
			n++
		}
	}
	return n
}
