package fs

import (
	"sync"

	"frangipani/internal/cache"
	"frangipani/internal/reuse"
)

// block is what the gate is asked to fetch: a metadata sector or a data
// page, by address, with the pool it is cached in and the lock that
// covers it. The block is cached under that lock, and a revoke of the
// lock invalidates it.
type block struct {
	addr  int64
	owner uint64
	pool  *cache.Pool
}

// claim is one fetch of blocks from Petal or one flight of blocks to it
// (a write-back), from the gate's grant to its release, with room for a
// flight of a chunk's pages or a prefetch of a chunk's blocks. Claims come
// from the gate's free list and go back to it once nobody holds them:
// the claimer holds its claim until release, and each joiner (a fetch or
// a flight that waits for it, awaitFlights) from the join until its wait
// has returned and read the error. Until then the latch is not re-armed
// and the error not overwritten, so a joiner never waits for, or reads
// the error of, a later use of the claim.
type claim struct {
	flight bool           // a write-back, not a fetch
	behind bool           // a write-behind flight, counted in gate.behind
	done   sync.WaitGroup // the latch: done once the claim has ended
	err    error          // how it ended; set before done
	g      *gate          // whose free list it goes back to
	// holders counts the claimer, until release, and the joiners, until
	// their wait has returned; under g.mu.
	holders int
	// entries are a flight's blocks of pool, which stay dirty until it has
	// ended and pinned until release has read their addresses.
	entries []*cache.Entry
	pool    *cache.Pool
	room    [chunkPages]*cache.Entry
	// A claim that outlives the call that made it — a write-behind flight
	// (FS.flushBehind), a prefetch (File.prefetch) — is a background job on
	// the server's workers (claim.Run), and these are its state: the view
	// that runs it, a prefetch's stream and its blocks, in fetchRoom.
	fs        *FS
	ra        *stream
	fetched   []block
	fetchRoom [chunkPages]block
}

// newClaimLocked takes a claim from the free list, or makes one, armed
// and held by its claimer.
func (g *gate) newClaimLocked(flight bool) *claim {
	c, ok := g.free.Take()
	if !ok {
		c = &claim{g: g}
		c.entries = c.room[:0]
	}
	c.flight, c.holders = flight, 1
	c.done.Add(1)
	return c
}

// joinLocked appends c to cs, as a claim its caller will wait for, unless
// it is there already.
func (g *gate) joinLocked(cs []*claim, c *claim) []*claim {
	for _, have := range cs {
		if have == c {
			return cs
		}
	}
	c.holders++
	return append(cs, c)
}

// dropLocked lets go of one hold of c; the last one puts it back on the
// free list, emptied. Every wait on its latch has returned by then.
func (g *gate) dropLocked(c *claim) {
	if c.holders--; c.holders > 0 {
		return
	}
	clear(c.room[:])
	clear(c.fetchRoom[:])
	c.flight, c.behind, c.err, c.pool, c.fs, c.ra = false, false, nil, nil, nil, nil
	c.entries, c.fetched = c.room[:0], nil
	g.free.Put(c)
}

// wait blocks until c has ended and returns its error. It lets go of the
// caller's hold, taken when it joined c: c is not the caller's to read
// after.
func (c *claim) wait() error {
	c.done.Wait()
	err := c.err
	g := c.g
	g.mu.Lock()
	g.dropLocked(c)
	g.mu.Unlock()
	return err
}

// leave lets go of the holds on cs of a caller that joined them and will
// not wait (a prefetch: a chunk another fetch has claimed is not its
// business).
func (g *gate) leave(cs []*claim) {
	if len(cs) == 0 {
		return
	}
	g.mu.Lock()
	for _, c := range cs {
		g.dropLocked(c)
	}
	g.mu.Unlock()
}

// gate is the single-flight gate every block of both pools passes, on its
// way in from Petal (a fetch) and out to it (a flight): one table, keyed
// by address, of the claim each block is under. A sector and a page never
// share an address, since Layout.MetaSmallBoundary keeps directory blocks
// apart from file blocks. When two claims meet on a block:
//
//   - Fetch meets fetch: the second joins the first.
//   - Fetch meets flight: a flight claims only a resident dirty block,
//     and the block stays resident until the flight has ended (a pool
//     keeps its dirty victims until they are written), so it counts as
//     cached and the fetch does not wait. If it was invalidated since —
//     destroyInode and Truncate invalidate before they await the
//     flights — the fetch waits for the flight, then fetches: a fetch
//     never goes out beside a write of the same block.
//   - Flight meets flight: the second joins the first.
//   - Flight meets fetch: the flight takes the entry over. A whole-page
//     write can dirty a page that a prefetch, which runs without the
//     lock, still has claimed; the fetch's Fill keeps the written page,
//     and its release leaves the flight's entry alone.
//
// The gate has no clock and does no I/O: FS makes the Petal calls.
type gate struct {
	mu     sync.Mutex
	claims map[int64]*claim
	behind int                // write-behind flights out
	free   reuse.List[*claim] // claims nobody holds, to be taken again
}

// claimFetch claims, for one fetch, the blocks of blocks that are neither
// cached nor claimed, appended to mine (which may be blocks[:0]: they are
// filtered in place), and appends to theirs, once each, the claims that
// hold the others and must be waited for. c is nil if it claimed nothing.
// The cache is consulted under the gate's lock, and a fetch enters its
// blocks before it releases them, so a block is never seen as neither
// cached nor claimed while a fetch of it is landing.
func (g *gate) claimFetch(blocks, mine []block, theirs []*claim) (c *claim, _ []block, _ []*claim) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, b := range blocks {
		other, busy := g.claims[b.addr]
		hit := b.pool.Contains(b.addr)
		switch {
		case busy && (!other.flight || !hit):
			theirs = g.joinLocked(theirs, other)
		case !busy && !hit:
			if c == nil {
				c = g.newClaimLocked(false)
			}
			g.claims[b.addr] = c
			mine = append(mine, b)
		}
	}
	return c, mine, theirs
}

// claimFlight claims, for one flight, those of es, blocks of pool, that
// are dirty and in no flight, and returns the others that some flight
// carries (joined, moved to the front of es, which it reorders) with those
// flights (appended to theirs, once each). fl is nil if it claimed
// nothing. Dirtiness is read under the gate's lock: a flight marks its
// blocks clean before it is released, so a block is never seen as
// neither claimed nor clean while a write of it is landing, and a block
// that is claimed stays dirty, and so visible to whoever must wait for
// it, until it has landed. The caller holds es pinned; the flight pins
// what it claims for itself, since it may outlive the caller's hold, and
// release unpins it. With limit > 0 the flight is a write-behind
// flight, which counts as out until it is released, and while limit of
// them are out nothing is claimed (ok false).
func (g *gate) claimFlight(pool *cache.Pool, es []*cache.Entry, theirs []*claim, limit int) (fl *claim, _ []*claim, joined []*cache.Entry, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	joined = es[:0]
	if limit > 0 && g.behind >= limit {
		return nil, theirs, joined, false
	}
	pool.Mutate(func() {
		for i, e := range es {
			if other, busy := g.claims[e.Addr]; busy && other.flight {
				theirs = g.joinLocked(theirs, other)
				// Moved to the front, not copied over it: es keeps every
				// entry the caller has to unpin.
				es[i], es[len(joined)] = es[len(joined)], e
				joined = joined[:len(joined)+1]
			} else if e.Dirty {
				if fl == nil {
					fl = g.newClaimLocked(true)
				}
				g.claims[e.Addr] = fl
				fl.entries = append(fl.entries, e)
			}
		}
	})
	if fl != nil {
		fl.pool = pool
		pool.Pin(fl.entries...)
		if limit > 0 {
			fl.behind = true
			g.behind++
		}
	}
	return fl, theirs, joined, true
}

// release ends c, the claim of a fetch of mine or of a flight of its
// entries: each of those blocks whose entry is still c leaves the table
// (a flight may have taken a fetch's over), c takes err, whoever waits
// for c wakes up, and the claimer's hold is let go of: c is not the
// caller's to read after. A flight's entries are unpinned only once
// their addresses have been read: an entry reused for another block
// before that would leave the claim in the table at an address nobody
// releases.
func (g *gate) release(c *claim, mine []block, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, b := range mine {
		if g.claims[b.addr] == c {
			delete(g.claims, b.addr)
		}
	}
	for _, e := range c.entries {
		if g.claims[e.Addr] == c {
			delete(g.claims, e.Addr)
		}
	}
	if c.behind {
		g.behind--
	}
	if c.pool != nil {
		c.pool.Unpin(c.entries...)
	}
	c.err = err
	c.done.Done()
	g.dropLocked(c)
}

// awaitFlights waits until every flight that carries a block at an
// address carries reports, of those out when it is called, has landed.
func (g *gate) awaitFlights(carries func(addr int64) bool) {
	var room [4]*claim // stack scratch: the flights of one file are few
	wait := room[:0]
	g.mu.Lock()
	for addr, c := range g.claims {
		if c.flight && carries(addr) {
			wait = g.joinLocked(wait, c)
		}
	}
	g.mu.Unlock()
	for _, c := range wait {
		_ = c.wait()
	}
}
