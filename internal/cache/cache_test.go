package cache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"frangipani/internal/reuse"
)

func TestLookupInsert(t *testing.T) {
	p := NewPool(512, 16)
	if _, ok := p.Lookup(0); ok {
		t.Fatal("lookup hit on empty pool")
	}
	data := make([]byte, 512)
	data[0] = 42
	e := p.Insert(1024, data, 7)
	got, ok := p.Lookup(1024)
	if !ok || got != e || got.Data[0] != 42 {
		t.Fatal("insert/lookup mismatch")
	}
	hits, misses := p.hits.Value(), p.misses.Value()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestFillKeepsResident: a fill inserts a missing block, and leaves a
// resident one — its bytes, its dirty state and its owner — as it is.
func TestFillKeepsResident(t *testing.T) {
	p := NewPool(512, 16)
	data := make([]byte, 512)
	data[0] = 1
	e, inserted := p.Fill(1024, data, 7)
	if !inserted || e.Data[0] != 1 || e.Owner != 7 {
		t.Fatalf("fill of a missing block: inserted=%v data[0]=%d owner=%d", inserted, e.Data[0], e.Owner)
	}
	p.Mutate(func() { e.Data[0] = 2 })
	p.MarkDirty(e, 3)
	data[0] = 9
	again, inserted := p.Fill(1024, data, 8)
	if inserted || again != e || e.Data[0] != 2 || !e.Dirty || e.Owner != 7 {
		t.Fatalf("fill over a resident block: inserted=%v same=%v data[0]=%d dirty=%v owner=%d",
			inserted, again == e, e.Data[0], e.Dirty, e.Owner)
	}
	if hits, misses := p.hits.Value(), p.misses.Value(); hits != 0 || misses != 0 {
		t.Fatalf("fills counted %d hits and %d misses, want none", hits, misses)
	}
}

func TestLRUEvictionPrefersOld(t *testing.T) {
	p := NewPool(512, 4)
	buf := make([]byte, 512)
	for i := int64(0); i < 4; i++ {
		p.Insert(i*512, buf, 1)
	}
	p.Lookup(0) // freshen addr 0
	p.Insert(4*512, buf, 1)
	if _, ok := p.Lookup(0); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := p.Lookup(512); ok {
		t.Fatal("LRU entry survived over-capacity insert")
	}
	if p.Len() != 4 {
		t.Fatalf("len=%d, want 4", p.Len())
	}
}

// TestUnpinBehindMakesNextVictims: the pages a sequential reader lets go
// of with UnpinBehind are the next victims, however recently they were
// looked up: one call's in the order it read them, the later call's
// before the earlier's, and then the others in their LRU order.
func TestUnpinBehindMakesNextVictims(t *testing.T) {
	p := NewPool(512, 6)
	buf := make([]byte, 512)
	for i := int64(0); i < 6; i++ {
		p.Unpin(p.Insert(i*512, buf, 1))
	}
	a, _ := p.Lookup(2 * 512)
	b, _ := p.Lookup(3 * 512)
	p.UnpinBehind(a, b)
	c, _ := p.Lookup(5 * 512)
	p.UnpinBehind(c)
	if n := p.Pinned(); n != 0 {
		t.Fatalf("%d pins left, want 0", n)
	}
	for i, want := range []int64{5, 2, 3, 0, 1, 4} {
		p.Unpin(p.Insert(int64(10+i)*512, buf, 1))
		if p.Contains(want * 512) {
			t.Fatalf("insert %d: block %d survived, want it evicted next", i, want)
		}
	}
}

func TestDirtyEvictionFlushes(t *testing.T) {
	p := NewPool(512, 2)
	var mu sync.Mutex
	var flushed []int64
	p.SetFlusher(func(es []*Entry) error {
		mu.Lock()
		for _, e := range es {
			flushed = append(flushed, e.Addr)
		}
		mu.Unlock()
		return nil
	})
	buf := make([]byte, 512)
	e0 := p.Insert(0, buf, 1)
	p.MarkDirty(e0, 5)
	p.Insert(512, buf, 1)
	p.Insert(1024, buf, 1) // evicts addr 0, which is dirty
	mu.Lock()
	defer mu.Unlock()
	if len(flushed) != 1 || flushed[0] != 0 {
		t.Fatalf("flushed = %v, want [0]", flushed)
	}
}

func TestOwnerIndex(t *testing.T) {
	p := NewPool(512, 64)
	buf := make([]byte, 512)
	for i := int64(0); i < 6; i++ {
		owner := uint64(i % 2)
		e := p.Insert(i*512, buf, owner)
		if i%3 == 0 {
			p.MarkDirty(e, i)
		}
	}
	d0 := p.DirtyByOwner(nil, 0) // addrs 0 (i=0) dirty? i=0 owner 0 dirty; i=3 owner 1 dirty
	if len(d0) != 1 || d0[0].Addr != 0 {
		t.Fatalf("owner 0 dirty = %v", d0)
	}
	d1 := p.DirtyByOwner(nil, 1)
	if len(d1) != 1 || d1[0].Addr != 3*512 {
		t.Fatalf("owner 1 dirty = %v", d1)
	}
	p.InvalidateByOwner(0)
	for i := int64(0); i < 6; i += 2 {
		if _, ok := p.Lookup(i * 512); ok {
			t.Fatalf("owner-0 entry %d survived invalidation", i)
		}
	}
	if _, ok := p.Lookup(512); !ok {
		t.Fatal("owner-1 entry wrongly invalidated")
	}
}

func TestMarkCleanAndSeq(t *testing.T) {
	p := NewPool(512, 4)
	e := p.Insert(0, make([]byte, 512), 1)
	p.MarkDirty(e, 10)
	p.MarkDirty(e, 7) // lower seq must not regress
	if e.Seq != 10 {
		t.Fatalf("seq = %d, want 10", e.Seq)
	}
	if !p.HasDirty() {
		t.Fatal("HasDirty false with dirty entry")
	}
	p.MarkCleanIfBatch([]*Entry{e}, []int64{e.gen})
	if p.HasDirty() {
		t.Fatal("HasDirty true after clean")
	}
}

// TestDirtyThrough: an entry counts from the first record that dirtied
// it since it was last clean, however many newer ones followed, and
// starts over once it has been written back.
func TestDirtyThrough(t *testing.T) {
	p := NewPool(512, 4)
	hot := p.Insert(0, make([]byte, 512), 1)
	late := p.Insert(512, make([]byte, 512), 1)
	p.MarkDirty(hot, 3)
	p.MarkDirty(hot, 9)
	p.MarkDirty(late, 8)
	if got := p.DirtyThrough(5); len(got) != 1 || got[0] != hot {
		t.Fatalf("DirtyThrough(5) = %d entries, want the one first dirtied by record 3", len(got))
	}
	if got := p.DirtyThrough(2); len(got) != 0 {
		t.Fatalf("DirtyThrough(2) = %d entries, want none", len(got))
	}
	p.MarkCleanIfBatch([]*Entry{hot}, []int64{hot.gen})
	p.MarkDirty(hot, 12)
	if got := p.DirtyThrough(9); len(got) != 1 || got[0] != late {
		t.Fatalf("after a write-back DirtyThrough(9) = %d entries, want only the other one", len(got))
	}
}

// TestJointSeq: a block's Joint is the newest record that changed it
// together with another block, however many records that changed it
// alone came after; MaxSeq reports it beside the newest of all, and
// Newer counts the blocks whose newest record is past a mark.
func TestJointSeq(t *testing.T) {
	p := NewPool(512, 4)
	a := p.Insert(0, make([]byte, 512), 1)
	b := p.Insert(512, make([]byte, 512), 1)
	p.MarkDirtyJoint(a, 4)
	p.MarkDirtyJoint(b, 4)
	p.MarkDirty(a, 6)
	p.MarkDirty(b, 5)
	if a.Joint != 4 || a.Seq != 6 {
		t.Fatalf("a: Joint %d Seq %d, want 4 and 6", a.Joint, a.Seq)
	}
	es := []*Entry{a, b}
	if seq, joint := p.MaxSeq(es); seq != 6 || joint != 4 {
		t.Fatalf("MaxSeq = %d, %d; want 6, 4", seq, joint)
	}
	if n := p.Newer(es, 5); n != 1 {
		t.Fatalf("Newer(5) = %d, want 1", n)
	}
	p.Unpin(a, b)
}

func TestInvalidateAll(t *testing.T) {
	p := NewPool(512, 16)
	for i := int64(0); i < 8; i++ {
		p.Insert(i*512, make([]byte, 512), uint64(i))
	}
	p.InvalidateAll()
	if p.Len() != 0 {
		t.Fatalf("len=%d after InvalidateAll", p.Len())
	}
	// Pool still usable.
	p.Insert(0, make([]byte, 512), 1)
	if p.Len() != 1 {
		t.Fatal("pool unusable after InvalidateAll")
	}
}

func TestReInsertChangesOwner(t *testing.T) {
	p := NewPool(512, 8)
	p.Insert(0, make([]byte, 512), 1)
	p.Insert(0, make([]byte, 512), 2)
	if got := p.DirtyByOwner(nil, 1); len(got) != 0 {
		t.Fatal("old owner still indexed")
	}
	e, _ := p.Lookup(0)
	p.MarkDirty(e, 1)
	if got := p.DirtyByOwner(nil, 2); len(got) != 1 {
		t.Fatal("new owner not indexed")
	}
}

// TestOwnMovesEntry: a block put under another owner is that owner's
// to flush and to drop, dirty as it was; the old owner's invalidation
// leaves it.
func TestOwnMovesEntry(t *testing.T) {
	p := NewPool(512, 8)
	e := p.Insert(0, make([]byte, 512), 1)
	p.MarkDirty(e, 1)
	p.Unpin(e)
	p.Own(0, 2)
	p.Own(512, 2) // nothing cached there: nothing to do
	if got := p.DirtyByOwner(nil, 1); len(got) != 0 {
		t.Fatal("old owner still counts the block dirty")
	}
	got := p.DirtyByOwner(nil, 2)
	if len(got) != 1 {
		t.Fatal("new owner does not count the block dirty")
	}
	p.Unpin(got...)
	p.InvalidateByOwner(1)
	if !p.Contains(0) {
		t.Fatal("the old owner's invalidation dropped the block")
	}
	p.InvalidateByOwner(2)
	if p.Contains(0) {
		t.Fatal("the new owner's invalidation left the block")
	}
}

// TestCapacityInvariantProperty: with a flusher that writes its victims
// back, the pool never holds more than its capacity once a call has
// returned. With one that fails, no dirty block is ever dropped, and the
// clean ones still fit in the capacity beside them.
func TestCapacityInvariantProperty(t *testing.T) {
	for _, writes := range []bool{true, false} {
		f := func(ops []uint16) bool {
			p := NewPool(64, 8)
			p.SetFlusher(func(es []*Entry) error {
				if !writes {
					return errors.New("write-back failed")
				}
				for _, e := range es {
					p.MarkCleanIfBatch([]*Entry{e}, []int64{e.gen})
				}
				return nil
			})
			buf := make([]byte, 64)
			dirty := map[int64]bool{} // what nothing could write back
			for _, op := range ops {
				addr := int64(op%32) * 64
				switch op % 3 {
				case 0, 1:
					p.Insert(addr, buf, uint64(op%4))
				case 2:
					if e, ok := p.Lookup(addr); ok {
						p.MarkDirty(e, int64(op))
						if !writes {
							dirty[addr] = true
						}
					}
				}
				for a := range dirty {
					if e, ok := p.Peek(a); !ok || !e.Dirty {
						return false
					}
				}
				if p.Len()-len(dirty) > 8 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("write-back succeeds=%v: %v", writes, err)
		}
	}
}

// TestVictimStaysUntilWritten: a dirty victim is still found — by a
// lookup, and among its lock's dirty entries — while its write-back is
// out, and leaves once that is done; touched meanwhile, it stays.
func TestVictimStaysUntilWritten(t *testing.T) {
	p := NewPool(64, 2)
	var during func()
	p.SetFlusher(func(es []*Entry) error {
		during()
		for _, e := range es {
			p.MarkCleanIfBatch([]*Entry{e}, []int64{e.gen})
		}
		return nil
	})
	victim := p.Insert(0, nil, 7)
	p.MarkDirty(victim, 1)
	p.Insert(64, nil, 1)
	during = func() {
		if e, ok := p.Peek(0); !ok || e != victim {
			t.Error("a victim being written back is not found")
		}
		if d := p.DirtyByOwner(nil, 7); len(d) != 1 || d[0] != victim {
			t.Errorf("DirtyByOwner(nil, 7) = %v while its write-back is out, want the victim", d)
		}
	}
	p.Insert(128, nil, 1) // evicts addr 0
	if _, ok := p.Peek(0); ok || p.Len() != 2 {
		t.Fatalf("after its write-back the victim is still resident (%d entries)", p.Len())
	}

	again := p.Insert(0, nil, 7) // evicts 64, which is clean
	p.MarkDirty(again, 2)
	p.Insert(192, nil, 1) // evicts 128
	during = func() {
		if e, ok := p.Lookup(0); !ok || e != again {
			t.Error("a victim being written back is not found")
		}
	}
	p.Insert(256, nil, 1) // evicts addr 0, which the lookup uses again
	if e, ok := p.Peek(0); !ok || e != again {
		t.Fatal("a victim used again during its write-back was dropped")
	}
}

// TestLRUOrderAgainstModel: whatever mix of inserts, lookups and
// invalidations came before, the pool holds exactly what a list kept in
// recency order would, and evicts from that list's tail.
func TestLRUOrderAgainstModel(t *testing.T) {
	const capacity = 8
	f := func(ops []uint16) bool {
		p := NewPool(64, capacity)
		var model []int64 // most recent first
		drop := func(keep func(addr int64) bool) {
			kept := model[:0]
			for _, a := range model {
				if keep(a) {
					kept = append(kept, a)
				}
			}
			model = kept
		}
		touch := func(addr int64) {
			drop(func(a int64) bool { return a != addr })
			model = append([]int64{addr}, model...)
		}
		owner := func(addr int64) uint64 { return uint64(addr / 64 % 3) }
		for _, op := range ops {
			addr := int64(op%24) * 64
			switch op >> 8 % 8 {
			case 0, 1, 2:
				p.Insert(addr, nil, owner(addr))
				touch(addr)
				if len(model) > capacity {
					model = model[:capacity]
				}
			case 3, 4:
				if _, ok := p.Lookup(addr); ok {
					touch(addr)
				}
			case 5:
				p.Invalidate(addr)
				drop(func(a int64) bool { return a != addr })
			case 6:
				p.InvalidateByOwner(owner(addr))
				drop(func(a int64) bool { return owner(a) != owner(addr) })
			case 7:
				if op%16 == 0 {
					p.InvalidateAll()
					model = model[:0]
				}
			}
			if p.Len() != len(model) {
				return false
			}
			for _, a := range model {
				if _, ok := p.Peek(a); !ok {
					return false
				}
			}
			// The ring is the model, front to back and back to front.
			e := p.lru.next
			for _, a := range model {
				if e.Addr != a || e.next.prev != e {
					return false
				}
				e = e.next
			}
			if e != &p.lru {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestInsertNilIsZeros: a nil block inserts as zeros, over a resident
// block's old bytes too.
func TestInsertNilIsZeros(t *testing.T) {
	p := NewPool(64, 4)
	e := p.Insert(0, nil, 1)
	if len(e.Data) != 64 {
		t.Fatalf("a nil insert made a block of %d bytes", len(e.Data))
	}
	e.Data[5] = 9
	if again := p.Insert(0, nil, 1); again != e || e.Data[5] != 0 {
		t.Fatalf("a nil insert over a resident block left byte 5 at %d", e.Data[5])
	}
}

// TestInsertEvictAllocs: an insert into a full pool whose victim nobody
// holds allocates nothing: it takes the entry it evicted. While a holder
// pins the victim it is one object, the entry with its page in it, and
// nothing for the LRU's bookkeeping (the benchmark's drive,
// cache.insert_evict_allocs, never unpins). It was 1 for every insert
// while an evicted entry was left to the collector, and 2 while the page
// was an allocation of its own. A metadata sector counts the same.
func TestInsertEvictAllocs(t *testing.T) {
	for _, size := range []int64{4096, 512} {
		for _, c := range []struct {
			unpin bool
			want  float64
		}{{true, 0}, {false, 1}} {
			const capacity = 256
			p := NewPool(int(size), capacity)
			block := make([]byte, size)
			next := int64(0)
			insert := func() {
				e := p.Insert(next*size, block, 1)
				if c.unpin {
					p.Unpin(e)
				}
				next++
			}
			for next < 2*capacity { // warm: the maps have seen their full size
				insert()
			}
			if n := testing.AllocsPerRun(1000, insert); n != c.want {
				t.Fatalf("Insert of a %d-byte block with an eviction (unpinned: %v) allocates %v times, want %v", size, c.unpin, n, c.want)
			}
		}
	}
}

// TestMarkDirtyReadmitsEvicted: a writer that looked its page up and
// lost it to an eviction before MarkDirty still has its write kept. The
// entry comes back into the pool, in place of a copy fetched meanwhile,
// and is listed for write-back; otherwise the write went into an entry
// that nothing would ever flush.
func TestMarkDirtyReadmitsEvicted(t *testing.T) {
	p := NewPool(64, 2)
	var flushed []int64
	p.SetFlusher(func(es []*Entry) error {
		for _, e := range es {
			flushed = append(flushed, e.Addr)
		}
		return nil
	})
	mine := p.Insert(0, nil, 7)
	p.Insert(64, nil, 1)
	p.Insert(128, nil, 1) // evicts addr 0: the writer's entry is nobody's now
	if _, ok := p.Peek(0); ok {
		t.Fatal("addr 0 survived an over-capacity insert")
	}
	stale := p.Insert(0, nil, 7) // a copy fetched meanwhile, evicting 64
	mine.Data[3] = 0xAB          // the write, under the covering lock
	p.MarkDirty(mine, 5)

	got, ok := p.Lookup(0)
	if !ok || got != mine || got.Data[3] != 0xAB {
		t.Fatalf("after MarkDirty Lookup(0) = %p (hit %v), want the writer's entry %p with its bytes", got, ok, mine)
	}
	if got == stale {
		t.Fatal("the copy fetched meanwhile was kept over the write")
	}
	if d := p.DirtyByOwner(nil, 7); len(d) != 1 || d[0] != mine {
		t.Fatalf("DirtyByOwner(nil, 7) = %v, want the writer's entry", d)
	}
	if p.Len() > 2 {
		t.Fatalf("%d entries in a pool of 2", p.Len())
	}
	if len(flushed) != 0 {
		t.Fatalf("flushed %v: nothing but the writer's entry was dirty", flushed)
	}
}

// BenchmarkInsertEvict is the host-time cost of an insert into a full
// pool, which evicts the least recently used page.
func BenchmarkInsertEvict(b *testing.B) {
	const capacity = 1024
	p := NewPool(4096, capacity)
	page := make([]byte, 4096)
	for i := int64(0); i < capacity; i++ {
		p.Insert(i*4096, page, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Insert(int64(capacity+i)*4096, page, 1)
	}
}

// TestOwnerIndexMatchesScan: a seeded random run of inserts, fills,
// MarkDirty calls (on resident entries, on evicted ones, which they admit
// again, and on victims whose write-back is out), owner changes, evictions, Invalidate, InvalidateByOwner
// and InvalidateAll, with a flusher that writes back some of its victims.
// After every step each owner's list holds exactly the resident entries
// it covers, linked both ways, and DirtyByOwner returns exactly the dirty
// ones — what a scan of all the entries finds.
func TestOwnerIndexMatchesScan(t *testing.T) {
	const owners, addrs = 4, 16
	p := NewPool(512, 6)
	rng := rand.New(rand.NewSource(1))
	seq := int64(0)
	// The flusher writes back some victims and has others written again
	// while their write-back is out, as a writer holding the lock would.
	p.SetFlusher(func(es []*Entry) error {
		for _, e := range es {
			switch rng.Intn(3) {
			case 0:
				p.MarkCleanIfBatch([]*Entry{e}, []int64{e.gen})
			case 1:
				seq++
				p.MarkDirty(e, seq)
			}
		}
		return nil
	})
	var handed []*Entry // the entries the pool handed out lately
	for step := 0; step < 20000; step++ {
		addr, owner := int64(rng.Intn(addrs))*512, uint64(rng.Intn(owners))
		what := rng.Intn(20)
		switch {
		case what < 6:
			handed = append(handed, p.Insert(addr, nil, owner))
		case what < 10:
			e, _ := p.Fill(addr, nil, owner)
			handed = append(handed, e)
		case what < 16:
			if len(handed) > 0 {
				seq++
				p.MarkDirty(handed[rng.Intn(len(handed))], seq)
			}
		case what < 18:
			p.Invalidate(addr)
		case what < 19:
			p.InvalidateByOwner(owner)
		default:
			if rng.Intn(10) == 0 {
				p.InvalidateAll()
			}
		}
		if len(handed) > 64 {
			handed = handed[len(handed)-64:]
		}
		for o := uint64(0); o < owners; o++ {
			if err := checkOwnerIndex(p, o); err != "" {
				t.Fatalf("step %d (op %d, addr %d, owner %d): owner %d: %s", step, what, addr, owner, o, err)
			}
		}
	}
}

// checkOwnerIndex compares owner's list and DirtyByOwner with a scan of
// p's entries and returns what differs, or "".
func checkOwnerIndex(p *Pool, owner uint64) string {
	p.mu.Lock()
	want := map[*Entry]bool{}
	for _, e := range p.entries {
		if e.Owner == owner {
			want[e] = e.Dirty
		}
	}
	got := map[*Entry]bool{}
	var prev *Entry
	for e := p.byOwner[owner]; e != nil; prev, e = e, e.ownNext {
		if e.ownPrev != prev || !e.indexed || e.Owner != owner || got[e] {
			p.mu.Unlock()
			return "the list is not linked both ways through distinct entries of the owner"
		}
		got[e] = e.Dirty
	}
	_, keyed := p.byOwner[owner]
	p.mu.Unlock()
	if len(got) != len(want) {
		return fmt.Sprintf("the list holds %d entries, the scan finds %d", len(got), len(want))
	}
	for e := range want {
		if _, ok := got[e]; !ok {
			return fmt.Sprintf("the entry at %d is missing from the list", e.Addr)
		}
	}
	if keyed && len(want) == 0 {
		return "an owner with no entries stays in the index"
	}
	dirty := p.DirtyByOwner(nil, owner)
	n := 0
	for _, d := range want {
		if d {
			n++
		}
	}
	if len(dirty) != n {
		return fmt.Sprintf("DirtyByOwner returns %d entries, the scan finds %d dirty", len(dirty), n)
	}
	for _, e := range dirty {
		if d, ok := want[e]; !ok || !d {
			return fmt.Sprintf("DirtyByOwner returns the entry at %d, which the scan does not find dirty", e.Addr)
		}
	}
	return ""
}

// TestPinnedEntriesAreNeverReused: a seeded random run of inserts,
// fills, lookups, peeks, dirty lists, pins and unpins, MarkDirty calls
// (some on evicted entries, which they admit again), evictions, Invalidate,
// InvalidateByOwner and InvalidateAll, with a flusher that writes back
// some of its victims and has others written again. The test holds what
// it is handed, as a reader or writer would, and lets go of it at random.
// After every step:
//   - an entry the test holds still stands for the address it was handed
//     for, with the bytes written there: a pinned entry is never handed
//     out for another address;
//   - every pin the pool counts is one the test holds, and none is negative;
//   - the spare list holds distinct entries that are neither resident nor
//     pinned, at most the pool's capacity of them.
//
// Entries are reused all along: the run fails if none ever is.
func TestPinnedEntriesAreNeverReused(t *testing.T) {
	const owners, addrs, capacity, size = 3, 24, 6, 64
	p := NewPool(size, capacity)
	rng := rand.New(rand.NewSource(2))
	seq := int64(0)
	p.SetFlusher(func(es []*Entry) error {
		for _, e := range es {
			switch rng.Intn(3) {
			case 0:
				p.MarkCleanIfBatch([]*Entry{e}, []int64{e.gen})
			case 1:
				seq++
				p.MarkDirty(e, seq)
			}
		}
		return nil
	})
	var held []pin            // one per pin the test holds
	was := map[*Entry]int64{} // the address each entry was last handed out for
	reused := 0
	take := func(step int, what string, e *Entry, addr int64) {
		if e.Addr != addr {
			t.Fatalf("step %d: %s of %d handed out the entry of %d", step, what, addr, e.Addr)
		}
		for _, h := range held {
			if h.e == e && h.addr != addr {
				t.Fatalf("step %d: %s of %d handed out an entry held for %d", step, what, addr, h.addr)
			}
		}
		if a, ok := was[e]; ok && a != addr {
			reused++
		}
		was[e] = addr
		held = append(held, pin{e, addr})
	}
	unpin := func() {
		i := rng.Intn(len(held))
		p.Unpin(held[i].e)
		held[i] = held[len(held)-1]
		held = held[:len(held)-1]
	}
	for step := 0; step < 20000; step++ {
		addr, owner := int64(rng.Intn(addrs))*size, uint64(rng.Intn(owners))
		what := rng.Intn(24)
		switch {
		case what < 4:
			take(step, "Insert", p.Insert(addr, stamp(addr, size), owner), addr)
		case what < 8:
			e, _ := p.Fill(addr, stamp(addr, size), owner)
			take(step, "Fill", e, addr)
		case what < 10:
			if e, ok := p.Lookup(addr); ok {
				take(step, "Lookup", e, addr)
			}
		case what < 11:
			if e, ok := p.Peek(addr); ok {
				take(step, "Peek", e, addr)
			}
		case what < 12:
			for _, e := range p.DirtyByOwner(nil, owner) {
				take(step, "DirtyByOwner", e, e.Addr)
			}
		case what < 13 && len(held) > 0:
			h := held[rng.Intn(len(held))]
			p.Pin(h.e)
			held = append(held, h)
		case what < 18:
			for n := rng.Intn(3) + 1; n > 0 && len(held) > 0; n-- {
				unpin()
			}
		case what < 21 && len(held) > 0:
			seq++
			p.MarkDirty(held[rng.Intn(len(held))].e, seq)
		case what < 22:
			p.Invalidate(addr)
		case what < 23:
			p.InvalidateByOwner(owner)
		case rng.Intn(20) == 0:
			p.InvalidateAll()
		}
		for len(held) > 32 {
			unpin()
		}
		if err := checkPins(p, held); err != "" {
			t.Fatalf("step %d (op %d, addr %d, owner %d): %s", step, what, addr, owner, err)
		}
	}
	if reused == 0 {
		t.Fatal("no entry was ever reused")
	}
	for len(held) > 0 {
		unpin()
	}
	if n := p.Pinned(); n != 0 {
		t.Fatalf("%d pins left once the test let go of all it held", n)
	}
	t.Logf("%d entries handed out again for another address", reused)
}

// pin is one pin a test holds on e, taken for addr.
type pin struct {
	e    *Entry
	addr int64
}

// stamp is the block the tests write at addr: every byte names it.
func stamp(addr int64, size int) []byte {
	return bytes.Repeat([]byte{byte(addr/int64(size)) + 1}, size)
}

// checkPins checks the pool against the pins a test holds and returns
// what is wrong, or "".
func checkPins(p *Pool, held []pin) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	pins := map[*Entry]int32{}
	for _, h := range held {
		pins[h.e]++
		switch {
		case h.e.Addr != h.addr:
			return fmt.Sprintf("an entry held for %d stands for %d", h.addr, h.e.Addr)
		case !bytes.Equal(h.e.Data, stamp(h.addr, p.blockSize)):
			return fmt.Sprintf("an entry held for %d holds another block's bytes", h.addr)
		}
	}
	if p.pinned != len(held) {
		return fmt.Sprintf("the pool counts %d pins, the test holds %d", p.pinned, len(held))
	}
	for e, n := range pins {
		if e.pins != n {
			return fmt.Sprintf("the entry at %d has %d pins, the test holds %d", e.Addr, e.pins, n)
		}
	}
	for addr, e := range p.entries {
		if e.pins < 0 || !e.resident || e.Addr != addr {
			return fmt.Sprintf("the entry at %d is mapped at %d with %d pins, resident %v", e.Addr, addr, e.pins, e.resident)
		}
	}
	spare := listed(&p.spare)
	if len(spare) > p.capacity {
		return fmt.Sprintf("%d spare entries in a pool of %d", len(spare), p.capacity)
	}
	seen := map[*Entry]bool{}
	for _, e := range spare {
		switch {
		case seen[e]:
			return fmt.Sprintf("the entry of %d is spare twice", e.Addr)
		case e.resident || p.entries[e.Addr] == e:
			return fmt.Sprintf("the spare entry of %d is resident", e.Addr)
		case e.pins != 0:
			return fmt.Sprintf("the spare entry of %d has %d pins", e.Addr, e.pins)
		}
		seen[e] = true
	}
	return ""
}

// listed returns what l holds, the next to be taken first, and leaves l
// as it was.
func listed[T any](l *reuse.List[T]) []T {
	var xs []T
	for x, ok := l.Take(); ok; x, ok = l.Take() {
		xs = append(xs, x)
	}
	for i := len(xs) - 1; i >= 0; i-- {
		l.Put(xs[i])
	}
	return xs
}
