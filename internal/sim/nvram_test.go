package sim

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// The card's semantics, held apart from its timing: most of these step
// a card that has no destager (newNVRAM) through takeRun, the disk write
// and retire by hand, so every interleaving below is the one written
// down, on any host.

// steppedCard is a card without a destager over a fast disk whose
// first 64 KB already hold old data.
func steppedCard(t testing.TB, capacity int) (*NVRAM, *Disk, []byte) {
	t.Helper()
	c := testClock()
	t.Cleanup(c.Stop)
	d := NewDisk(c, "d", DiskParams{Capacity: 1 << 20, SeekTime: time.Millisecond, TransferRate: 64 << 20})
	old := sectors(64<<10/SectorSize, 0xD0)
	if err := d.WriteAt(old, 0); err != nil {
		t.Fatal(err)
	}
	return newNVRAM(c, d, capacity, 0), d, old
}

// sectors returns n sectors, every byte of sector i being tag+i.
func sectors(n int, tag byte) []byte {
	p := make([]byte, n*SectorSize)
	for i := range p {
		p[i] = tag + byte(i/SectorSize)
	}
	return p
}

// destageOne does one turn of the destager and returns the run it wrote.
func destageOne(t testing.TB, nv *NVRAM) (start int64, count int, err error) {
	t.Helper()
	start, ok := nv.takeRun()
	if !ok {
		t.Fatal("takeRun: the card is stopped")
	}
	err = nv.disk.WriteAt(*nv.run, start*SectorSize)
	nv.retire(start)
	return start, len(nv.epochs), err
}

func staged(nv *NVRAM) int {
	nv.mu.Lock()
	defer nv.mu.Unlock()
	return len(nv.dirty)
}

func mustRead(t testing.TB, dev BlockDev, off int64, want []byte, what string) {
	t.Helper()
	got := make([]byte, len(want))
	if err := dev.ReadAt(got, off); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: sector %d reads %#x, want %#x", what, i/SectorSize, got[i], want[i])
			}
		}
	}
}

// within fails the test unless fn returns before d of simulated time
// has passed: a bound for calls that a bug makes wait for ever, set far
// beyond what a stalled host adds to one that returns.
func within(t *testing.T, c *Clock, d Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(c.Real(d)):
		t.Fatalf("%s has not returned after %v of simulated time", what, d)
	}
}

// TestNVRAMReadIsCardOverDisk walks write -> partial destage -> rewrite
// -> read: at every step a read is the disk's bytes under the card's,
// the newest staged write winning, and a sector re-dirtied while its run
// is on the arm outlives the run's completion and is destaged again.
func TestNVRAMReadIsCardOverDisk(t *testing.T) {
	nv, d, old := steppedCard(t, 64<<10)
	want := bytes.Clone(old[:8*SectorSize])
	put := func(p []byte, sector int) {
		t.Helper()
		if err := nv.WriteAt(p, int64(sector)*SectorSize); err != nil {
			t.Fatal(err)
		}
		copy(want[sector*SectorSize:], p)
	}
	check := func(what string) {
		t.Helper()
		mustRead(t, nv, 0, want, what)
	}

	put(sectors(4, 0xA0), 2) // A on 2..5
	check("A staged")

	start, ok := nv.takeRun() // A is on the arm
	if !ok || start != 2 || len(*nv.run) != 4*SectorSize {
		t.Fatalf("first run: start %d, %d bytes, ok %v; want sectors 2..5", start, len(*nv.run), ok)
	}
	check("A in flight")
	put(sectors(2, 0xB0), 3) // B on 3..4, re-dirtied in flight
	put(sectors(1, 0xC0), 6) // C on 6, new
	check("B and C staged while A is in flight")
	if err := d.WriteAt(*nv.run, start*SectorSize); err != nil {
		t.Fatal(err)
	}
	check("A on the disk, not yet retired")
	nv.retire(start)
	check("A retired")
	if n := staged(nv); n != 3 {
		t.Fatalf("%d sectors staged after the first run, want 3: B's two survive it, A's other two are gone", n)
	}
	// The disk has what the run carried: A, not B.
	mustRead(t, d, 2*SectorSize, sectors(4, 0xA0), "the disk after the first run")

	if start, count, err := destageOne(t, nv); err != nil || start != 3 || count != 2 {
		t.Fatalf("second run: start %d, %d sectors, %v; want B's 3..4", start, count, err)
	}
	check("B destaged")
	if start, count, err := destageOne(t, nv); err != nil || start != 6 || count != 1 {
		t.Fatalf("third run: start %d, %d sectors, %v; want C's 6", start, count, err)
	}
	if n := staged(nv); n != 0 {
		t.Fatalf("%d sectors staged after every run", n)
	}
	check("card empty")
	mustRead(t, d, 0, want, "the disk at the end")
}

// TestNVRAMCopiesItsPayload: one copy means a copy. What the caller
// does to its buffer after WriteAt returns reaches neither a read nor
// the disk, also when a later write has repointed some of the sectors.
func TestNVRAMCopiesItsPayload(t *testing.T) {
	nv, d, _ := steppedCard(t, 64<<10)
	p := sectors(8, 0x10)
	want := bytes.Clone(p)
	if err := nv.WriteAt(p, 0); err != nil {
		t.Fatal(err)
	}
	q := sectors(2, 0x70)
	if err := nv.WriteAt(q, 3*SectorSize); err != nil {
		t.Fatal(err)
	}
	copy(want[3*SectorSize:], q)
	clear(p)
	clear(q)
	mustRead(t, nv, 0, want, "a read after the caller cleared its buffers")
	if _, _, err := destageOne(t, nv); err != nil {
		t.Fatal(err)
	}
	mustRead(t, d, 0, want, "the disk after the caller cleared its buffers")
}

// TestNVRAMRewriteTakesNoRoom: a full card admits a write to sectors it
// already holds. Nothing destages here, so a WriteAt that waited for
// room would wait for ever.
func TestNVRAMRewriteTakesNoRoom(t *testing.T) {
	nv, _, _ := steppedCard(t, 4<<10)
	if err := nv.WriteAt(sectors(8, 0x10), 0); err != nil {
		t.Fatal(err)
	}
	within(t, nv.clock, time.Hour, "a rewrite of a full card's own sectors", func() {
		if err := nv.WriteAt(sectors(8, 0x20), 0); err != nil {
			t.Error(err)
		}
	})
	mustRead(t, nv, 0, sectors(8, 0x20), "the rewrite")
	if n := staged(nv); n != 8 {
		t.Fatalf("%d sectors staged, want the card's 8", n)
	}
}

// TestNVRAMWriteLargerThanCard: a 4 KB card takes a 64 KB write — what
// Petal's store writes — in card-sized parts, each waiting for the
// destager to make room.
func TestNVRAMWriteLargerThanCard(t *testing.T) {
	c := testClock()
	d := NewDisk(c, "d", DefaultDiskParams(1<<20))
	nv := NewNVRAM(c, d, 4<<10, 50*time.Microsecond)
	want := make([]byte, 64<<10)
	rand.New(rand.NewSource(4)).Read(want)
	within(t, c, time.Hour, "a 64 KB write to a 4 KB card", func() {
		if err := nv.WriteAt(want, 8<<10); err != nil {
			t.Error(err)
		}
	})
	mustRead(t, nv, 8<<10, want, "reading the write back through the card")
	within(t, c, time.Hour, "Flush", nv.Flush)
	if n := staged(nv); n != 0 {
		t.Fatalf("Flush returned with %d sectors staged", n)
	}
	mustRead(t, d, 8<<10, want, "the disk after Flush")
	nv.Close()
}

// TestNVRAMTornDestage: a power loss in the middle of a run leaves a
// prefix of it on the disk and the disk dead; the card drops the run
// (the machine it fronts has failed), so Flush returns, and reads and
// writes report the failure.
func TestNVRAMTornDestage(t *testing.T) {
	c := testClock()
	d := NewDisk(c, "d", DefaultDiskParams(1<<20))
	old := sectors(4, 0xD0)
	if err := d.WriteAt(old, 0); err != nil {
		t.Fatal(err)
	}
	nv := NewNVRAM(c, d, 64<<10, 50*time.Microsecond)
	d.InjectTornWrite(2)
	fresh := sectors(4, 0x10)
	if err := nv.WriteAt(fresh, 0); err != nil {
		t.Fatal(err)
	}
	within(t, c, time.Hour, "Flush over a torn run", nv.Flush)
	if !d.Failed() {
		t.Fatal("the disk survived a torn write")
	}
	if err := nv.WriteAt(fresh, 0); !errors.Is(err, ErrDiskFailed) {
		t.Fatalf("WriteAt on a dead disk: %v", err)
	}
	if err := nv.ReadAt(make([]byte, SectorSize), 0); !errors.Is(err, ErrDiskFailed) {
		t.Fatalf("ReadAt on a dead disk: %v", err)
	}
	d.Revive()
	mustRead(t, d, 0, append(bytes.Clone(fresh[:2*SectorSize]), old[2*SectorSize:]...), "the revived disk")
	nv.Close()
}

// TestNVRAMDiskFailsMidDestage: a run whose disk write fails is dropped
// like one that succeeded, except for a sector re-dirtied meanwhile,
// which stays staged until its own run fails too.
func TestNVRAMDiskFailsMidDestage(t *testing.T) {
	nv, d, _ := steppedCard(t, 64<<10)
	if err := nv.WriteAt(sectors(4, 0x10), 0); err != nil {
		t.Fatal(err)
	}
	start, _ := nv.takeRun()
	if err := nv.WriteAt(sectors(1, 0x20), SectorSize); err != nil { // re-dirtied in flight
		t.Fatal(err)
	}
	d.Fail()
	if err := d.WriteAt(*nv.run, start*SectorSize); !errors.Is(err, ErrDiskFailed) {
		t.Fatalf("the run's write on a dead disk: %v", err)
	}
	nv.retire(start)
	if n := staged(nv); n != 1 {
		t.Fatalf("%d sectors staged after the failed run, want the re-dirtied one", n)
	}
	if _, count, err := destageOne(t, nv); !errors.Is(err, ErrDiskFailed) || count != 1 {
		t.Fatalf("second run: %d sectors, %v", count, err)
	}
	if n := staged(nv); n != 0 {
		t.Fatalf("%d sectors staged after both runs failed", n)
	}
	within(t, nv.clock, time.Hour, "Flush on an empty card", nv.Flush)
}

// TestNVRAMAgainstModelConcurrently: writers with a region of the disk
// each, on a card too small for them, so that writes wait for room,
// rewrite what is staged and catch their own sectors on the arm; every
// read returns the writer's newest bytes and the disk ends up with them.
func TestNVRAMAgainstModelConcurrently(t *testing.T) {
	const (
		writers = 4
		region  = 64 // sectors
		rounds  = 150
	)
	c := NewClock(2000)
	defer c.Stop()
	d := NewDisk(c, "d", DefaultDiskParams(1<<20))
	nv := NewNVRAM(c, d, writers*region*SectorSize/4, 50*time.Microsecond)
	models := make([][]byte, writers)
	var wg sync.WaitGroup
	for w := range models {
		models[w] = make([]byte, region*SectorSize)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			base, model := int64(w*region*SectorSize), models[w]
			for i := 0; i < rounds; i++ {
				s := rng.Intn(region)
				p := make([]byte, (1+rng.Intn(region-s))*SectorSize) // past the card's size at times
				rng.Read(p)
				if err := nv.WriteAt(p, base+int64(s*SectorSize)); err != nil {
					t.Error(err)
					return
				}
				copy(model[s*SectorSize:], p)
				s = rng.Intn(region)
				got := make([]byte, (1+rng.Intn(region-s))*SectorSize)
				if err := nv.ReadAt(got, base+int64(s*SectorSize)); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, model[s*SectorSize:][:len(got)]) {
					t.Errorf("writer %d, round %d: a read of sectors %d..%d is not the newest write", w, i, s, s+len(got)/SectorSize-1)
					return
				}
			}
		}()
	}
	wg.Wait()
	nv.Close()
	for w, model := range models {
		mustRead(t, d, int64(w*region*SectorSize), model, "the disk after Close")
	}
}

// TestNVRAMHeldReadsAgainstModel: seeded writes, rewrites, reads and
// destages of a stepped card against a byte model, with reads held across
// their disk read. A held read copies out the staged sectors (snapshot);
// the steps go on — rewriting those very sectors in their slots,
// destaging them, which frees their slots, and staging new bytes into
// slots from the free list — and only then does the read read the disk
// and lay over it what it copied (apply). Each such read returns, sector
// by sector, what was staged when it snapshotted, or, where nothing was,
// what the disk holds when it reads it; a plain read returns the newest
// write. At the end the disk holds every newest write and no slot is on
// the free list twice.
func TestNVRAMHeldReadsAgainstModel(t *testing.T) {
	const region = 64 // sectors: the card's capacity, so a write never waits for room
	for seed := int64(1); seed <= 20; seed++ {
		nv, d, old := steppedCard(t, region*SectorSize)
		rng := rand.New(rand.NewSource(seed))
		model := bytes.Clone(old[:region*SectorSize]) // the newest write of each sector
		onDisk := bytes.Clone(model)
		type heldRead struct {
			s, k   int
			sc     *nvScratch
			staged []bool // the sectors the card staged when the read snapshotted
			want   []byte // the newest write of each sector then
		}
		var reads []*heldRead
		runOut, runStart := false, int64(0)
		land := func() { // the run's disk write, then retire
			if err := d.WriteAt(*nv.run, runStart*SectorSize); err != nil {
				t.Fatal(err)
			}
			copy(onDisk[runStart*SectorSize:], *nv.run)
			nv.retire(runStart)
			runOut = false
		}
		span := func() (s, k int) {
			s = rng.Intn(region)
			return s, 1 + rng.Intn(min(region-s, 16))
		}
		finish := func(i int) {
			r := reads[i]
			reads = append(reads[:i], reads[i+1:]...)
			got := make([]byte, r.k*SectorSize)
			if err := d.ReadAt(got, int64(r.s*SectorSize)); err != nil {
				t.Fatal(err)
			}
			nv.apply(got, r.sc)
			for j := 0; j < r.k; j++ {
				want := r.want[j*SectorSize : (j+1)*SectorSize]
				if !r.staged[j] {
					want = onDisk[(r.s+j)*SectorSize:][:SectorSize]
				}
				if !bytes.Equal(got[j*SectorSize:(j+1)*SectorSize], want) {
					t.Fatalf("seed %d: a held read of sector %d returned bytes nobody staged or destaged there when it read (staged when it snapshotted: %v)", seed, r.s+j, r.staged[j])
				}
			}
		}
		for step := 0; step < 300; step++ {
			switch rng.Intn(7) {
			case 0, 1: // a write, or a rewrite of staged sectors
				s, k := span()
				p := make([]byte, k*SectorSize)
				rng.Read(p)
				if err := nv.WriteAt(p, int64(s*SectorSize)); err != nil {
					t.Fatal(err)
				}
				copy(model[s*SectorSize:], p)
			case 2: // a plain read
				s, k := span()
				mustRead(t, nv, int64(s*SectorSize), model[s*SectorSize:(s+k)*SectorSize], "a plain read")
			case 3: // a read that snapshots and holds
				s, k := span()
				r := &heldRead{s: s, k: k, staged: make([]bool, k), want: make([]byte, k*SectorSize)}
				nv.mu.Lock()
				for j := range r.staged {
					_, r.staged[j] = nv.dirty[int64(s+j)]
				}
				nv.mu.Unlock()
				r.sc = nv.snapshot(int64(s), k)
				copy(r.want, model[s*SectorSize:(s+k)*SectorSize])
				reads = append(reads, r)
			case 4: // a held read reads the disk and overlays
				if len(reads) > 0 {
					finish(rng.Intn(len(reads)))
				}
			case 5: // the destager takes a run
				nv.mu.Lock()
				queued := len(nv.order) > 0
				nv.mu.Unlock()
				if !runOut && queued {
					runStart, runOut = nv.takeRun()
				}
			case 6: // the run lands and is retired
				if runOut {
					land()
				}
			}
		}
		for len(reads) > 0 {
			finish(0)
		}
		if runOut {
			land()
		}
		for staged(nv) > 0 {
			destageOne(t, nv)
		}
		mustRead(t, d, 0, model, "the disk once the card is drained")
		seen := map[*nvSlot]bool{}
		for slot, ok := nv.free.Take(); ok; slot, ok = nv.free.Take() {
			if seen[slot] {
				t.Fatalf("seed %d: a slot on the free list twice", seed)
			}
			seen[slot] = true
		}
	}
}

// TestNVRAMDestageOrderAgainstModel: seeded staging (short writes,
// rewrites of queued sectors, streams longer than a run, rewrites of the
// run on the arm), plain and held reads and reads of the bare disk,
// against a byte model and a model of the destage order: the queued
// sectors, oldest first. A write queues each of its sectors that is not
// queued already at the tail; a rewrite of a queued sector leaves it
// where it is; a sector rewritten while its run is on the arm is queued
// again. Each run must start at the oldest queued sector and take the
// sectors queued right after it for as long as they follow it on the
// disk, up to runSectors, with the newest bytes of each; some run must
// reach the cap. Every read returns the newest write, a read of a run
// just retired too (a sector rewritten while the run was on the arm
// stays staged). Then a sector is staged while a writer keeps staging
// before every run, rewriting it and queueing new sectors: each run
// takes the oldest queued sector, so it must reach the disk within one
// run more than there were sectors queued ahead of it. At the end the
// card's own destager drains it (Flush), and the disk holds every
// newest write.
func TestNVRAMDestageOrderAgainstModel(t *testing.T) {
	const (
		disk = 8192 // sectors: the disk and the card, so no write waits for room
		hot  = 512  // sectors the seeded steps touch
	)
	for seed := int64(1); seed <= 20; seed++ {
		c := NewClock(1e5)
		t.Cleanup(c.Stop)
		d := NewDisk(c, "d", DiskParams{Capacity: disk * SectorSize, SeekTime: time.Millisecond, TransferRate: 64 << 20})
		nv := newNVRAM(c, d, disk*SectorSize, 0)
		rng := rand.New(rand.NewSource(seed))
		model := make([]byte, disk*SectorSize) // the newest write of each sector
		onDisk := make([]byte, disk*SectorSize)
		var queue []int64 // the model's queued sectors, oldest first
		runOut, runStart, runLen, longest := false, int64(0), 0, 0

		write := func(s int64, k int) {
			p := make([]byte, k*SectorSize)
			rng.Read(p)
			if err := nv.WriteAt(p, s*SectorSize); err != nil {
				t.Fatal(err)
			}
			copy(model[s*SectorSize:], p)
			for i := s; i < s+int64(k); i++ {
				if !slices.Contains(queue, i) {
					queue = append(queue, i)
				}
			}
		}
		take := func() {
			want, count := queue[0], 1
			for count < min(len(queue), runSectors) && queue[count] == want+int64(count) {
				count++
			}
			start, ok := nv.takeRun()
			if !ok || start != want || len(*nv.run) != count*SectorSize {
				t.Fatalf("seed %d: the run is %d sectors at %d, want %d at %d", seed, len(*nv.run)/SectorSize, start, count, want)
			}
			if !bytes.Equal(*nv.run, model[start*SectorSize:][:count*SectorSize]) {
				t.Fatalf("seed %d: the run at %d does not carry the newest write", seed, start)
			}
			queue = queue[count:]
			runOut, runStart, runLen, longest = true, start, count, max(longest, count)
		}
		land := func() { // the run's disk write, then retire
			if err := d.WriteAt(*nv.run, runStart*SectorSize); err != nil {
				t.Fatal(err)
			}
			copy(onDisk[runStart*SectorSize:], *nv.run)
			nv.retire(runStart)
			runOut = false
			mustRead(t, nv, runStart*SectorSize, model[runStart*SectorSize:][:runLen*SectorSize], "a read of a run just retired")
		}
		span := func() (s int64, k int) {
			i := rng.Intn(hot)
			return int64(i), 1 + rng.Intn(min(hot-i, 16))
		}
		type heldRead struct {
			s      int64
			k      int
			sc     *nvScratch
			staged []bool // the sectors the card staged when the read snapshotted
			want   []byte // the newest write of each sector then
		}
		var reads []*heldRead
		for step := 0; step < 400; step++ {
			switch rng.Intn(9) {
			case 0, 1: // a write, or a rewrite of queued sectors
				write(span())
			case 2: // a stream longer than a run
				write(int64(rng.Intn(hot-3*runSectors)), runSectors+1+rng.Intn(2*runSectors))
			case 3: // a rewrite of the run on the arm
				if runOut {
					i := rng.Intn(runLen)
					write(runStart+int64(i), 1+rng.Intn(runLen-i))
				}
			case 4: // a plain read
				s, k := span()
				mustRead(t, nv, s*SectorSize, model[s*SectorSize:(s+int64(k))*SectorSize], "a plain read")
			case 5: // a read of the bare disk
				s, k := span()
				mustRead(t, d, s*SectorSize, onDisk[s*SectorSize:(s+int64(k))*SectorSize], "a read of the disk")
			case 6: // a read snapshots and holds; an earlier one finishes
				s, k := span()
				r := &heldRead{s: s, k: k, staged: make([]bool, k), want: bytes.Clone(model[s*SectorSize : (s+int64(k))*SectorSize])}
				nv.mu.Lock()
				for j := range r.staged {
					_, r.staged[j] = nv.dirty[s+int64(j)]
				}
				nv.mu.Unlock()
				r.sc = nv.snapshot(s, k)
				reads = append(reads, r)
				if len(reads) > 3 {
					r := reads[0]
					reads = reads[1:]
					got := make([]byte, r.k*SectorSize)
					if err := d.ReadAt(got, r.s*SectorSize); err != nil {
						t.Fatal(err)
					}
					nv.apply(got, r.sc)
					for j := 0; j < r.k; j++ {
						want := r.want[j*SectorSize : (j+1)*SectorSize]
						if !r.staged[j] {
							want = onDisk[(r.s+int64(j))*SectorSize:][:SectorSize]
						}
						if !bytes.Equal(got[j*SectorSize:(j+1)*SectorSize], want) {
							t.Fatalf("seed %d: a held read of sector %d returned bytes nobody staged or destaged there when it read (staged when it snapshotted: %v)", seed, r.s+int64(j), r.staged[j])
						}
					}
				}
			case 7: // the destager takes a run
				if !runOut && len(queue) > 0 {
					take()
				}
			case 8: // the run lands and is retired
				if runOut {
					land()
				}
			}
		}
		for _, r := range reads {
			nv.apply(make([]byte, r.k*SectorSize), r.sc)
		}
		if runOut {
			land()
		}
		if longest != runSectors {
			t.Fatalf("seed %d: the longest run was %d sectors; the steps never reached the cap", seed, longest)
		}

		// A sector, and a writer that rewrites it and queues a new sector
		// past the hot ones before every run.
		x := int64(rng.Intn(hot))
		ahead := slices.Index(queue, x)
		if ahead < 0 {
			ahead = len(queue)
		}
		write(x, 1)
		for runs, next := 0, int64(hot); ; runs++ {
			if runs > ahead {
				t.Fatalf("seed %d: sector %d, staged with %d sectors queued ahead of it, is not on the disk after %d runs of a writer staging before each", seed, x, ahead, runs)
			}
			write(x, 1)
			write(next, 1)
			next++
			take()
			land()
			if x >= runStart && x < runStart+int64(runLen) {
				break
			}
		}

		go nv.destager()
		within(t, c, time.Hour, "Flush", nv.Flush)
		if n := staged(nv); n != 0 {
			t.Fatalf("seed %d: Flush returned with %d sectors staged", seed, n)
		}
		mustRead(t, d, 0, model, "the disk once the card is drained")
		nv.Close()
	}
}

// TestNVRAMStagingAllocs is the card's allocation budget: on a warm card,
// one whose free list has slots for what it stages, a write costs
// nothing (it was one copy of its payload, and the map's amortized
// growth, before the card kept slots), its destage nothing, a read
// nothing however much of it is staged (its copy of the staged sectors is
// scratch from the card's list). AllocsPerRun counts the whole process:
// the least of several rounds is the call's own. The destage's run buffer
// is bufpool's, whose sync.Pool drops a share of what it is given under
// the race detector, so the destage's count is held to the write's only
// without it (make alloc-budget).
func TestNVRAMStagingAllocs(t *testing.T) {
	nv, _, _ := steppedCard(t, 8<<20)
	p := sectors(64<<10/SectorSize, 0x10)
	write := func() {
		if err := nv.WriteAt(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	least := func(f func()) float64 {
		l := -1.0
		for round := 0; round < 4; round++ {
			if n := testing.AllocsPerRun(100, f); l < 0 || n < l {
				l = n
			}
		}
		return l
	}
	write() // warm: the map and the queue have grown
	for staged(nv) > 0 {
		destageOne(t, nv)
	}
	written := least(write)
	if written != 0 {
		t.Errorf("a 64 KB WriteAt on a warm card: %v allocations, want 0", written)
	}
	cycle := least(func() {
		write()
		destaged := 0
		for staged(nv) > 0 {
			_, count, err := destageOne(t, nv)
			if err != nil {
				t.Fatal(err)
			}
			destaged += count
		}
		if destaged != len(p)/SectorSize {
			t.Fatalf("destaged %d sectors", destaged)
		}
	})
	if cycle != written && !raceBuild() {
		t.Errorf("a 64 KB write and its destage: %v allocations, the write alone %v; the destage should add none", cycle, written)
	}

	got := make([]byte, 32<<10)
	read := func() {
		if err := nv.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []int{0, 1, 32, 64} { // sectors of the read that are staged
		if k > 0 {
			if err := nv.WriteAt(p[:k*SectorSize], 0); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(100, read); n != 0 {
			t.Errorf("a 32 KB ReadAt with %d sectors staged: %v allocations, want 0", k, n)
		}
	}
}
