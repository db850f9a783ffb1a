package fs

import (
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"frangipani/internal/cache"
)

// snapshot is how a test reads the gate: it counts the blocks claimed by
// fetches and by flights, and the write-behind flights out, and calls fn,
// if not nil, with each claimed address and its claim, all under the
// gate's lock. It allocates nothing, so an allocation count may read it.
func (g *gate) snapshot(fn func(addr int64, c *claim)) (fetches, flights, behind int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for addr, c := range g.claims {
		if c.flight {
			flights++
		} else {
			fetches++
		}
		if fn != nil {
			fn(addr, c)
		}
	}
	return fetches, flights, g.behind
}

// gateRig is a gate with no file server around it, over a pool of pages.
type gateRig struct {
	g    *gate
	pool *cache.Pool
}

func newGateRig() *gateRig {
	return &gateRig{g: &gate{claims: map[int64]*claim{}}, pool: cache.NewPool(BlockSize, 8)}
}

// dirty caches the page at addr, dirty, as a write does.
func (r *gateRig) dirty(addr int64) *cache.Entry {
	e := r.pool.Insert(addr, nil, 1)
	r.pool.MarkDirty(e, 0)
	return e
}

// fetch asks the gate to fetch the page at addr.
func (r *gateRig) fetch(addr int64) (*claim, []block, []*claim) {
	return r.g.claimFetch([]block{{addr, 1, r.pool}}, nil, nil)
}

// fly asks the gate to write back the page at addr, which is cached.
func (r *gateRig) fly(t *testing.T, addr int64) (*claim, []*claim, []*cache.Entry) {
	t.Helper()
	e, ok := r.pool.Peek(addr)
	if !ok {
		t.Fatalf("no page at %d to write back", addr)
	}
	fl, theirs, joined, _ := r.g.claimFlight(r.pool, []*cache.Entry{e}, nil, 0)
	return fl, theirs, joined
}

// TestGateMeetings: what a fetch or a flight of a block gets from the
// gate, for each claim the block can be under and whether it is cached.
func TestGateMeetings(t *testing.T) {
	const addr = 8 * BlockSize
	cases := []struct {
		name     string
		first    string // the claim the block is under: "", "fetch" or "flight"
		resident bool   // the block is cached, dirty, when the second comes
		second   string // "fetch" or "flight"
		want     string // "claims", "joins" or "passes"
	}{
		{"fetch of an absent block", "", false, "fetch", "claims"},
		{"fetch of a cached block", "", true, "fetch", "passes"},
		{"fetch meets fetch", "fetch", false, "fetch", "joins"},
		{"fetch meets flight, block resident", "flight", true, "fetch", "passes"},
		{"fetch meets flight, block not resident", "flight", false, "fetch", "joins"},
		{"flight of a dirty block", "", true, "flight", "claims"},
		{"flight meets flight", "flight", true, "flight", "joins"},
		{"flight meets fetch", "fetch", true, "flight", "claims"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newGateRig()
			var first *claim
			var firstMine []block
			switch tc.first {
			case "fetch":
				first, firstMine, _ = r.fetch(addr)
			case "flight":
				r.dirty(addr)
				first, _, _ = r.fly(t, addr)
			}
			if tc.first != "" && first == nil {
				t.Fatalf("the first %s claimed nothing", tc.first)
			}
			if tc.resident {
				if _, ok := r.pool.Peek(addr); !ok {
					r.dirty(addr)
				}
			} else {
				r.pool.Invalidate(addr)
			}

			var second *claim
			var secondMine []block
			var theirs []*claim
			switch tc.second {
			case "fetch":
				second, secondMine, theirs = r.fetch(addr)
			case "flight":
				var joined []*cache.Entry
				second, theirs, joined = r.fly(t, addr)
				if (len(joined) == 1) != (tc.want == "joins") {
					t.Errorf("%d blocks joined", len(joined))
				}
			}
			switch got := r.g.claims[addr]; tc.want {
			case "claims":
				if second == nil || got != second || len(theirs) != 0 {
					t.Fatalf("the %s did not take the entry (claim %v, waits for %d)", tc.second, second != nil, len(theirs))
				}
			case "joins":
				if second != nil || len(theirs) != 1 || theirs[0] != first {
					t.Fatalf("the %s did not join the %s (claim %v, waits for %d)", tc.second, tc.first, second != nil, len(theirs))
				}
			case "passes":
				if second != nil || len(theirs) != 0 {
					t.Fatalf("the %s claimed or waited (claim %v, waits for %d)", tc.second, second != nil, len(theirs))
				}
			}

			// Each release deletes only what is still its own.
			if first != nil {
				r.g.release(first, firstMine, nil)
			}
			if second != nil {
				if r.g.claims[addr] != second {
					t.Fatalf("releasing the %s took the %s's entry", tc.first, tc.second)
				}
				r.g.release(second, secondMine, nil)
			}
			if fetches, flights, _ := r.g.snapshot(nil); fetches+flights != 0 {
				t.Fatalf("%d fetches and %d flights left after every release", fetches, flights)
			}
			// A fetch that waited for the flight of a block gone from the
			// cache fetches it once the flight has landed.
			if tc.name == "fetch meets flight, block not resident" {
				if c, _, _ := r.fetch(addr); c == nil {
					t.Fatal("the fetch claims nothing once the flight has landed")
				}
			}
		})
	}
}

// TestGateJoinerGetsFlightError: a flusher that joins a flight is told
// how the flight ended.
func TestGateJoinerGetsFlightError(t *testing.T) {
	r := newGateRig()
	r.dirty(0)
	fl, _, _ := r.fly(t, 0)
	_, theirs, _ := r.fly(t, 0)
	if len(theirs) != 1 || theirs[0] != fl {
		t.Fatalf("the second flusher waits for %d flights, want the first", len(theirs))
	}
	failed := errors.New("petal unreachable")
	got := make(chan error, 1)
	go func() { got <- theirs[0].wait() }()
	r.g.release(fl, nil, failed)
	if err := <-got; err != failed {
		t.Fatalf("the joiner got %v, want %v", err, failed)
	}
}

// TestGateBehindLimit: write-behind flights count as out from the claim
// to the release, and none is claimed past the limit.
func TestGateBehindLimit(t *testing.T) {
	r := newGateRig()
	a, b := r.dirty(0), r.dirty(BlockSize)
	fl, _, _, ok := r.g.claimFlight(r.pool, []*cache.Entry{a}, nil, 1)
	if fl == nil || !ok {
		t.Fatalf("the first write-behind flight: claim %v, ok %v", fl != nil, ok)
	}
	if fl2, _, _, ok := r.g.claimFlight(r.pool, []*cache.Entry{b}, nil, 1); fl2 != nil || ok {
		t.Fatalf("a flight past the limit: claim %v, ok %v", fl2 != nil, ok)
	}
	if _, _, behind := r.g.snapshot(nil); behind != 1 {
		t.Fatalf("%d write-behind flights out, want 1", behind)
	}
	r.g.release(fl, nil, nil)
	clean := r.pool.Insert(2*BlockSize, nil, 1)
	if fl, _, _, ok := r.g.claimFlight(r.pool, []*cache.Entry{clean}, nil, 1); fl != nil || !ok {
		t.Fatalf("nothing dirty: claim %v, ok %v", fl != nil, ok)
	}
	if _, _, behind := r.g.snapshot(nil); behind != 0 {
		t.Fatalf("%d write-behind flights out after the release, want 0", behind)
	}
}

// TestGateReusedClaimsAgainstModel: seeded steps of fetches, flights,
// joins, awaitFlights and releases on a gate whose claims are reused. The
// joiners are held: each calls wait only some steps after it joined —
// often after its claim was released and other claims were taken and
// released meanwhile — and must get the error of the use it joined,
// never wait for a later one. An awaitFlights returns only once the
// flights it found have landed. At the end every claim is back on the
// free list, held by nobody, and no entry is pinned.
func TestGateReusedClaimsAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		gateModelRun(t, seed, 400)
	}
}

// gateUse is one use of a claim, from its grant to its release.
type gateUse struct {
	c        *claim
	mine     []block
	err      error
	released bool // under the gate's mu
}

// gateWaiter is a joiner held until start is closed.
type gateWaiter struct {
	use     int
	c       *claim
	start   chan struct{}
	started bool
}

func gateModelRun(t *testing.T, seed int64, steps int) {
	const addrs = 8
	rng := rand.New(rand.NewSource(seed))
	r := newGateRig()
	r.pool = cache.NewPool(BlockSize, 4*addrs)
	g := r.g
	var uses []*gateUse
	claimOf := map[*claim]int{} // the use each claim serves now; under g.mu
	var waiters []*gateWaiter
	type result struct {
		w   *gateWaiter
		err error
	}
	got := make(chan result, 4*steps)
	awaited := make(chan error, steps)
	awaiters := 0

	pick := func() []int64 {
		var as []int64
		for _, k := range rng.Perm(addrs)[:1+rng.Intn(3)] {
			as = append(as, int64(k)*BlockSize)
		}
		return as
	}
	grant := func(c *claim, mine []block) {
		if c == nil {
			return
		}
		g.mu.Lock()
		claimOf[c] = len(uses)
		uses = append(uses, &gateUse{c: c, mine: mine, err: fmt.Errorf("use %d", len(uses))})
		g.mu.Unlock()
	}
	join := func(theirs []*claim) {
		for _, c := range theirs {
			w := &gateWaiter{use: claimOf[c], c: c, start: make(chan struct{})}
			waiters = append(waiters, w)
			go func() {
				<-w.start
				got <- result{w, w.c.wait()}
			}()
		}
	}
	release := func(u *gateUse) {
		for _, b := range u.mine { // a fetch enters its blocks before it lets them go
			e, _ := r.pool.Fill(b.addr, nil, 1)
			r.pool.Unpin(e)
		}
		g.mu.Lock()
		u.released = true
		g.mu.Unlock()
		g.release(u.c, u.mine, u.err)
	}
	startWaiters := func(all bool) {
		for _, w := range waiters {
			if !w.started && (all || rng.Intn(2) == 0) {
				w.started = true
				close(w.start)
			}
		}
	}

	for step := 0; step < steps; step++ {
		switch rng.Intn(8) {
		case 0, 1: // a fetch
			var blocks []block
			for _, a := range pick() {
				blocks = append(blocks, block{a, 1, r.pool})
			}
			c, mine, theirs := g.claimFetch(blocks, nil, nil)
			grant(c, mine)
			join(theirs)
		case 2: // a flight of dirty blocks
			var es []*cache.Entry
			for _, a := range pick() {
				e, ok := r.pool.Peek(a)
				if !ok {
					e = r.pool.Insert(a, nil, 1)
				}
				r.pool.MarkDirty(e, 0)
				es = append(es, e)
			}
			fl, theirs, _, _ := g.claimFlight(r.pool, es, nil, 0)
			r.pool.Unpin(es...)
			grant(fl, nil)
			join(theirs)
		case 3, 4: // a release
			var out []*gateUse
			for _, u := range uses {
				if !u.released {
					out = append(out, u)
				}
			}
			if len(out) > 0 {
				release(out[rng.Intn(len(out))])
			}
		case 5: // some held joiners call wait
			startWaiters(false)
		case 6: // a block leaves the cache
			r.pool.Invalidate(int64(rng.Intn(addrs)) * BlockSize)
		case 7: // an awaitFlights of every block
			awaiters++
			go func() {
				var found []int
				g.awaitFlights(func(addr int64) bool {
					// A claim the model has not granted yet (its flight was
					// claimed a moment ago) serves no use the model knows.
					if id, ok := claimOf[g.claims[addr]]; ok && !uses[id].released {
						found = append(found, id)
					}
					return true
				})
				g.mu.Lock()
				defer g.mu.Unlock()
				for _, id := range found {
					if !uses[id].released {
						awaited <- fmt.Errorf("awaitFlights returned before use %d, a flight it found, landed", id)
						return
					}
				}
				awaited <- nil
			}()
		}
	}
	for _, u := range uses {
		if !u.released {
			release(u)
		}
	}
	startWaiters(true)
	timeout := time.After(10 * time.Second)
	for range waiters {
		select {
		case res := <-got:
			if res.err != uses[res.w.use].err {
				t.Fatalf("seed %d: a joiner of use %d got %v: it waited for a later use of its claim", seed, res.w.use, res.err)
			}
		case <-timeout:
			t.Fatalf("seed %d: a joiner still waits after every use was released: it waits for a later use of its claim", seed)
		}
	}
	for ; awaiters > 0; awaiters-- {
		select {
		case err := <-awaited:
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		case <-timeout:
			t.Fatalf("seed %d: an awaitFlights still waits after every flight landed", seed)
		}
	}
	if fetches, flights, behind := g.snapshot(nil); fetches+flights+behind != 0 {
		t.Fatalf("seed %d: %d fetch and %d flight entries, %d write-behind flights left", seed, fetches, flights, behind)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	seen := map[*claim]bool{}
	for _, c := range listed(&g.free) {
		if seen[c] || c.holders != 0 {
			t.Fatalf("seed %d: a claim on the free list twice or still held (%d holders)", seed, c.holders)
		}
		seen[c] = true
	}
	for c := range claimOf {
		if !seen[c] {
			t.Fatalf("seed %d: a claim never came back to the free list", seed)
		}
	}
	if n := r.pool.Pinned(); n != 0 {
		t.Fatalf("seed %d: %d pins left on the pool", seed, n)
	}
}

// TestGateClaimAllocs: a claim, of a fetch or a flight, costs a warm gate
// nothing: it is taken from the gate's free list, and goes back to it at
// release (it was one object a claim before the gate kept a free list),
// under the race detector too.
func TestGateClaimAllocs(t *testing.T) {
	r := newGateRig()
	e := r.dirty(0)
	fetch := testing.AllocsPerRun(100, func() {
		mine := []block{{BlockSize, 1, r.pool}}
		c, mine, _ := r.g.claimFetch(mine, mine[:0], nil)
		r.g.release(c, mine, nil)
	})
	es := []*cache.Entry{e}
	flight := testing.AllocsPerRun(100, func() {
		fl, _, _, _ := r.g.claimFlight(r.pool, es, nil, 0)
		r.g.release(fl, nil, nil)
	})
	t.Logf("allocs per claim: fetch %v, flight %v", fetch, flight)
	if fetch != 0 || flight != 0 {
		t.Fatalf("a fetch's claim allocates %v times, a flight's %v, want 0 each", fetch, flight)
	}
}

// TestGateImportsNoIO: the gate stays pure — of the module only the
// cache and the free list (internal/reuse, which imports sync alone), of
// the standard library only sync: no Petal, network, clock, locks or
// observability in the file that holds it (the twin of petal's
// TestPlanImportsNoIO).
func TestGateImportsNoIO(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "gate.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		switch path, _ := strconv.Unquote(imp.Path.Value); path {
		case "sync", "frangipani/internal/cache", "frangipani/internal/reuse":
		default:
			t.Errorf("gate.go imports %q", path)
		}
	}
}
