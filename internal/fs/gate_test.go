package fs

import (
	"errors"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

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

// TestGateClaimAllocs: a claim, of a fetch or a flight, is one object.
// Under the race detector the count carries slack, so it is checked only
// without it (make alloc-budget).
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
	if !raceBuild() && (fetch != 1 || flight != 1) {
		t.Fatalf("a fetch's claim allocates %v times, a flight's %v, want 1 each", fetch, flight)
	}
}

// TestGateImportsNoIO: the gate stays pure — of the module only the
// cache, of the standard library only sync: no Petal, network, clock,
// locks or observability in the file that holds it (the twin of
// petal's TestPlanImportsNoIO).
func TestGateImportsNoIO(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "gate.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		switch path, _ := strconv.Unquote(imp.Path.Value); path {
		case "sync", "frangipani/internal/cache":
		default:
			t.Errorf("gate.go imports %q", path)
		}
	}
}
