package petal

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// loadMap is a planner's load input held still: read bytes outstanding
// per server.
type loadMap map[string]int64

func (m loadMap) outstanding(srv string) int64 { return m[srv] }

// onWire renders what a plan sends, in order: one line per request,
// "srv: chunk:off+len ...", its tail request "srv tail: ...".
func onWire(pl *plan) []string {
	var out []string
	line := func(srv, kind string, ps []piece) {
		var b strings.Builder
		fmt.Fprintf(&b, "%s%s:", srv, kind)
		for _, p := range ps {
			fmt.Fprintf(&b, " %d:%d+%d", p.chunk, p.off, len(p.buf))
		}
		out = append(out, b.String())
	}
	for _, b := range pl.batches {
		line(b.srv, "", b.ps)
		if len(b.tails) > 0 {
			line(b.srv, " tail", b.tails)
		}
	}
	return out
}

// charges is what a read's plan charges each server: its batches'
// bytes.
func charges(pl *plan) map[string]int {
	m := map[string]int{}
	for _, b := range pl.batches {
		m[b.srv] += b.bytes
	}
	return m
}

// planView is a two-server view, p0 and p1 alive, and chunks whose
// primary is p0, in ascending order.
func planView(t *testing.T, n int) (*GlobalState, []int64) {
	t.Helper()
	st := NewGlobalState([]string{"p0", "p1"})
	var chunks []int64
	for c := int64(0); len(chunks) < n; c++ {
		if p1, _ := st.Replicas("vol", c); p1 == "p0" {
			chunks = append(chunks, c)
		}
	}
	return &st, chunks
}

// TestPlanRequests pins the requests the planner sends for each shape
// of call: the cut (shares, parts), the route (balance, ties, dead
// replicas, what was tried), the batches (caps, tails) and a read's
// charges.
func TestPlanRequests(t *testing.T) {
	st, ch := planView(t, 17)
	a := ch[0]
	buf := func(n int) []byte { return make([]byte, n) }
	at := func(c int64, off int) int64 { return c*ChunkSize + int64(off) }
	read := func() planIn { return planIn{view: st, v: "vol", balance: true, load: loadMap{}} }
	write := func() planIn { return planIn{view: st, v: "vol", write: true} }
	s := func(format string, args ...any) string { return fmt.Sprintf(format, args...) }

	mb := make([]Extent, 16)
	for i := range mb {
		mb[i] = Extent{Off: at(ch[i], 0), Data: buf(ChunkSize)}
	}
	many := make([]Extent, 257)
	for i := range many {
		many[i] = Extent{Off: at(a, 128*i), Data: buf(128)}
	}
	dead := func() planIn {
		in := read()
		view := st.Clone()
		view.Alive["p0"] = false
		in.view = &view
		return in
	}

	for _, tc := range []struct {
		name    string
		in      planIn
		exts    []Extent
		want    []string
		charges map[string]int // a read's; nil for a write
		parted  bool
		rr      uint64
	}{{
		name:    "4 KB read: one request; the tie goes to the backup",
		in:      read(),
		exts:    []Extent{{Off: at(a, 8192), Data: buf(4096)}},
		want:    []string{s("p1: %d:8192+4096", a)},
		charges: map[string]int{"p1": 4096},
		rr:      1,
	}, {
		name:    "4 KB read, the backup loaded: the primary",
		in:      planIn{view: st, v: "vol", balance: true, load: loadMap{"p1": 1}},
		exts:    []Extent{{Off: at(a, 8192), Data: buf(4096)}},
		want:    []string{s("p0: %d:8192+4096", a)},
		charges: map[string]int{"p0": 4096},
	}, {
		name:    "64 KB read, not lone: a half to each replica",
		in:      read(),
		exts:    []Extent{{Off: at(a, 0), Data: buf(ChunkSize)}},
		want:    []string{s("p1: %d:0+32768", a), s("p0: %d:32768+32768", a)},
		charges: map[string]int{"p0": 32768, "p1": 32768},
		rr:      1,
	}, {
		name: "64 KB read, lone: each half in two parts",
		in:   func() planIn { in := read(); in.lone = true; return in }(),
		exts: []Extent{{Off: at(a, 0), Data: buf(ChunkSize)}},
		want: []string{
			s("p1: %d:0+16384", a), s("p1 tail: %d:16384+16384", a),
			s("p0: %d:32768+16384", a), s("p0 tail: %d:49152+16384", a),
		},
		charges: map[string]int{"p0": 32768, "p1": 32768},
		parted:  true,
		rr:      1,
	}, {
		name: "lone read with a small piece beside its one shared span: parted",
		in:   func() planIn { in := read(); in.lone = true; in.rr = 1; return in }(),
		exts: []Extent{{Off: at(ch[1], 0), Data: buf(512)}, {Off: at(a, 0), Data: buf(ChunkSize)}},
		want: []string{
			s("p0: %d:0+512 %d:32768+16384", ch[1], a), s("p0 tail: %d:49152+16384", a),
			s("p1: %d:0+16384", a), s("p1 tail: %d:16384+16384", a),
		},
		charges: map[string]int{"p0": 512 + 32768, "p1": 32768},
		parted:  true,
		rr:      2,
	}, {
		name:   "16 KB write someone waits for: two parts to the primary",
		in:     write(),
		exts:   []Extent{{Off: at(a, 16384), Data: buf(16384)}},
		want:   []string{s("p0: %d:16384+8192", a), s("p0 tail: %d:24576+8192", a)},
		parted: true,
	}, {
		name:   "128 KB write, both chunks on one primary: halved between them",
		in:     write(),
		exts:   []Extent{{Off: at(a, 0), Data: buf(ChunkSize)}, {Off: at(ch[1], 0), Data: buf(ChunkSize)}},
		want:   []string{s("p0: %d:0+65536", a), s("p0 tail: %d:0+65536", ch[1])},
		parted: true,
	}, {
		name: "three 12 KB runs to one primary: halved at the page past the middle",
		in:   write(),
		exts: []Extent{{Off: at(a, 0), Data: buf(12288)}, {Off: at(a, 32768), Data: buf(12288)}, {Off: at(ch[1], 0), Data: buf(12288)}},
		want: []string{
			s("p0: %d:0+12288 %d:32768+8192", a, a),
			s("p0 tail: %d:40960+4096 %d:0+12288", a, ch[1]),
		},
		parted: true,
	}, {
		name: "a write of a page and a half: whole",
		in:   write(),
		exts: []Extent{{Off: at(a, 512), Data: buf(6144)}},
		want: []string{s("p0: %d:512+6144", a)},
	}, {
		name:    "1 MB ReadV: sixteen halves a replica, one request each",
		in:      read(),
		exts:    mb,
		want:    mbHalves(ch[:16]),
		charges: map[string]int{"p0": 1 << 19, "p1": 1 << 19},
		rr:      16,
	}, {
		name: "1 MB ReadV and one chunk more, balancing off: cut at 1 MB",
		in:   planIn{view: st, v: "vol", load: loadMap{}},
		exts: append(slices.Clone(mb), Extent{Off: at(ch[16], 0), Data: buf(ChunkSize)}),
		want: []string{
			"p0:" + wholeChunks(ch[:16]),
			"p0:" + wholeChunks(ch[16:17]),
		},
		charges: map[string]int{"p0": 1<<20 + ChunkSize},
	}, {
		name:    "257 extents, balancing off: cut at 256",
		in:      planIn{view: st, v: "vol", load: loadMap{}},
		exts:    many,
		want:    []string{"p0:" + smallExtents(a, 0, 256), "p0:" + smallExtents(a, 256, 257)},
		charges: map[string]int{"p0": 257 * 128},
	}, {
		name:    "a dead replica: no halves, the live one, whole",
		in:      dead(),
		exts:    []Extent{{Off: at(a, 0), Data: buf(ChunkSize)}},
		want:    []string{s("p1: %d:0+65536", a)},
		charges: map[string]int{"p1": 65536},
	}, {
		name:   "a dead primary: a write to the backup",
		in:     func() planIn { in := dead(); in.write = true; return in }(),
		exts:   []Extent{{Off: at(a, 0), Data: buf(4096)}},
		want:   []string{s("p1: %d:0+4096", a)},
		parted: false,
	}, {
		name:    "no view: nothing is cut or sent",
		in:      planIn{v: "vol", balance: true, lone: true, load: loadMap{}},
		exts:    []Extent{{Off: at(a, 0), Data: buf(ChunkSize)}},
		charges: map[string]int{},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			var pl plan
			pl.build(&tc.in, tc.exts, nil)
			if got := onWire(&pl); !slices.Equal(got, tc.want) {
				t.Errorf("sent\n  %s\nwant\n  %s", strings.Join(got, "\n  "), strings.Join(tc.want, "\n  "))
			}
			if tc.charges != nil && !maps.Equal(charges(&pl), tc.charges) {
				t.Errorf("charges %v, want %v", charges(&pl), tc.charges)
			}
			if pl.parted != tc.parted || pl.rr != tc.rr {
				t.Errorf("parted %v, tie-break %d; want %v, %d", pl.parted, pl.rr, tc.parted, tc.rr)
			}
			if tc.in.view != nil && len(pl.none) != 0 {
				t.Errorf("%d pieces found no replica", len(pl.none))
			}
		})
	}
}

// TestPlanFailover: a round planned again for what a server did not
// serve sends each piece to the replica it has not tried, tails behind
// their heads, then to none; a new view, its tries forgotten, plans
// the parked pieces as it plans fresh ones; a call with no view parks
// everything.
func TestPlanFailover(t *testing.T) {
	st, ch := planView(t, 1)
	a := ch[0]
	in := planIn{view: st, v: "vol", balance: true, lone: true, load: loadMap{}}
	var pl plan
	pl.build(&in, []Extent{{Off: a * ChunkSize, Data: make([]byte, ChunkSize)}}, nil)
	// p1 fails both parts of its half.
	var failed []piece
	for _, b := range pl.batches {
		if b.srv == "p1" {
			failed = append(append(failed, b.ps...), b.tails...)
		}
	}
	pl.build(&in, nil, failed)
	want := []string{fmt.Sprintf("p0: %d:0+16384", a), fmt.Sprintf("p0 tail: %d:16384+16384", a)}
	if got := onWire(&pl); !slices.Equal(got, want) {
		t.Fatalf("failed over as %v, want %v", got, want)
	}
	if n := pl.batches[0].ps[0].primary; n != "p0" {
		t.Errorf("a failed-over piece counts towards the balance as %q's, want p0's", n)
	}
	// p0 fails them too: no replica is left.
	failed = append(slices.Clone(pl.batches[0].ps), pl.batches[0].tails...)
	pl.build(&in, nil, failed)
	if len(pl.batches) != 0 || len(pl.none) != 2 {
		t.Fatalf("with both replicas tried: %v and %d pieces with none, want nothing sent and 2", onWire(&pl), len(pl.none))
	}

	// A stale view parks the pieces; the next attempt forgets what they
	// tried and plans them as fresh ones, the tail where its head goes.
	parked := slices.Clone(pl.none)
	for i := range parked {
		parked[i].tried, parked[i].primary = 0, ""
	}
	in.load = loadMap{"p1": 1}
	pl.build(&in, nil, parked)
	want = []string{fmt.Sprintf("p0: %d:0+16384", a), fmt.Sprintf("p0 tail: %d:16384+16384", a)}
	if got := onWire(&pl); !slices.Equal(got, want) {
		t.Errorf("re-planned after a park as %v, want %v", got, want)
	}

	// No view: every piece is parked, nothing is sent or charged.
	in.view = nil
	pl.build(&in, nil, parked)
	if len(pl.batches) != 0 || len(pl.none) != len(parked) {
		t.Errorf("with no view: %v sent and %d parked, want none and %d", onWire(&pl), len(pl.none), len(parked))
	}
}

// TestPlanImportsNoIO: the planner stays pure — no locks, network or
// observability in the file that holds it, and of sim only its time
// types (lockservice's TestCoreImportsNoIO holds its core.go to the
// same).
func TestPlanImportsNoIO(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "plan.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		switch {
		case path == "sync", path == "sync/atomic", path == "time", path == "os", path == "net":
			t.Errorf("plan.go imports %q", path)
		case strings.HasPrefix(path, "frangipani/") && path != "frangipani/internal/sim":
			t.Errorf("plan.go imports %q", path)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "sim" && sel.Sel.Name != "Time" && sel.Sel.Name != "Duration" {
				t.Errorf("plan.go uses sim.%s", sel.Sel.Name)
			}
		}
		return true
	})
}

// mbHalves is a balanced 1 MB read of chunks, not lone: every chunk's
// first half to the less loaded replica — a tie each time, so the backup,
// p1, for the first chunk, then alternating — and its second half to the
// other, so each replica's request carries a half of every chunk.
func mbHalves(chunks []int64) []string {
	p1, p0 := "p1:", "p0:"
	for i, c := range chunks {
		first, second := &p1, &p0
		if i%2 == 1 {
			first, second = second, first
		}
		*first += fmt.Sprintf(" %d:0+32768", c)
		*second += fmt.Sprintf(" %d:32768+32768", c)
	}
	return []string{p1, p0}
}

// wholeChunks renders whole-chunk extents.
func wholeChunks(chunks []int64) string {
	s := ""
	for _, c := range chunks {
		s += fmt.Sprintf(" %d:0+65536", c)
	}
	return s
}

// smallExtents renders extents i in [lo, hi) of 128 bytes at 128*i in
// chunk.
func smallExtents(chunk int64, lo, hi int) string {
	s := ""
	for i := lo; i < hi; i++ {
		s += fmt.Sprintf(" %d:%d+128", chunk, 128*i)
	}
	return s
}
