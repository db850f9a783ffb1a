package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestJournalWraparound drives a small ring far past capacity from
// concurrent writers (run under -race) and checks the retained tail
// is a consistent, ordered window of the full history.
func TestJournalWraparound(t *testing.T) {
	const capacity = 64
	const writers = 8
	const perWriter = 500
	j := NewJournal("ws1", capacity, nil)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				j.Record("lockservice", "acquire", "wait", uint64(w), int64(i), "t")
			}
		}(w)
	}
	wg.Wait()

	if got, want := j.Seq(), uint64(writers*perWriter); got != want {
		t.Fatalf("seq = %d, want %d", got, want)
	}
	if got := j.Len(); got != capacity {
		t.Fatalf("len = %d, want %d (full ring)", got, capacity)
	}
	evs := j.Events()
	if len(evs) != capacity {
		t.Fatalf("events = %d, want %d", len(evs), capacity)
	}
	// The retained window is the last `capacity` records: seqs are
	// distinct, strictly increasing, and end at the global max.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("seq not increasing at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
		if evs[i].T < evs[i-1].T {
			t.Fatalf("time went backwards at %d", i)
		}
	}
	if evs[len(evs)-1].Seq != uint64(writers*perWriter) {
		t.Fatalf("tail seq = %d, want %d", evs[len(evs)-1].Seq, writers*perWriter)
	}
	if evs[0].Seq != uint64(writers*perWriter-capacity+1) {
		t.Fatalf("head seq = %d, want %d", evs[0].Seq, writers*perWriter-capacity+1)
	}
	if evs[0].Server != "ws1" || evs[0].Layer != "lockservice" {
		t.Fatalf("record fields lost: %+v", evs[0])
	}
}

// TestJournalConcurrentReaders interleaves Events snapshots with
// writers; under -race this proves snapshotting is safe, and each
// snapshot must be internally ordered.
func TestJournalConcurrentReaders(t *testing.T) {
	j := NewJournal("ws1", 32, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				j.Record("wal", "append", "ok", uint64(i), 0, "")
			}
		}
	}()
	for r := 0; r < 50; r++ {
		evs := j.Events()
		for i := 1; i < len(evs); i++ {
			if evs[i].Seq != evs[i-1].Seq+1 {
				t.Fatalf("snapshot not contiguous: %d then %d", evs[i-1].Seq, evs[i].Seq)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Record("a", "b", "c", 1, 2, "d")
	if j.Len() != 0 || j.Events() != nil || j.Seq() != 0 || j.Server() != "" {
		t.Fatal("nil journal must be inert")
	}
	var r *Registry
	if r.Journal("ws1") != nil || r.Journals() != nil {
		t.Fatal("nil registry must hand out nil journals")
	}
}

func TestRegistryJournalReuse(t *testing.T) {
	r := NewRegistry(nil)
	a := r.Journal("ws1")
	if a == nil || a != r.Journal("ws1") {
		t.Fatal("Journal must create once and reuse")
	}
	r.Journal("ws2").Record("fs", "crash", "induced", 0, 0, "")
	js := r.Journals()
	if len(js) != 2 || js[0].Server() != "ws1" || js[1].Server() != "ws2" {
		t.Fatalf("Journals() = %v", js)
	}
}

// TestMergeTimelineSkewedClocks merges journals whose clocks disagree
// and checks both properties of the merge: global ordering by
// timestamp where that is consistent, and per-server program order
// preserved even where skew makes timestamps lie.
func TestMergeTimelineSkewedClocks(t *testing.T) {
	// ws1's clock runs 100 units ahead of ws2's.
	var t1, t2 atomic.Int64
	t1.Store(100)
	j1 := NewJournal("ws1", 16, func() int64 { return t1.Add(10) })
	j2 := NewJournal("ws2", 16, func() int64 { return t2.Add(10) })

	// Interleaved causal history: ws1 revokes, ws2 releases, ws1
	// grants — but ws2's timestamps are all far "earlier".
	j1.Record("lockservice", "revoke", "sent", 5, 0, "")   // T=110
	j2.Record("lockservice", "revoke", "recv", 5, 0, "")   // T=10
	j2.Record("lockservice", "release", "sent", 5, 0, "")  // T=20
	j1.Record("lockservice", "grant", "sent", 5, 0, "")    // T=120
	j1.Record("lockservice", "lease", "renew", 0, 0, "ok") // T=130

	evs := MergeTimeline([]*Journal{j1, j2}, Filter{})
	if len(evs) != 5 {
		t.Fatalf("merged %d events, want 5", len(evs))
	}
	// Per-server order must be program order despite skew.
	var ws1, ws2 []uint64
	for _, e := range evs {
		switch e.Server {
		case "ws1":
			ws1 = append(ws1, e.Seq)
		case "ws2":
			ws2 = append(ws2, e.Seq)
		}
	}
	for i := 1; i < len(ws1); i++ {
		if ws1[i] <= ws1[i-1] {
			t.Fatalf("ws1 order broken: %v", ws1)
		}
	}
	for i := 1; i < len(ws2); i++ {
		if ws2[i] <= ws2[i-1] {
			t.Fatalf("ws2 order broken: %v", ws2)
		}
	}
	// With skew this large the merge sorts ws2's early-stamped events
	// first — that is the documented timestamp ordering.
	if evs[0].Server != "ws2" || evs[len(evs)-1].Server != "ws1" {
		t.Fatalf("unexpected global order: first=%s last=%s", evs[0].Server, evs[len(evs)-1].Server)
	}
	// Equal timestamps break ties by server name, deterministically.
	j3 := NewJournal("a", 4, func() int64 { return 50 })
	j4 := NewJournal("b", 4, func() int64 { return 50 })
	j4.Record("fs", "x", "k", 0, 0, "")
	j3.Record("fs", "x", "k", 0, 0, "")
	tie := MergeTimeline([]*Journal{j4, j3}, Filter{})
	if tie[0].Server != "a" || tie[1].Server != "b" {
		t.Fatalf("tie-break order: %s then %s", tie[0].Server, tie[1].Server)
	}
}

func TestMergeTimelineFilter(t *testing.T) {
	r := NewRegistry(nil)
	j := r.Journal("ws1")
	j.Record("lockservice", "acquire", "wait", 7, 1, "")
	j.Record("wal", "flush", "ok", 9, 2, "")
	r.Journal("ws2").Record("lockservice", "grant", "sent", 7, 3, "")

	byKey := MergeTimeline(r.Journals(), Filter{Key: 7})
	if len(byKey) != 2 {
		t.Fatalf("key filter: %d events, want 2", len(byKey))
	}
	byLayer := MergeTimeline(r.Journals(), Filter{Layer: "wal"})
	if len(byLayer) != 1 || byLayer[0].Op != "flush" {
		t.Fatalf("layer filter: %+v", byLayer)
	}
	byServer := MergeTimeline(r.Journals(), Filter{Server: "ws2"})
	if len(byServer) != 1 || byServer[0].Server != "ws2" {
		t.Fatalf("server filter: %+v", byServer)
	}
	cut := byKey[1].T
	since := MergeTimeline(r.Journals(), Filter{Since: cut})
	for _, e := range since {
		if e.T < cut {
			t.Fatalf("since filter leaked event at %d < %d", e.T, cut)
		}
	}
}

// TestMergeTimelineCombinedFilter checks that predicates compose as a
// conjunction: an event must satisfy key AND since AND layer at once,
// and each predicate alone would admit more.
func TestMergeTimelineCombinedFilter(t *testing.T) {
	var clock atomic.Int64
	r := NewRegistry(func() int64 { return clock.Add(10) })
	j1, j2 := r.Journal("ws1"), r.Journal("ws2")

	j1.Record("lockservice", "acquire", "wait", 7, 0, "") // T=10: right key+layer, too early
	j1.Record("wal", "flush", "ok", 7, 0, "")             // T=20: right key, wrong layer
	j2.Record("lockservice", "grant", "sent", 9, 0, "")   // T=30: wrong key
	j2.Record("lockservice", "revoke", "sent", 7, 0, "")  // T=40: matches all three
	j1.Record("lockservice", "release", "recv", 7, 0, "") // T=50: matches all three

	f := Filter{Key: 7, Since: 25, Layer: "lockservice"}
	got := MergeTimeline(r.Journals(), f)
	if len(got) != 2 {
		t.Fatalf("combined filter kept %d events, want 2: %+v", len(got), got)
	}
	if got[0].Op != "revoke" || got[1].Op != "release" {
		t.Fatalf("combined filter order: %+v", got)
	}
	for _, e := range got {
		if e.Key != 7 || e.T < 25 || e.Layer != "lockservice" {
			t.Fatalf("combined filter leaked %+v", e)
		}
	}
	// Each predicate alone is strictly weaker — the conjunction is
	// doing real work, not shadowed by a single clause.
	for name, weak := range map[string]Filter{
		"key":   {Key: 7},
		"since": {Since: 25},
		"layer": {Layer: "lockservice"},
	} {
		if n := len(MergeTimeline(r.Journals(), weak)); n <= 2 {
			t.Fatalf("%s-only filter kept %d, expected more than combined", name, n)
		}
	}
}

func TestRenderTimeline(t *testing.T) {
	if !strings.Contains(RenderTimeline(nil, nil), "no events") {
		t.Fatal("empty timeline must say so")
	}
	j := NewJournal("ws1", 4, nil)
	j.Record("lockservice", "lease", "expire", 42, 0, "session ws1")
	out := RenderTimeline(j.Events(), func(layer string, key uint64) string {
		if layer == "lockservice" && key == 42 {
			return "inode/42"
		}
		return "?"
	})
	for _, want := range []string{"ws1", "lockservice.lease", "expire", "inode/42", "session ws1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
}

// TestJournalMixesSpansInOrder: spans and events written into one ring
// from concurrent writers (run under -race) are stamped inside the
// ring's lock, so the ring stays non-decreasing in T whatever the mix —
// the per-server order MergeTimeline relies on. Each ring is written
// past its capacity, so the order holds across the wrap too.
func TestJournalMixesSpansInOrder(t *testing.T) {
	var clock atomic.Int64
	r := NewRegistry(func() int64 { return clock.Add(1) })
	tr := r.Tracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			jr := r.Journal(fmt.Sprintf("ws%d", w%2))
			for i := 0; i < 400; i++ { // 4 writers x 400 x 3 records > DefaultJournalCap
				root := tr.Start(jr, "fs", "create")
				jr.Record("wal", "append", "ok", uint64(i), 64, "")
				root.Child("wal", "flush").Done()
				root.Done()
			}
		}(w)
	}
	wg.Wait()
	spans := 0
	for _, j := range r.Journals() {
		evs := j.Events()
		for i := 1; i < len(evs); i++ {
			if evs[i].T < evs[i-1].T || evs[i].Seq != evs[i-1].Seq+1 {
				t.Fatalf("%s: record %d (%+v) out of order after %+v", j.Server(), i, evs[i], evs[i-1])
			}
		}
		for _, e := range evs {
			if e.Kind == SpanKind {
				spans++
			}
		}
	}
	merged := MergeTimeline(r.Journals(), Filter{})
	last := map[string]uint64{}
	for _, e := range merged {
		if e.Seq <= last[e.Server] {
			t.Fatalf("merge reordered %s: seq %d after %d", e.Server, e.Seq, last[e.Server])
		}
		last[e.Server] = e.Seq
	}
	if spans == 0 || spans == len(merged) {
		t.Fatalf("%d of %d records are spans; the rings do not mix them", spans, len(merged))
	}
}

// TestForensicsJSONGolden: an event's v1 fields are what they were
// before spans shared the ring, and a span record adds only trace and
// parent, both omitted when zero.
func TestForensicsJSONGolden(t *testing.T) {
	var clock atomic.Int64
	r := NewRegistry(func() int64 { return clock.Add(10) })
	jr := r.Journal("ws1")
	root := r.Tracer().Start(jr, "fs", "create") // T=10
	root.Principal = "alice"
	jr.Record("lockservice", "lease", "expire", 7, 3, "ws2/fs0") // T=20
	root.Child("wal", "flush").Done()                            // 30..40
	root.Done()                                                  // T=50
	b, err := json.Marshal(ForensicsDump{Schema: ForensicsSchema, Events: jr.Events()})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"schema":"frangipani-forensics/v1","taken_at_ns":0,"events":[` +
		`{"seq":1,"t_ns":20,"server":"ws1","layer":"lockservice","op":"lease","kind":"expire","key":7,"arg":3,"detail":"ws2/fs0"},` +
		`{"seq":2,"t_ns":40,"server":"ws1","layer":"wal","op":"flush","kind":"span","key":2,"arg":10,"detail":"alice","trace":1,"parent":1},` +
		`{"seq":3,"t_ns":50,"server":"ws1","layer":"fs","op":"create","kind":"span","key":1,"arg":40,"detail":"alice","trace":1}]}`
	if string(b) != want {
		t.Fatalf("forensics JSON\n got %s\nwant %s", b, want)
	}
}

// TestRingRecordsAllocateNothing: a record is a copy into a
// preallocated slot of at most 128 bytes — an event, or a finished span
// — and a span's whole life, Start, Child and Done, takes spans from the
// tracer's free list and gives them back: once warm, nothing is
// allocated, under the race detector too.
func TestRingRecordsAllocateNothing(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 128 {
		t.Fatalf("an Event is %d bytes, the budget is 128", n)
	}
	r := NewRegistry(nil)
	jr := r.Journal("ws1")
	if n := testing.AllocsPerRun(1000, func() { jr.Record("wal", "append", "ok", 7, 64, "") }); n != 0 {
		t.Errorf("Journal.Record allocates %.1f times", n)
	}
	tr := r.Tracer()
	n := testing.AllocsPerRun(1000, func() {
		root := tr.Start(jr, "fs", "create")
		root.Child("wal", "flush").Done()
		root.Done()
	})
	if n != 0 {
		t.Errorf("a span with a child, Start to Done, allocates %.1f times", n)
	}
}
