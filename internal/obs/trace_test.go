package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// fakeClock is a deterministic NowFunc for trace tests.
type fakeClock struct {
	mu sync.Mutex
	t  int64
}

func (c *fakeClock) now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += 1e6 // 1ms per observation
	return c.t
}

func TestSpanTreeStructure(t *testing.T) {
	r := NewRegistry((&fakeClock{}).now)
	tr := r.Tracer()

	root := tr.Start(r.Journal("ws1"), "fs", "sync")
	if root.TraceID != root.ID || root.Parent != 0 {
		t.Fatalf("root span malformed: %+v", root)
	}
	child := root.Child("wal", "flush")
	if child.TraceID != root.TraceID || child.Parent != root.ID {
		t.Fatalf("child not parented: %+v", child)
	}
	g := child.Child("petal", "write")
	if g.TraceID != root.TraceID || g.Parent != child.ID {
		t.Fatalf("grandchild not parented: %+v", g)
	}
	g.Done()
	child.Done()
	// A second child of the root hangs from the root, whatever ran
	// between: parentage is the receiver's, not the last span's.
	if sib := root.Child("wal", "flush"); sib.Parent != root.ID {
		t.Fatalf("sibling parented to %d, want the root %d", sib.Parent, root.ID)
	}
	trace := root.TraceID
	root.Done()
	if tr.LastRoot() != trace {
		t.Fatalf("LastRoot %d, want %d", tr.LastRoot(), trace)
	}

	spans := tr.SpansFor(trace)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	out := tr.RenderTrace(trace)
	for _, want := range []string{"fs.sync", "wal.flush", "petal.write"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// petal.write must be indented deeper than wal.flush.
	if strings.Index(out, "    wal.flush") < 0 || strings.Index(out, "      petal.write") < 0 {
		t.Errorf("tree indentation wrong:\n%s", out)
	}
}

// TestChildRequiresBinding: a child needs a span to hang from. Work that
// was handed none (a nil handle: background flushing, prefetch) opens
// no spans, all the way down, and every method is safe on the nil.
func TestChildRequiresBinding(t *testing.T) {
	r := NewRegistry((&fakeClock{}).now)
	tr := r.Tracer()
	var none *Span
	sp := none.Child("wal", "flush")
	if sp != nil || sp.Child("petal", "write") != nil {
		t.Fatal("Child of no span must be nil")
	}
	if d := sp.Done(); sp.Ctx() != (Ctx{}) || d != 0 {
		t.Fatalf("nil span has context %+v and lasted %d", sp.Ctx(), d)
	}
	root := tr.Start(r.Journal("ws1"), "fs", "write")
	if sp := root.Child("wal", "flush"); sp == nil {
		t.Fatal("Child inside a trace must return a span")
	} else {
		sp.Done()
	}
	trace := root.TraceID
	root.Done()
	if n := len(tr.SpansFor(trace)); n != 2 {
		t.Fatalf("%d spans recorded, want 2", n)
	}
}

func TestRemoteParenting(t *testing.T) {
	r := NewRegistry((&fakeClock{}).now)
	tr := r.Tracer()
	// The receive side of a request carrying an operation's context.
	sp := tr.Remote(r.Journal("petal0"), Ctx{Trace: 42, Span: 7, Principal: "tenant-a"}, "petal", "server.write")
	if sp.TraceID != 42 || sp.Parent != 7 || sp.Principal != "tenant-a" {
		t.Fatalf("remote-parented span: %+v", sp)
	}
	id := sp.ID
	sp.Done()
	if got := tr.SpansFor(42); len(got) != 1 || got[0].ID != id {
		t.Fatalf("trace 42 holds %+v, want the server span alone", got)
	}
	if tr.Remote(r.Journal("petal0"), Ctx{Span: 9, Principal: "tenant-a"}, "petal", "server.write") != nil {
		t.Fatal("Remote with zero trace ID must be nil")
	}
	var off *Tracer
	if off.Remote(nil, Ctx{Trace: 1}, "petal", "server.write") != nil {
		t.Fatal("nil tracer must hand out nil spans")
	}
}

// TestPrincipalBinding: a principal is bound to the root span, every
// descendant carries it, and it crosses the wire in the span's context.
// Concurrent operations cannot see each other's: there is nothing
// shared to see it through.
func TestPrincipalBinding(t *testing.T) {
	r := NewRegistry((&fakeClock{}).now)
	tr := r.Tracer()
	root := tr.Start(r.Journal("ws1"), "fs", "write")
	if root.Ctx().Principal != "" {
		t.Fatalf("fresh root runs for %q", root.Principal)
	}
	root.Principal = "alice"
	leaf := root.Child("wal", "flush").Child("petal", "write")
	if leaf.Principal != "alice" {
		t.Fatalf("grandchild runs for %q, want alice", leaf.Principal)
	}
	want := Ctx{Trace: root.TraceID, Span: leaf.ID, Principal: "alice"}
	if got := leaf.Ctx(); got != want {
		t.Fatalf("wire context %+v, want %+v", got, want)
	}
	if far := tr.Remote(r.Journal("petal0"), leaf.Ctx(), "petal", "server.write"); far.Principal != "alice" || far.Parent != leaf.ID {
		t.Fatalf("far side: %+v", far)
	}
	other := tr.Start(r.Journal("ws1"), "fs", "read")
	other.Principal = "bob"
	if root.Child("wal", "flush").Principal != "alice" || other.Child("cache", "fill").Principal != "bob" {
		t.Fatal("principals of two live operations mixed")
	}
}

func TestConcurrentTracing(t *testing.T) {
	r := NewRegistry(nil) // wall clock
	tr := r.Tracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				root := tr.Start(r.Journal("ws1"), "fs", "op")
				c := root.Child("wal", "append")
				if c.TraceID != root.TraceID || c.Parent != root.ID {
					t.Error("child joined another goroutine's trace")
				}
				c.Done()
				root.Done()
			}
		}()
	}
	wg.Wait()
}

// TestSpanLifecycleConcurrent: goroutines open roots, children and
// remote spans and end them at once (run under -race), so spans go back
// to the pool and out again while others are live. Every record keeps
// the trace, parent and principal of its place in the tree, and a span
// is zero after Done.
func TestSpanLifecycleConcurrent(t *testing.T) {
	r := NewRegistry(nil)
	tr := r.Tracer()
	type opened struct {
		trace, parent uint64
		principal     string
	}
	const workers, rounds = 8, 150 // 3600 records, one ring's worth at most
	want := make([]map[uint64]opened, workers)
	var wg sync.WaitGroup
	for w := range want {
		want[w] = make(map[uint64]opened)
		wg.Add(1)
		go func() {
			defer wg.Done()
			jr, far := r.Journal(fmt.Sprintf("ws%d", w%2)), r.Journal(fmt.Sprintf("petal%d", w%2))
			for i := 0; i < rounds; i++ {
				who := fmt.Sprintf("p%d", w)
				root := tr.Start(jr, "fs", "write")
				root.Principal = who
				child := root.Child("wal", "flush")
				remote := tr.Remote(far, child.Ctx(), "petal", "server.writev")
				want[w][root.ID] = opened{root.ID, 0, who}
				want[w][child.ID] = opened{root.ID, root.ID, who}
				want[w][remote.ID] = opened{root.ID, child.ID, who}
				remote.Done()
				child.Done()
				root.Done()
			}
		}()
	}
	wg.Wait()
	all := make(map[uint64]opened)
	for _, m := range want {
		for id, o := range m {
			all[id] = o
		}
	}
	records := 0
	for _, j := range r.Journals() {
		for _, e := range j.Events() {
			if e.Kind != SpanKind {
				continue
			}
			records++
			if o, ok := all[e.Key]; !ok || o != (opened{e.Trace, e.Parent, e.Detail}) {
				t.Fatalf("%s: record %+v, span opened as %+v (known: %v)", j.Server(), e, o, ok)
			}
		}
	}
	if records != len(all) {
		t.Fatalf("%d span records for %d spans", records, len(all))
	}

	// Read after Done on purpose, with nothing else running: the span
	// went back to the pool zeroed.
	sp := tr.Start(r.Journal("ws0"), "fs", "read")
	sp.Principal = "alice"
	sp.Done()
	if *sp != (Span{}) {
		t.Fatalf("span after Done: %+v", *sp)
	}
}

// A span's record leaves with its ring's oldest records: the spans of
// a busy server's ring turn over, another server's ring keeps its own.
func TestRingEviction(t *testing.T) {
	r := NewRegistry((&fakeClock{}).now)
	tr := r.Tracer()
	quiet := tr.Start(r.Journal("ws2"), "fs", "op")
	quietTrace := quiet.TraceID
	quiet.Done()
	first := tr.Start(r.Journal("ws1"), "fs", "op")
	firstTrace := first.TraceID
	first.Done()
	for i := 0; i < DefaultJournalCap+10; i++ {
		sp := tr.Start(r.Journal("ws1"), "fs", "op")
		sp.Done()
	}
	if got := tr.SpansFor(firstTrace); len(got) != 0 {
		t.Fatalf("evicted span still visible: %v", got)
	}
	if got := tr.SpansFor(quietTrace); len(got) != 1 {
		t.Fatalf("the quiet ring lost its span: %v", got)
	}
}

// TestSpanWithRingOff: with the recorder off (a nil journal) a span
// still exists — it is timed, carries its context and principal, and
// parents children — only its record is skipped.
func TestSpanWithRingOff(t *testing.T) {
	r := NewRegistry((&fakeClock{}).now)
	r.SetJournal(false)
	tr := r.Tracer()
	root := tr.Start(r.Journal("ws1"), "fs", "write")
	root.Principal = "alice"
	child := root.Child("wal", "flush")
	if child == nil || child.Ctx() != (Ctx{Trace: root.TraceID, Span: child.ID, Principal: "alice"}) {
		t.Fatalf("child of an unrecorded span: %+v", child)
	}
	childD := child.Done()
	rootD := root.Done()
	if rootD <= 0 || childD <= 0 {
		t.Fatalf("unrecorded spans untimed: %d, %d", rootD, childD)
	}
	if tr.LastRoot() != 0 || len(r.Journals()) != 0 {
		t.Fatal("a span was recorded with the ring off")
	}
}

// TestSpanRecord: a finished span is one record in its server's ring,
// beside that server's events: Kind "span", Key its ID, Arg its
// duration, Detail its principal, T its end, and its trace and parent.
func TestSpanRecord(t *testing.T) {
	r := NewRegistry((&fakeClock{}).now)
	jr := r.Journal("ws1")
	root := r.Tracer().Start(jr, "fs", "create")
	root.Principal = "alice"
	child := root.Child("wal", "append")
	rootSp, childSp := *root, *child // what the records must say, read before Done
	jr.Record("wal", "append", "ok", 9, 128, "")
	childD := child.Done()
	rootD := root.Done()
	evs := jr.Events()
	if len(evs) != 3 || evs[0].Kind != "ok" || evs[1].Op != "append" || evs[2].Op != "create" {
		t.Fatalf("ring holds %+v", evs)
	}
	want := Event{Seq: 3, T: rootSp.Start + rootD, Server: "ws1", Layer: "fs", Op: "create", Kind: SpanKind,
		Key: rootSp.ID, Arg: rootD, Detail: "alice", Trace: rootSp.TraceID}
	if evs[2] != want {
		t.Fatalf("root record %+v, want %+v", evs[2], want)
	}
	if c := evs[1]; c.Trace != rootSp.TraceID || c.Parent != rootSp.ID || c.Key != childSp.ID || c.T != childSp.Start+childD {
		t.Fatalf("child record %+v", c)
	}
}
