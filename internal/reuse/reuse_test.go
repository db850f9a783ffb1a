package reuse

import (
	"go/parser"
	"go/token"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// TestListTakesTheLastPutFirst: the zero List is empty, Take hands back
// what Put gave it, the last first, and Len counts what it holds.
func TestListTakesTheLastPutFirst(t *testing.T) {
	var l List[*int]
	if x, ok := l.Take(); ok || x != nil || l.Len() != 0 {
		t.Fatalf("a zero List: Take returned %v, %v; Len %d", x, ok, l.Len())
	}
	a, b, c := new(int), new(int), new(int)
	for i, x := range []*int{a, b, c} {
		l.Put(x)
		if l.Len() != i+1 {
			t.Fatalf("Len %d after %d Puts", l.Len(), i+1)
		}
	}
	for _, want := range []*int{c, b, a} {
		if x, ok := l.Take(); !ok || x != want {
			t.Fatalf("Take returned %p, %v; want %p", x, ok, want)
		}
	}
	if _, ok := l.Take(); ok || l.Len() != 0 {
		t.Fatalf("a drained List: Take ok %v, Len %d", ok, l.Len())
	}
}

// signal is a job that tells done it has run.
type signal struct{ done chan struct{} }

func (s signal) Run() { s.done <- struct{}{} }

// waitUntil polls ok for up to five seconds.
func waitUntil(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !ok(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: never", what)
		}
	}
}

// TestWorkersParkAndEnd: hands made one after the other all run on one
// goroutine, which parks between them; Close ends it; and a hand after
// Close still runs, on a worker that then ends.
func TestWorkersParkAndEnd(t *testing.T) {
	before := runtime.NumGoroutine()
	var w Workers[signal]
	s := signal{make(chan struct{})}
	for i := 0; i < 20; i++ {
		w.Go(s)
		<-s.done
		waitUntil(t, "the worker parked", func() bool { return w.Parked() == 1 })
		if n := runtime.NumGoroutine() - before; n != 1 {
			t.Fatalf("hand %d: %d goroutines more than before, want the one worker", i, n)
		}
	}
	w.Close()
	if n := w.Parked(); n != 0 {
		t.Fatalf("%d workers parked after Close", n)
	}
	waitUntil(t, "Close ended the worker", func() bool { return runtime.NumGoroutine() <= before })

	w.Go(s)
	<-s.done
	waitUntil(t, "the worker of a hand after Close ended", func() bool { return runtime.NumGoroutine() <= before })
	if n := w.Parked(); n != 0 {
		t.Fatalf("%d workers parked after a hand after Close", n)
	}
}

// TestReuseAllocs: a hand to a parked worker, and a Take and Put on a
// list that has held as much before, allocate nothing.
func TestReuseAllocs(t *testing.T) {
	var w Workers[signal]
	defer w.Close()
	s := signal{make(chan struct{})}
	hand := func() {
		w.Go(s)
		<-s.done
		for w.Parked() == 0 {
			runtime.Gosched()
		}
	}
	if n := testing.AllocsPerRun(100, hand); n != 0 {
		t.Errorf("a hand to a parked worker allocates %v times, want 0", n)
	}
	var l List[*int]
	x := new(int)
	if n := testing.AllocsPerRun(100, func() {
		l.Put(x)
		l.Put(x)
		l.Take()
		l.Take()
	}); n != 0 {
		t.Errorf("a warm Take and Put allocate %v times, want 0", n)
	}
}

// TestReuseImportsOnlySync: the package stays a leaf, so that a file
// held to a short list of imports (the file system's gate) may use it.
func TestReuseImportsOnlySync(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "reuse.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path != "sync" {
			t.Errorf("reuse.go imports %q", path)
		}
	}
}
