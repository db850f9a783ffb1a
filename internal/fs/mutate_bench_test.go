package fs

import (
	"fmt"
	"runtime"
	"testing"
)

// warmDir mounts one server whose modelled CPU is free and whose update
// demon is off, and makes the directories /w, which holds a few files,
// and /x.
func warmDir(tb testing.TB) *FS {
	tb.Helper()
	f := newTestWorld(tb).mount(tb, "ws1", func(c *Config) { c.CPUPerOp, c.CPUPerKB = 0, 0 })
	f.syncCancel()
	for _, d := range []string{"/w", "/x"} {
		if err := f.Mkdir(d); err != nil {
			tb.Fatal(err)
		}
	}
	for i := range 5 {
		if err := f.Create(fmt.Sprintf("/w/k%d", i)); err != nil {
			tb.Fatal(err)
		}
	}
	return f
}

// What the calls that change metadata allocate in a warm directory:
// nothing. The operation's transaction comes from the server's free list
// and has room for what such a call touches and logs. They were 1 each
// while every operation's transaction was a new object, and 32, 35, 36, 37 and 30 while a transaction's lists
// grew on the heap, commit copied every range and built the record in a
// buffer of its own, each lookup split its path into two fresh slices
// and an edit of a directory sector worked on a heap copy of it, and 2
// each while the operation's span was a new object. The last is a rename
// onto a file with data in another directory: seven sectors, one more
// than a transaction has room for, so its list of sectors moves to the
// heap (59, then 3, then 2 while the transaction was new, before).
// Raise or lower the numbers only with a change that means to move them.
const (
	createAllocs      = 0
	removeAllocs      = 0
	mkdirAllocs       = 0
	rmdirAllocs       = 0
	renameAllocs      = 0
	renameSpillAllocs = 1
)

// TestMutatingOpAllocs pins them.
func TestMutatingOpAllocs(t *testing.T) {
	f := warmDir(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// least is what call allocates: the fewest of several calls, each
	// undone before the next, since the world's demons allocate in the
	// background and the count is the whole process's.
	least := func(call, undo func() error) float64 {
		least := -1.0
		var ms runtime.MemStats
		for range 40 {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			err := call()
			runtime.ReadMemStats(&ms)
			must(err)
			if n := float64(ms.Mallocs - before); least < 0 || n < least {
				least = n
			}
			must(undo())
		}
		return least
	}
	create := func() error { return f.Create("/w/new") }
	remove := func() error { return f.Remove("/w/new") }
	mkdir := func() error { return f.Mkdir("/w/sub") }
	rmdir := func() error { return f.Rmdir("/w/sub") }
	page := pattern(2*BlockSize, 3)
	refill := func() error {
		writeFile(t, f, "/x/dst", page)
		return f.Create("/w/src")
	}
	must(refill())

	got := map[string]float64{"create": least(create, remove)}
	must(create())
	got["remove"] = least(remove, create)
	got["mkdir"] = least(mkdir, rmdir)
	must(mkdir())
	got["rmdir"] = least(rmdir, mkdir)
	got["rename"] = least(
		func() error { return f.Rename("/w/k0", "/w/moved") },
		func() error { return f.Rename("/w/moved", "/w/k0") })
	got["rename that spills"] = least(func() error { return f.Rename("/w/src", "/x/dst") }, refill)
	t.Logf("allocs per call: %v", got)
	// Exact under the race detector too: nothing on these paths comes
	// from a sync.Pool.
	for name, want := range map[string]float64{
		"create": createAllocs, "remove": removeAllocs, "mkdir": mkdirAllocs, "rmdir": rmdirAllocs,
		"rename": renameAllocs, "rename that spills": renameSpillAllocs,
	} {
		if got[name] != want {
			t.Errorf("%s allocates %v times, want %v", name, got[name], want)
		}
	}
}

// BenchmarkCreateRemove is the host cost of the pair every small-file
// loop is made of, in a warm directory with the modelled CPU free.
func BenchmarkCreateRemove(b *testing.B) {
	f := warmDir(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Create("/w/new"); err != nil {
			b.Fatal(err)
		}
		if err := f.Remove("/w/new"); err != nil {
			b.Fatal(err)
		}
	}
}
