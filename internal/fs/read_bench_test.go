package fs

import (
	"fmt"
	"io"
	"testing"
	"time"

	"frangipani/internal/sim"
)

// cachedFile mounts one server whose modelled CPU is free (so ReadAt
// never sleeps and only the Go code's own cost is left), writes a 1 MB
// file and reads it once: every page is then resident.
func cachedFile(tb testing.TB) *File { return cachedFileIn(tb, newTestWorld(tb)) }

func cachedFileIn(tb testing.TB, tw *testWorld) *File {
	tb.Helper()
	f := tw.mount(tb, "ws1", func(c *Config) { c.CPUPerOp, c.CPUPerKB = 0, 0 })
	h, err := f.OpenFile("/hot", true)
	if err != nil {
		tb.Fatal(err)
	}
	buf := make([]byte, hotSize)
	if _, err := h.WriteAt(buf, 0); err != nil {
		tb.Fatal(err)
	}
	if _, err := h.ReadAt(buf, 0); err != nil && err != io.EOF {
		tb.Fatal(err)
	}
	return h
}

const hotSize = 1 << 20

// seqOffset and randomOffset yield the i-th 4 KB read of a stream
// that wraps around the file and of one that never forms a stream.
func seqOffset(i int) int64 { return int64(i) * BlockSize % hotSize }
func randomOffset(i int) int64 {
	return int64(uint32(i)*2654435761>>8) % (hotSize / BlockSize) * BlockSize
}

func benchReadAtCached(b *testing.B, offset func(int) int64) {
	h := cachedFile(b)
	buf := make([]byte, BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.ReadAt(buf, offset(i)); err != nil && err != io.EOF {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadAtCachedSeq is the host-time cost of a cache-hit ReadAt
// on a live stream (window top-ups that find everything resident).
func BenchmarkReadAtCachedSeq(b *testing.B) { benchReadAtCached(b, seqOffset) }

// BenchmarkReadAtCachedRandom is the same call off-stream, the shape of
// the benchmark's cached_hot workload.
func BenchmarkReadAtCachedRandom(b *testing.B) { benchReadAtCached(b, randomOffset) }

// BenchmarkReadAtColdPasses is the reader of the repository benchmark's
// stream_largefile in simulated time: three 2 MB files, together larger
// than the 4 MB cache, each read front to back on a handle that stays
// open, in 512 KB turns of 64 KB records with a pause between turns (the
// client's write turn). An op is one pass over one file. sim-ms/pass is
// the time spent inside ReadAt; fills/pass the foreground fetches,
// joins/pass the reads that waited for a prefetch still in flight and
// readv-rpcs/pass the Petal read RPCs that carried the pass.
func BenchmarkReadAtColdPasses(b *testing.B) {
	const files, size, turn, rec = 3, 2 << 20, 512 << 10, 64 << 10
	const pause = 100 * time.Millisecond // simulated
	// A slow world: the 2 ms of modelled CPU per record and the 4 ms a
	// chunk spends on a link must outlast the host's shortest sleep (1.1 ms
	// where this was written) or every wait costs that sleep; at the
	// tests' 100x they all do.
	tw := newTestWorldIn(b, sim.NewWorld(2, 99), DefaultLayout())
	writer := tw.mount(b, "wsW", nil)
	reader := tw.mount(b, "wsR", func(c *Config) { c.DataCacheCap = 1024 })
	var hs [files]*File
	for i := range hs {
		writeFile(b, writer, fmt.Sprintf("/src%d", i), make([]byte, size))
	}
	if err := writer.Sync(); err != nil {
		b.Fatal(err)
	}
	for i := range hs {
		var err error
		if hs[i], err = reader.Open(fmt.Sprintf("/src%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	buf := make([]byte, rec)
	var inRead sim.Time
	pass := func(h *File) {
		for lo := int64(0); lo < size; lo += turn {
			start := tw.w.Clock.Now()
			for off := lo; off < lo+turn; off += rec {
				if _, err := h.ReadAt(buf, off); err != nil && err != io.EOF {
					b.Fatal(err)
				}
			}
			inRead += tw.w.Clock.Now() - start
			tw.w.Clock.Sleep(pause)
		}
	}
	for _, h := range hs { // every handle has streamed its file once
		pass(h)
	}
	inRead = 0
	fills, joins, rpcs := reader.m.fills.Value(), reader.m.raJoins.Value(), reader.pc.Stats().ReadVRPCs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass(hs[i%files])
	}
	b.StopTimer()
	per := func(n int64) float64 { return float64(n) / float64(b.N) }
	b.ReportMetric(per(int64(inRead))/1e6, "sim-ms/pass")
	b.ReportMetric(per(reader.m.fills.Value()-fills), "fills/pass")
	b.ReportMetric(per(reader.m.raJoins.Value()-joins), "joins/pass")
	b.ReportMetric(per(reader.pc.Stats().ReadVRPCs-rpcs), "readv-rpcs/pass")
}

// leastAllocs is what call allocates. The world's demons allocate in the
// background and AllocsPerRun counts the whole process: the least of
// several rounds is the call's own.
func leastAllocs(call func()) float64 {
	least := -1.0
	for round := 0; round < 8; round++ {
		if n := testing.AllocsPerRun(500, call); least < 0 || n < least {
			least = n
		}
	}
	return least
}

// TestReadAtCachedStreamAllocs: on a cache hit the stream bookkeeping
// allocates nothing, sequential or not: ReadAt costs the same number of
// allocations with read-ahead on as with it off, and that number is the
// operation's span and at most one more.
func TestReadAtCachedStreamAllocs(t *testing.T) {
	h := cachedFile(t)
	buf := make([]byte, BlockSize)
	measure := func(offset func(int) int64) float64 {
		i := 0
		return leastAllocs(func() {
			if _, err := h.ReadAt(buf, offset(i)); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			i++
		})
	}
	seqOn, randOn := measure(seqOffset), measure(randomOffset)
	h.fs.cfg.ReadAhead = 0 // nothing else runs: every page is resident, no prefetch is out
	seqOff, randOff := measure(seqOffset), measure(randomOffset)
	t.Logf("allocs per cached 4 KB ReadAt: sequential %v (read-ahead off %v), random %v (off %v)", seqOn, seqOff, randOn, randOff)
	if seqOn > seqOff || randOn > randOff {
		t.Fatalf("read-ahead bookkeeping allocates on a cache hit: sequential %v vs %v, random %v vs %v", seqOn, seqOff, randOn, randOff)
	}
	if seqOn > 2 || randOn > 2 {
		t.Fatalf("a cached 4 KB ReadAt allocates %v times sequential, %v random, want <= 2", seqOn, randOn)
	}
	if hits := h.fs.m.raHits.Value(); hits != 0 {
		t.Fatalf("%d prefetches on a fully cached file", hits)
	}
}

// statAllocs and openAllocs are what a Stat and an Open of a file whose
// directory and inode are cached allocate (14 and 15 before PR 22, when
// each of their lock rounds built a transaction; 3 and 4 while the path
// was split into two fresh slices; 1 and 2 while the operation's span
// was a new object): for Open the handle, for Stat nothing. Raise or
// lower the numbers only with a change that means to move them.
const (
	statAllocs = 0
	openAllocs = 1
)

// TestStatOpenCachedAllocs: the calls that take sticky locks and log
// nothing allocate what they return and what names them, nothing per
// lock round.
func TestStatOpenCachedAllocs(t *testing.T) {
	fs := cachedFile(t).fs
	stat := leastAllocs(func() {
		if _, err := fs.Stat("/hot"); err != nil {
			t.Fatal(err)
		}
	})
	open := leastAllocs(func() {
		if _, err := fs.Open("/hot"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per cached call: Stat %v, Open %v", stat, open)
	if stat != statAllocs || open != openAllocs {
		t.Fatalf("a cached Stat allocates %v times and a cached Open %v, want %d and %d", stat, open, statAllocs, openAllocs)
	}
}

// coldReadAllocs is what a 64 KB ReadAt that fills all sixteen of its
// pages from Petal allocates, read-ahead off: the Petal round trip,
// client and servers together. The sixteen pages cost nothing: the cache
// is full, and each fill takes the entry its own eviction dropped; nor
// does the fill's claim, from the gate's free list. The read is lone, so
// it leaves as four requests, two per replica, and each reply is one
// object: its results, its buffer's hand-off and itself. It was 5 while
// every claim was a new object, 21 while every fill allocated its page, one
// object, entry and block, and left the victim to the collector; 30 while the read
// left as two halves; 85, 5.3 a page, while a page was two objects and
// the fill, the Petal client, the servers and every RPC's reply channel
// built their scratch per call; then 43 while the spans were new
// objects, every message had a goroutine of its own in the network and
// every envelope was boxed; then 40 while every request was boxed and
// its handler had a goroutine of its own; then 32 while the fill made a
// Petal view, the client's fan-out had its state and a goroutine of its
// own, and every reply was three objects. Raise or lower it only with a
// change that means to move it.
const coldReadAllocs = 4

// TestColdReadAtAllocs: a 64 KB read of a file another server wrote,
// through a cache too small to keep it, so every read fills its pages.
// The fill's buffer is bufpool's, whose sync.Pool drops a share of what
// it is given under the race detector, so the count is pinned only
// without it (make alloc-budget).
func TestColdReadAtAllocs(t *testing.T) {
	const rec, size = 64 << 10, 1 << 20
	tw := newTestWorld(t)
	writer := tw.mount(t, "wsW", nil)
	writeFile(t, writer, "/cold", make([]byte, size))
	if err := writer.Sync(); err != nil {
		t.Fatal(err)
	}
	reader := tw.mount(t, "wsR", func(c *Config) {
		c.DataCacheCap = 4 * rec / BlockSize
		c.CPUPerOp, c.CPUPerKB = 0, 0
		c.ReadAhead = 0
	})
	h, err := reader.Open("/cold")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, rec)
	reads, fills := 0, reader.m.fills.Value()
	n := leastAllocs(func() {
		if _, err := h.ReadAt(buf, int64(reads%(size/rec))*rec); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		reads++
	})
	if got := reader.m.fills.Value() - fills; got != int64(reads) {
		t.Fatalf("%d fills for %d reads: the reads were not all cold", got, reads)
	}
	t.Logf("allocs per cold 64 KB ReadAt: %v, %.2f a page filled", n, n/(rec/BlockSize))
	if !raceBuild() && n != coldReadAllocs {
		t.Fatalf("a cold 64 KB ReadAt allocates %v times, want %d", n, coldReadAllocs)
	}
}

// coldStatAllocs bounds what a Stat allocates on a server that holds
// the file's lock but has dropped its inode sector, the whole process
// counted: the sector's fetch through the fetch gate and the Petal round
// trip, client and servers together. Its claim comes from the gate's free
// list and its cache entry is the one the drop freed, so it counts 1, the
// read's reply; 2 while every claim was a new object, and 3 while every
// fill allocated its entry. It was 7 while a sector came in through a read of its own that
// claimed nothing. The lock is sticky, so no lock traffic is counted; a Stat
// that must also acquire it cold allocates more, by a few that vary. A
// bound, like handoffReadAllocs: lower it with a change that means to.
const coldStatAllocs = 1

// TestColdStatAllocs holds a Stat of a file another server wrote, on a
// server that drops the file's inode sector before each Stat, to
// coldStatAllocs. Checked only without the race detector.
func TestColdStatAllocs(t *testing.T) {
	tw := newTestWorld(t)
	writer := tw.mount(t, "wsW", nil)
	writeFile(t, writer, "/cold", []byte("x"))
	if err := writer.Sync(); err != nil {
		t.Fatal(err)
	}
	reader := tw.mount(t, "wsR", func(c *Config) { c.CPUPerOp, c.CPUPerKB = 0, 0 })
	info, err := reader.Stat("/cold")
	if err != nil {
		t.Fatal(err)
	}
	addr := reader.lay.InodeAddr(info.Inum)
	n := leastAllocs(func() {
		reader.meta.Invalidate(addr)
		if _, err := reader.Stat("/cold"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per Stat with its inode sector dropped: %v", n)
	if !raceBuild() && n > coldStatAllocs {
		t.Fatalf("a Stat whose inode sector is not cached allocates %v times, want at most %d", n, coldStatAllocs)
	}
}
