package fs

import (
	"fmt"
	"runtime/debug"
	"slices"
	"testing"

	"frangipani/internal/sim"
)

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// BenchmarkWriteAtStreamSync is the host-time cost of one turn of a
// streaming writer: eight sequential 64 KB WriteAts and the Sync that
// makes them durable. The modelled CPU is free; Petal's disks and links
// still take simulated time, so ns/op is mostly waiting and allocs/op
// is the number to watch.
func BenchmarkWriteAtStreamSync(b *testing.B) {
	h := cachedFile(b)
	rec := make([]byte, 64<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := int64(i%2) * 8 * int64(len(rec))
		for k := int64(0); k < 8; k++ {
			if _, err := h.WriteAt(rec, base+k*int64(len(rec))); err != nil {
				b.Fatal(err)
			}
		}
		if err := h.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFsyncSmallFile is one turn of the small-file loop: create, one
// 4 KB write, fsync. ns/op and allocs/op are the whole turn on the host's
// clock; sim-ms/fsync is the fsync alone on the simulated one and
// petal-writes/fsync the Petal write RPCs the server sent meanwhile (the
// log block and the data run; write-back that happens to overlap an fsync
// is counted with it).
func BenchmarkFsyncSmallFile(b *testing.B) {
	tw := newTestWorld(b)
	f := tw.mount(b, "ws1", nil)
	page := pattern(BlockSize, 14)
	var simTime sim.Time
	var rpcs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := f.OpenFile(fmt.Sprintf("/b%06d", i), true)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.WriteAt(page, 0); err != nil {
			b.Fatal(err)
		}
		t0, r0 := tw.w.Clock.Now(), f.pc.Stats().WriteVRPCs
		if err := h.Sync(); err != nil {
			b.Fatal(err)
		}
		simTime += tw.w.Clock.Now() - t0
		rpcs += f.pc.Stats().WriteVRPCs - r0
	}
	b.ReportMetric(float64(simTime)/1e6/float64(b.N), "sim-ms/fsync")
	b.ReportMetric(float64(rpcs)/float64(b.N), "petal-writes/fsync")
}

// randomWriteAllocs is what a 4 KB overwrite of a cached page allocates:
// the operation's span and its transaction. The transaction has room for
// the inode sector it touches and the range of it that changed, commit
// hands the log that range of the cached sector itself, and the log
// encodes the record where it will be flushed from. It was 29 while the
// handle was bound to the goroutine (a stack walk and its buffers per
// lookup of the binding, and a closure per layer to bind under) and a
// sticky lock hit opened a span, 16 while every call built a map of
// spans, sorted its one lock through reflection and kept a slice of what
// it held, and 7 while the transaction's two lists, the updates, a copy
// of the bytes each carried and the encoded record were heap objects of
// their own, 2 while the span was a new object, and 1 while the
// transaction was, before it came from the server's free list. The write
// stream must add nothing; raise or lower the number only with a change
// that means to move it.
const randomWriteAllocs = 0

// TestWriteAtRandomAllocs: the write stream's bookkeeping allocates
// nothing on a write that is not part of a stream (the shape of the
// benchmark's cached_hot workload), and such writes start no flush.
func TestWriteAtRandomAllocs(t *testing.T) {
	h := cachedFile(t)
	if err := h.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	h.fs.syncCancel() // the demon's own write-back is not the overwrites'
	batches := h.fs.m.flushBatches.Value()
	buf := make([]byte, BlockSize)
	// The world's demons allocate in the background and AllocsPerRun
	// counts the whole process: the least of several rounds is WriteAt's.
	i, least := 0, -1.0
	for round := 0; round < 8; round++ {
		n := testing.AllocsPerRun(200, func() {
			if _, err := h.WriteAt(buf, randomOffset(i)); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if least < 0 || n < least {
			least = n
		}
	}
	// Exact under the race detector too: nothing on this path comes from
	// a sync.Pool.
	if least != randomWriteAllocs {
		t.Fatalf("a cached 4 KB overwrite allocates %v times, want %d", least, randomWriteAllocs)
	}
	if n := h.fs.m.flushBatches.Value() - batches; n != 0 {
		t.Fatalf("%d write-back batches sent by random overwrites", n)
	}
}

// streamWriteAllocs is what a 64 KB WriteAt of a sequential writer
// allocates together with the write-behind flight it starts, through a
// cache too small to keep the file: nothing. The operation's transaction
// comes from the server's free list, the flight's claim from the gate's,
// the flight runs as a job on a parked worker, the replicated Petal write
// in two parts costs nothing (writeVAllocs in internal/petal), client and
// servers together. The sixteen pages it overwrites cost nothing: each
// takes the entry of a page the pool dropped once its flight had landed.
// It was 3 while the transaction, the claim and the flight's goroutine
// were new objects, 19 while each
// of those pages was a new object and its victim garbage; 88
// while a page was two objects, the write stream cloned its pages, the
// write-back built its runs, batches and extents, and the Petal client
// and servers their scratch, per call; then 34 while the spans were new
// objects, every message had a goroutine of its own in the network and
// every envelope was boxed; then 25 while the flight was one request,
// boxed, with a handler goroutine and a fan-out at the primary. Raise or
// lower it only with a change that means to move it.
const streamWriteAllocs = 0

// TestStreamWriteAtAllocs pins streamWriteAllocs. Each WriteAt completes
// a chunk, so it hands one to write-behind, and the measured call waits
// for that flight to land. The file's blocks are written once before, so
// the disks' sectors exist, and the sync demon is stopped: its
// write-back is not the writes'. The flight's buffer is bufpool's, whose
// sync.Pool drops a share of what it is given under the race detector,
// so the count is pinned only without it (make alloc-budget).
func TestStreamWriteAtAllocs(t *testing.T) {
	const rec, rounds, runs = 64 << 10, 8, 20
	f := newTestWorld(t).mount(t, "ws1", func(c *Config) {
		c.DataCacheCap = 4 * rec / BlockSize
		c.CPUPerOp, c.CPUPerKB = 0, 0
	})
	first, err := f.OpenFile("/stream", true)
	if err != nil {
		t.Fatal(err)
	}
	whole := make([]byte, rounds*(runs+1)*rec) // AllocsPerRun calls once more a round
	if _, err := first.WriteAt(whole, 0); err != nil {
		t.Fatal(err)
	}
	if err := first.Sync(); err != nil {
		t.Fatal(err)
	}
	f.syncCancel()
	h, err := f.Open("/stream") // a new stream, expected at offset 0
	if err != nil {
		t.Fatal(err)
	}
	// landed waits for the write-behind flight under way, if any; joining
	// it through the gate holds the claim until the wait is over.
	landed := func() { f.gate.awaitFlights(func(int64) bool { return true }) }
	buf := make([]byte, rec)
	off, batches := int64(0), f.m.flushBatches.Value()
	least := -1.0
	for round := 0; round < rounds; round++ {
		n := testing.AllocsPerRun(runs, func() {
			if _, err := h.WriteAt(buf, off); err != nil {
				t.Fatal(err)
			}
			off += rec
			landed()
		})
		if least < 0 || n < least {
			least = n
		}
	}
	if n := f.m.flushBatches.Value() - batches; n < off/rec {
		t.Fatalf("%d write-back batches for %d writes of a chunk each", n, off/rec)
	}
	t.Logf("allocs per streaming 64 KB WriteAt with its flight: %v", least)
	if !raceBuild() && least != streamWriteAllocs {
		t.Fatalf("a streaming 64 KB WriteAt allocates %v times with its flight, want %d", least, streamWriteAllocs)
	}
}
