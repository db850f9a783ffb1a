package fs

import (
	"io"
	"testing"
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

// TestReadAtCachedStreamAllocs: on a cache hit the stream bookkeeping
// allocates nothing, sequential or not: ReadAt costs the same number of
// allocations with read-ahead on as with it off.
func TestReadAtCachedStreamAllocs(t *testing.T) {
	h := cachedFile(t)
	buf := make([]byte, BlockSize)
	// The world's demons allocate in the background and AllocsPerRun
	// counts the whole process: the least of several rounds is ReadAt's.
	measure := func(offset func(int) int64) float64 {
		i, least := 0, -1.0
		for round := 0; round < 8; round++ {
			n := testing.AllocsPerRun(500, func() {
				if _, err := h.ReadAt(buf, offset(i)); err != nil && err != io.EOF {
					t.Fatal(err)
				}
				i++
			})
			if least < 0 || n < least {
				least = n
			}
		}
		return least
	}
	seqOn, randOn := measure(seqOffset), measure(randomOffset)
	h.fs.SetReadAhead(0)
	seqOff, randOff := measure(seqOffset), measure(randomOffset)
	t.Logf("allocs per cached 4 KB ReadAt: sequential %v (read-ahead off %v), random %v (off %v)", seqOn, seqOff, randOn, randOff)
	if seqOn > seqOff || randOn > randOff {
		t.Fatalf("read-ahead bookkeeping allocates on a cache hit: sequential %v vs %v, random %v vs %v", seqOn, seqOff, randOn, randOff)
	}
	if hits := h.fs.Stats().ReadAheadHits; hits != 0 {
		t.Fatalf("%d prefetches on a fully cached file", hits)
	}
}
