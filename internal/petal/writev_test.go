package petal

import (
	"bytes"
	"runtime/debug"
	"slices"
	"testing"
	"time"
)

func TestWriteVScatteredRoundTrip(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	// Scattered extents: same chunk, different chunks, one spanning a
	// chunk boundary.
	exts := []Extent{
		{Off: 0, Data: patternBuf(4096, 1)},
		{Off: 16 * 1024, Data: patternBuf(512, 2)},
		{Off: int64(ChunkSize) - 300, Data: patternBuf(1000, 3)}, // crosses into chunk 1
		{Off: 3 * int64(ChunkSize), Data: patternBuf(8192, 4)},
	}
	if err := d.WriteV(exts); err != nil {
		t.Fatal(err)
	}
	for i, e := range exts {
		got := make([]byte, len(e.Data))
		if err := d.ReadAt(got, e.Off); err != nil {
			t.Fatalf("extent %d read: %v", i, err)
		}
		if !bytes.Equal(got, e.Data) {
			t.Fatalf("extent %d mismatch", i)
		}
	}
	// Untouched gaps still read zero.
	gap := make([]byte, 100)
	if err := d.ReadAt(gap, 8192); err != nil {
		t.Fatal(err)
	}
	for _, b := range gap {
		if b != 0 {
			t.Fatal("WriteV disturbed a hole")
		}
	}
}

func TestWriteVBatchesRPCs(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	// 32 small extents inside one chunk: the per-extent path would
	// cost 32 write RPCs; scatter-gather should need far fewer (one
	// per replica-server batch).
	var exts []Extent
	for i := 0; i < 32; i++ {
		exts = append(exts, Extent{Off: int64(i) * 1024, Data: patternBuf(256, byte(i))})
	}
	before := tc.client.Stats()
	if err := d.WriteV(exts); err != nil {
		t.Fatal(err)
	}
	after := tc.client.Stats()
	vRPCs := after.WriteVRPCs - before.WriteVRPCs
	vExts := after.WriteVExtents - before.WriteVExtents
	if vExts != 32 {
		t.Fatalf("WriteV carried %d extents, want 32", vExts)
	}
	if vRPCs >= 32/4 {
		t.Fatalf("WriteV used %d RPCs for 32 extents; batching ineffective", vRPCs)
	}
}

// TestWriteVSingleExtentIsOneRPC: there is no second protocol for
// small writes — one extent is exactly one WriteVReq carrying it.
func TestWriteVSingleExtentIsOneRPC(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	before := tc.client.Stats()
	if err := d.WriteV([]Extent{{Off: 100, Data: patternBuf(300, 7)}}); err != nil {
		t.Fatal(err)
	}
	after := tc.client.Stats()
	if rpcs, exts := after.WriteVRPCs-before.WriteVRPCs, after.WriteVExtents-before.WriteVExtents; rpcs != 1 || exts != 1 {
		t.Fatalf("single-extent WriteV used %d WriteVReq carrying %d extents; want 1 and 1", rpcs, exts)
	}
	got := make([]byte, 300)
	if err := d.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, patternBuf(300, 7)) {
		t.Fatal("single-extent round trip mismatch")
	}
}

func TestWriteVFailoverOnCrash(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	// Crash one server; extents routed to it must be re-batched to
	// the survivors.
	tc.servers[1].Crash()
	waitUntil(t, 20*time.Second, func() bool {
		return !tc.servers[0].State().Alive["p1"]
	})
	var exts []Extent
	for i := 0; i < 8; i++ {
		exts = append(exts, Extent{Off: int64(i) * int64(ChunkSize), Data: patternBuf(2048, byte(i+1))})
	}
	if err := d.WriteV(exts); err != nil {
		t.Fatal(err)
	}
	for i, e := range exts {
		got := make([]byte, len(e.Data))
		if err := d.ReadAt(got, e.Off); err != nil {
			t.Fatalf("extent %d read: %v", i, err)
		}
		if !bytes.Equal(got, e.Data) {
			t.Fatalf("extent %d mismatch after failover", i)
		}
	}
}

func TestWriteVReplicatesAcrossCrash(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	var exts []Extent
	for i := 0; i < 6; i++ {
		exts = append(exts, Extent{Off: int64(i) * int64(ChunkSize), Data: patternBuf(4096, byte(0x40+i))})
	}
	if err := d.WriteV(exts); err != nil {
		t.Fatal(err)
	}
	// Every chunk must survive the loss of any single server: the
	// batched path must have replicated exactly like per-chunk writes.
	tc.servers[0].Crash()
	waitUntil(t, 20*time.Second, func() bool {
		return !tc.servers[1].State().Alive["p0"]
	})
	for i, e := range exts {
		got := make([]byte, len(e.Data))
		if err := d.ReadAt(got, e.Off); err != nil {
			t.Fatalf("extent %d read after crash: %v", i, err)
		}
		if !bytes.Equal(got, e.Data) {
			t.Fatalf("extent %d lost its replica", i)
		}
	}
}

// TestConflictUnits: extents come back ordered by (chunk, offset) and
// cut into serial units exactly where sector-aligned spans stop
// overlapping, whatever order they arrived in; the request's own
// slice is left as it was.
func TestConflictUnits(t *testing.T) {
	ext := func(chunk int64, off, n int) WriteVExtent {
		return WriteVExtent{Chunk: chunk, Off: off, Data: make([]byte, n)}
	}
	in := []WriteVExtent{
		ext(2, 0, 100),     // alone in chunk 2
		ext(1, 1024, 512),  // sector-aligned neighbour of the next: no overlap
		ext(1, 1536, 10),   // shares sector 3 with the two after it
		ext(1, 1600, 1000), // runs through sector 5
		ext(1, 1546, 4),
		ext(1, 3072, 8), // first sector past the run
		ext(0, 300, 8),  // same sector as...
		ext(0, 100, 8),  // ...this one, arriving later
	}
	want := [][][2]int{ // units of (chunk, off)
		{{0, 100}, {0, 300}},
		{{1, 1024}},
		{{1, 1536}, {1, 1546}, {1, 1600}},
		{{1, 3072}},
		{{2, 0}},
	}
	first := in[0]
	j := new(writeJob)
	j.cut(in)
	units := j.units
	if in[0].Chunk != first.Chunk || in[0].Off != first.Off {
		t.Fatal("cut reordered the caller's slice")
	}
	if len(units) != len(want) {
		t.Fatalf("%d units, want %d: %v", len(units), len(want), units)
	}
	for i, u := range units {
		if len(u) != len(want[i]) {
			t.Fatalf("unit %d has %d extents, want %d", i, len(u), len(want[i]))
		}
		for j, e := range u {
			if [2]int{int(e.Chunk), e.Off} != want[i][j] {
				t.Fatalf("unit %d extent %d = (%d, %d), want %v", i, j, e.Chunk, e.Off, want[i][j])
			}
		}
	}
	if j.cut(in[:1]); len(j.units) != 1 || len(j.units[0]) != 1 {
		t.Fatalf("one extent -> %v, want one unit of one", j.units)
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// writeVAllocs and readVAllocs are what a replicated 64 KB WriteV and a
// 64 KB ReadV, cut in two halves for the two replicas, allocate — the
// client and both servers together, over the simulated network: each
// request and reply boxed for the network, each handler's goroutine and
// its fan-out, the forward and the read's buffer hand-off. They were 41
// and 40 while every call built its pieces, batches, extent lists and
// reply channel, and every server its per-request lists, closures and
// read buffers, anew; then 14 and 20 while every message had a delivery
// goroutine of its own, every envelope was boxed and every server span
// was a new object. The 64 KB WriteV goes through an Overlapped view, as
// write-behind's flights do: one request. loneReadVAllocs is the same
// ReadV made while no other read is in flight: four requests, not two,
// and each request is five objects — the boxed request, the handler's
// goroutine, the server's result list, its boxed reply and the hand-off
// of its buffer. partedWriteVAllocs is a 16 KB WriteV someone waits for:
// two requests to the primary, each forwarded, and each costs what the
// whole write's one does. Raise or lower them only with a change that
// means to move them.
const (
	writeVAllocs       = 6
	readVAllocs        = 12
	loneReadVAllocs    = readVAllocs + 2*5
	partedWriteVAllocs = 2 * writeVAllocs
)

// TestWriteVReadVRoundTripAllocs pins writeVAllocs, readVAllocs,
// loneReadVAllocs and partedWriteVAllocs. The servers' demons allocate in
// the background and AllocsPerRun counts the whole process: the least of
// several rounds is the call's own. Under the race detector sync.Pool
// drops a share of what it is given, so the counts are pinned only
// without it (make alloc-budget).
func TestWriteVReadVRoundTripAllocs(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	flight := tc.client.Overlapped().Open("vol")
	wexts := []Extent{{Off: 5 * ChunkSize, Data: patternBuf(ChunkSize, 3)}}
	pexts := []Extent{{Off: 6*ChunkSize + 16<<10, Data: patternBuf(16<<10, 4)}}
	rexts := []ReadExtent{{Off: 5 * ChunkSize, Dst: make([]byte, ChunkSize)}}
	least := func(call func() error) float64 {
		l := -1.0
		for round := 0; round < 8; round++ {
			n := testing.AllocsPerRun(50, func() {
				if err := call(); err != nil {
					t.Fatal(err)
				}
			})
			if l < 0 || n < l {
				l = n
			}
		}
		return l
	}
	w := least(func() error { return flight.WriteV(wexts) })
	parted := least(func() error { return d.WriteV(pexts) })
	lone := least(func() error { return d.ReadV(rexts) })
	tc.client.reads.Add(1) // as if another read were in flight
	r := least(func() error { return d.ReadV(rexts) })
	tc.client.reads.Add(-1)
	t.Logf("allocations per round trip: 64 KB WriteV %v, ReadV %v, lone ReadV %v; 16 KB WriteV in parts %v", w, r, lone, parted)
	if !bytes.Equal(rexts[0].Dst, wexts[0].Data) {
		t.Fatal("the ReadV did not return what the WriteV wrote")
	}
	if raceBuild() {
		return
	}
	if w != writeVAllocs || r != readVAllocs || lone != loneReadVAllocs || parted != partedWriteVAllocs {
		t.Fatalf("a 64 KB WriteV allocates %v times, a ReadV %v, a lone ReadV %v and a 16 KB WriteV in parts %v, want %d, %d, %d and %d",
			w, r, lone, parted, writeVAllocs, readVAllocs, loneReadVAllocs, partedWriteVAllocs)
	}
}
