package petal

import (
	"bytes"
	"testing"
	"time"

	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// TestWaitedWriteIsPipelined: a 16 KB write someone waits for leaves as
// two requests to the chunk's primary, contiguous, the first part first,
// so the primary applies and forwards the first while the second is
// still on the wire. Its modelled time is under the floor of the same
// write sent whole, as one request made by hand: both hops' links
// carrying all of it one after the other, the backup's arm writing it,
// and the four messages' latencies — without the race detector, whose
// own cost the clock would count.
func TestWaitedWriteIsPipelined(t *testing.T) {
	// The margin is a millisecond and a half of modelled time; at a
	// quarter of wall speed a host stall of a few milliseconds, which a
	// loaded host has, is not one.
	tc := newTestClusterAt(t, 0.25, 2, nil)
	tc.mustCreate(t, "vol")
	log := &sendLog{Carrier: rpc.SimCarrier{Net: tc.w.Net}}
	c := NewClientWithCarrier(tc.w, "ws1", []string{"p0", "p1"}, log)
	defer c.Close()
	if err := c.Write("vol", 0, make([]byte, ChunkSize)); err != nil { // commits the chunk
		t.Fatal(err)
	}
	st, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	primary, _ := st.Replicas("vol", 0)
	log.writes()
	parts := c.writeParted.Value()

	const n = 16 << 10
	timed := func(whole bool, off int64, seed byte) (time.Duration, []sentReq) {
		t.Helper()
		data := patternBuf(n, seed)
		start := tc.w.Clock.Now()
		if whole {
			req := &WriteVReq{VDisk: "vol", Extents: []WriteVExtent{{Off: int(off), Data: data}}}
			if resp, err := c.ep.Call(DataAddr(primary), req, dataTimeout); err != nil || !resp.(WriteVResp).OK {
				t.Fatalf("a whole write: %v %+v", err, resp)
			}
		} else if err := c.WriteV("vol", []Extent{{Off: off, Data: data}}); err != nil {
			t.Fatal(err)
		}
		took := time.Duration(tc.w.Clock.Now() - start)
		got := make([]byte, n)
		if err := c.Read("vol", off, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("the write at %d did not land", off)
		}
		return took, log.writes()
	}
	// Each round writes the chunk front to back, so no arm moves within
	// it: the first write, which moves the arms back to the front, is not
	// timed. The least of four rounds of each shape, against host stalls.
	var parted, sentWhole time.Duration
	for round := 0; round < 4; round++ {
		timed(true, 0, byte(round))
		for _, off := range []int64{n, 3 * n} {
			took, sent := timed(false, off, byte(round+int(off/n)))
			if parted == 0 || took < parted {
				parted = took
			}
			if len(sent) != 2 {
				t.Fatalf("a 16 KB write sent %d requests, want 2", len(sent))
			}
			a, b := sent[0], sent[1]
			if a.to != DataAddr(primary) || b.to != a.to || len(a.exts) != 1 || len(b.exts) != 1 {
				t.Fatalf("a 16 KB write sent %+v, want two requests of one extent each to the primary %s", sent, primary)
			}
			if x, y := a.exts[0], b.exts[0]; x.Off != int(off) || y.Off != x.Off+x.Len || x.Len+y.Len != n || x.Len%page != 0 {
				t.Errorf("a 16 KB write at %d sent %+v then %+v: want it in two contiguous parts cut at a page, the first first", off, x, y)
			}
		}
		took, _ := timed(true, 2*n, byte(round+2))
		if sentWhole == 0 || took < sentWhole {
			sentWhole = took
		}
	}
	if got := c.writeParted.Value() - parts; got != 8 {
		t.Errorf("petal.write.parted counted %d, want the 8 writes made in parts", got)
	}
	link, disk := sim.DefaultLinkParams(), tc.servers[0].Disks()[0].Params()
	wire := time.Duration(int64(n) * int64(time.Second) / link.Bandwidth)
	arm := time.Duration(int64(n) * int64(time.Second) / disk.TransferRate)
	floor := 4*wire + arm + 8*time.Duration(link.Latency)
	t.Logf("a 16 KB write: %v in two parts, %v whole; the floor of a whole one %v", parted, sentWhole, floor)
	if sentWhole < floor {
		t.Errorf("a whole 16 KB write took %v, under its floor %v: the floor is wrong", sentWhole, floor)
	}
	if raceBuild() {
		return // the detector's own cost is host time, and at this clock it reads as modelled time
	}
	if parted >= floor {
		t.Errorf("a 16 KB write in two parts took %v, not under the %v floor of the whole write", parted, floor)
	}
}

// TestFlightWriteIsParted: a write through an Overlapped view — a
// write-behind flight, which nobody waits for — is cut like any other: a
// 64 KB flight leaves as two requests of one half each to the chunk's
// primary, the first half first, and is counted as parted.
func TestFlightWriteIsParted(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	tc.mustCreate(t, "vol")
	log := &sendLog{Carrier: rpc.SimCarrier{Net: tc.w.Net}}
	c := NewClientWithCarrier(tc.w, "ws1", []string{"p0", "p1"}, log)
	defer c.Close()
	flight := c.Overlapped()
	if err := flight.WriteV("vol", []Extent{{Off: 0, Data: patternBuf(ChunkSize, 3)}}); err != nil {
		t.Fatal(err)
	}
	st, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	primary, _ := st.Replicas("vol", 0)
	half := ReadVExtent{Len: ChunkSize / 2}
	sent := log.writes()
	if len(sent) != 2 || sent[0].to != DataAddr(primary) || sent[1].to != sent[0].to ||
		len(sent[0].exts) != 1 || len(sent[1].exts) != 1 || sent[0].exts[0] != half ||
		sent[1].exts[0] != (ReadVExtent{Off: ChunkSize / 2, Len: ChunkSize / 2}) {
		t.Errorf("a 64 KB flight sent %+v, want its two halves, the first first, to the primary %s", sent, primary)
	}
	if got := c.writeParted.Value(); got != 1 {
		t.Errorf("petal.write.parted counted %d flights, want 1", got)
	}
	got := make([]byte, ChunkSize)
	if err := c.Read("vol", 0, got); err != nil || !bytes.Equal(got, patternBuf(ChunkSize, 3)) {
		t.Fatalf("the flight did not land: %v", err)
	}
}

// TestPartedWriteFailsOver: the primary dies between a write's two
// parts, once its copy and the backup's hold the first. The second
// part goes to the backup, the write succeeds, and once the primary is
// back and repaired both replicas hold every byte of it.
func TestPartedWriteFailsOver(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.mustCreate(t, "vol")
	chunk := chunksWhere(t, tc, 0, 1, func(p1, p2 string) bool { return p1 == "p1" && p2 == "p2" })[0]
	primary, backup := tc.servers[1], tc.servers[2]
	const off, n = 16 << 10, 16 << 10
	data := patternBuf(n, 41)
	holds := func(s *Server, lo, hi int) bool {
		got, ok := s.DebugReadChunk("vol", chunk, lo, hi-lo)
		return ok && bytes.Equal(got, data[lo-off:hi-off])
	}
	log := &sendLog{Carrier: rpc.SimCarrier{Net: tc.w.Net}}
	c := NewClientWithCarrier(tc.w, "ws1", []string{"p0", "p1", "p2"}, log)
	defer c.Close()
	crashed := false
	log.beforeWrite = func(to string, r WriteVReq) {
		if crashed || to != DataAddr("p1") || r.Extents[0].Off == off {
			return
		}
		// The second part is about to leave: let the first land on both
		// replicas, then take the primary down.
		waitUntil(t, time.Minute, func() bool { return holds(primary, off, off+n/2) && holds(backup, off, off+n/2) })
		primary.Crash()
		crashed = true
	}
	if err := c.WriteV("vol", []Extent{{Off: chunk*ChunkSize + off, Data: data}}); err != nil {
		t.Fatal(err)
	}
	if !crashed {
		t.Fatal("the write never sent its second part to the primary")
	}
	tail := false
	for _, r := range log.writes() {
		for _, e := range r.exts {
			tail = tail || (r.to == DataAddr("p2") && e.Chunk == chunk && e.Off == off+n/2 && e.Len == n/2)
		}
	}
	if !tail {
		t.Error("the second part did not go to the backup")
	}
	if got := c.writeParted.Value(); got != 1 {
		t.Errorf("petal.write.parted counted %d, want 1", got)
	}
	primary.Restart()
	waitUntil(t, time.Minute, func() bool { return holds(primary, off, off+n) })
	for _, s := range []*Server{primary, backup} {
		if !holds(s, off, off+n) {
			t.Errorf("%s does not hold the write after the repair", s.Name())
		}
	}
}
