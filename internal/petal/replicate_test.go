package petal

import (
	"bytes"
	"testing"
	"time"

	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// twoPartnerWrite builds a client write for p1 whose extents p1 holds
// half as primary (second copy on p2) and half as backup (the other
// copy on p0), so that p1 has two partners to forward to: n whole
// chunks each.
func twoPartnerWrite(t *testing.T, tc *testCluster, n int, seed byte) (req WriteVReq, viaP2, viaP0 []int64) {
	t.Helper()
	viaP2 = chunksWhere(t, tc, 0, n, func(p1, p2 string) bool { return p1 == "p1" && p2 == "p2" })
	viaP0 = chunksWhere(t, tc, 0, n, func(p1, p2 string) bool { return p1 == "p0" && p2 == "p1" })
	st, err := tc.client.State()
	if err != nil {
		t.Fatal(err)
	}
	req = WriteVReq{VDisk: "vol", Epoch: st.VDisks["vol"].Epoch}
	for _, c := range append(append([]int64(nil), viaP2...), viaP0...) {
		req.Extents = append(req.Extents, WriteVExtent{Chunk: c, Data: patternBuf(ChunkSize, seed+byte(c))})
	}
	return req, viaP2, viaP0
}

// TestReplicateWhileWriting: the primary applies a write to its own
// disks and forwards it to its partners at the same time, the partners
// in parallel, so a request takes about as long as its longest job, not
// as long as all of them. And with the link into one partner busy for
// three seconds, the other two jobs are done long before the held one.
func TestReplicateWhileWriting(t *testing.T) {
	const perPartner = 7                  // 7 x 64 KB to each partner: 896 KB in the request
	tc := newTestClusterAt(t, 10, 3, nil) // a slow clock: the host's own work on 896 KB must not show
	tc.mustCreate(t, "vol")
	warm, _, _ := twoPartnerWrite(t, tc, perPartner, 1)
	call := func(srv string, req WriteVReq) time.Duration {
		t.Helper()
		start := tc.w.Clock.Now()
		resp, err := tc.client.ep.Call(DataAddr(srv), &req, 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if wr, ok := resp.(WriteVResp); !ok || !wr.OK {
			t.Fatalf("write refused: %+v", resp)
		}
		return time.Duration(tc.w.Clock.Now() - start)
	}
	call("p1", warm) // commits the chunks

	// With nothing held: the request against its two kinds of job done
	// alone, the local apply (the request marked as a forward, which
	// replicates no further) and one partner's share sent to that
	// partner. One after another the jobs would take the apply and two
	// such forwards; at the same time, the apply or a forward and a bit,
	// as both forwards leave through the primary's one link. The line is
	// drawn half way. The least of three rounds each, against scheduling
	// noise.
	applyOnly := warm
	applyOnly.Forwarded = true
	oneForward := applyOnly
	oneForward.Extents = warm.Extents[:perPartner]
	least := func(srv string, req WriteVReq) time.Duration {
		best := call(srv, req)
		for i := 0; i < 2; i++ {
			best = min(best, call(srv, req))
		}
		return best
	}
	idle, apply, forward := least("p1", warm), least("p1", applyOnly), least("p2", oneForward)
	t.Logf("nothing held: request %v; local apply alone %v, one forward alone %v", idle, apply, forward)
	if idle >= apply+forward*3/2 {
		t.Errorf("the request takes %v, the local apply %v and one of its two forwards %v: the jobs ran one after another", idle, apply, forward)
	}

	req, viaP2, viaP0 := twoPartnerWrite(t, tc, perPartner, 2)
	const held = 3 * time.Second // under the forward's 5 s timeout
	tc.w.Net.AddHost("flood", sim.LinkParams{Bandwidth: 1 << 50})
	tc.w.Net.ResetStats()
	if err := tc.w.Net.Send("flood", DataAddr("p2"), nil, int(held.Seconds()*float64(sim.DefaultLinkParams().Bandwidth))); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, time.Minute, func() bool {
		_, rx := tc.w.Net.LinkUtilization(DataAddr("p2"))
		return rx >= 1
	})
	done := make(chan time.Duration, 1)
	go func() { done <- call("p1", req) }()

	// A third of the way through the hold: p1's own copy and p0's are in
	// place, p2's is not, and the request is still out.
	tc.w.Clock.Sleep(held / 3)
	stored := func(srv int, chunk int64) bool {
		got, ok := tc.servers[srv].DebugReadChunk("vol", chunk, 0, ChunkSize)
		return ok && bytes.Equal(got, patternBuf(ChunkSize, 2+byte(chunk)))
	}
	for _, c := range append(append([]int64(nil), viaP2...), viaP0...) {
		if !stored(1, c) {
			t.Errorf("chunk %d not on the primary's disks while a forward is held", c)
		}
	}
	for _, c := range viaP0 {
		if !stored(0, c) {
			t.Errorf("chunk %d not at partner p0 while the forward to p2 is held", c)
		}
	}
	if stored(2, viaP2[0]) {
		t.Fatal("the forward to p2 was not held")
	}
	var took time.Duration
	select {
	case took = <-done:
		t.Fatalf("request returned after %v with a forward still held", took)
	default:
		took = <-done
	}
	if took > held+idle {
		t.Errorf("took %v with a forward held for %v; %v with none held", took, held, idle)
	}
	for _, c := range viaP2 {
		if !stored(2, c) {
			t.Errorf("chunk %d not at partner p2 after the request returned", c)
		}
	}
}

// TestCutReplicaRepairedByPush: with the link between a chunk's two
// replicas cut both ways, a write to the chunk still succeeds and the
// primary records the backup as behind. Once the link is back, the
// primary's periodic repair pushes the chunk within a few SuspectAfter
// ticks, and the backup holds the written bytes.
func TestCutReplicaRepairedByPush(t *testing.T) {
	const suspectAfter = 10 * time.Second // newTestCluster's
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	chunk := chunksWhere(t, tc, 0, 1, func(p1, p2 string) bool { return p1 == "p1" && p2 == "p2" })[0]
	tc.w.Net.CutBoth(DataAddr("p1"), DataAddr("p2"))
	data := patternBuf(ChunkSize, 0x33)
	if err := d.WriteAt(data, chunk*ChunkSize); err != nil {
		t.Fatalf("write with the replica link cut: %v", err)
	}
	if n := tc.servers[1].MissedBacklog(); n == 0 {
		t.Fatal("the primary recorded nothing as missed by its cut-off backup")
	}
	tc.w.Net.Reconnect(DataAddr("p1"), DataAddr("p2"))
	start := tc.w.Clock.Now()
	waitUntil(t, 3*suspectAfter, func() bool { return tc.servers[1].MissedBacklog() == 0 })
	if took := time.Duration(tc.w.Clock.Now() - start); took > 3*suspectAfter {
		t.Fatalf("backlog drained after %v, want within %v", took, 3*suspectAfter)
	}
	if got, ok := tc.servers[2].DebugReadChunk("vol", chunk, 0, ChunkSize); !ok || !bytes.Equal(got, data) {
		t.Fatal("the backup does not hold the written bytes after repair")
	}
}

// TestRepairKeepsAMissDuringItsPush: repair reads a chunk, pushes it,
// and only then drops the chunk from the partner's missed set. A write
// that misses the partner while the push is out leaves bytes the push
// did not carry, so the chunk must stay missed. The fake partner here
// records such a miss from inside its push handler.
func TestRepairKeepsAMissDuringItsPush(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	chunk := chunksWhere(t, tc, 0, 1, func(p1, p2 string) bool { return p1 == "p1" })[0]
	if err := d.WriteAt(patternBuf(ChunkSize, 0x44), chunk*ChunkSize); err != nil {
		t.Fatal(err)
	}
	s := tc.servers[1]
	var key chunkKey
	s.st.mu.Lock()
	for k := range s.st.extents {
		if k.Chunk == chunk {
			key = k
		}
	}
	s.st.mu.Unlock()
	miss := []forward{{partner: "fake", req: WriteVReq{Extents: []WriteVExtent{{Chunk: chunk}}}}}
	fake := rpc.NewEndpoint(DataAddr("fake"), rpc.SimCarrier{Net: tc.w.Net}, tc.w.Clock, func(_ string, body any) any {
		if _, ok := body.(PushChunkReq); ok {
			s.noteMissed(miss, key.VDisk, key.Epoch)
		}
		return AdminResp{OK: true}
	})
	defer fake.Close()

	s.noteMissed(miss, key.VDisk, key.Epoch)
	s.repair("fake")
	s.mu.Lock()
	_, still := s.missed["fake"][key]
	s.mu.Unlock()
	if !still {
		t.Fatal("repair dropped a chunk the partner missed again while its push was out")
	}
}

// TestLocalMediaErrorFailsWrite: the forwards no longer wait for the
// local apply, so when the primary's disks refuse a write the partner
// may have applied it all the same. The request still fails, the
// primary records nothing as missed by the partner (it has no newer
// image to offer), and once the disks are back the client's retry
// brings both replicas to the same bytes.
func TestLocalMediaErrorFailsWrite(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	chunk := chunksWhere(t, tc, 0, 1, func(p1, p2 string) bool { return p1 == "p1" && p2 == "p2" })[0]
	oldData, newData := patternBuf(ChunkSize, 0x10), patternBuf(ChunkSize, 0x20)
	if err := d.WriteAt(oldData, chunk*ChunkSize); err != nil {
		t.Fatal(err)
	}
	for _, dk := range tc.servers[1].Disks() {
		dk.Fail()
	}
	if err := d.WriteAt(newData, chunk*ChunkSize); err == nil {
		t.Fatal("write succeeded with the primary's disks failed")
	}
	if n := tc.servers[1].MissedBacklog(); n != 0 {
		t.Fatalf("primary recorded %d chunks as missed by its partner for a write it did not apply itself", n)
	}
	at2, ok := tc.servers[2].DebugReadChunk("vol", chunk, 0, ChunkSize)
	if !ok || (!bytes.Equal(at2, oldData) && !bytes.Equal(at2, newData)) {
		t.Fatal("the partner holds neither the old bytes nor the new")
	}
	t.Logf("partner applied the forward of the failed write: %v", bytes.Equal(at2, newData))

	for _, dk := range tc.servers[1].Disks() {
		dk.Revive()
	}
	if err := d.WriteAt(newData, chunk*ChunkSize); err != nil {
		t.Fatal(err)
	}
	for _, srv := range []int{1, 2} {
		if got, ok := tc.servers[srv].DebugReadChunk("vol", chunk, 0, ChunkSize); !ok || !bytes.Equal(got, newData) {
			t.Errorf("replica p%d does not hold the retried write", srv)
		}
	}
	got := make([]byte, ChunkSize)
	if err := d.ReadAt(got, chunk*ChunkSize); err != nil || !bytes.Equal(got, newData) {
		t.Fatalf("read after the retry: err %v, bytes differ: %v", err, !bytes.Equal(got, newData))
	}
}
