package petal

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"frangipani/internal/obs"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// diskBytesRead is what a server's arms have read so far.
func diskBytesRead(s *Server) (n int64) {
	for _, d := range s.Disks() {
		_, _, rd, _ := d.Stats()
		n += rd
	}
	return n
}

// assertIdle: a client with no read under way has no read bytes
// charged to any server.
func assertIdle(t *testing.T, c *Client) {
	t.Helper()
	for srv, g := range c.infl {
		if v := g.Value(); v != 0 {
			t.Errorf("client idle, yet %d read bytes are still charged to %s", v, srv)
		}
	}
}

// readDelta runs f and returns the read RPCs and extents it issued.
func readDelta(t *testing.T, c *Client, f func() error) (rpcs, extents int64) {
	t.Helper()
	before := c.Stats()
	if err := f(); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	return after.ReadVRPCs - before.ReadVRPCs, after.ReadVExtents - before.ReadVExtents
}

// TestLoneReadUsesBothReplicas pins the routing rule on two servers,
// where every chunk has the same replica pair: a lone read of a whole
// chunk is four requests, half a chunk off each server's arm in two
// parts; a read under half a chunk is one; reads started together
// spread by the bytes already routed, not by the RPCs already sent.
func TestLoneReadUsesBothReplicas(t *testing.T) {
	// A slow clock: the reads started together must all be routed
	// before the first is answered.
	tc := newTestClusterAt(t, 10, 2, nil)
	d := tc.mustCreate(t, "vol")
	const chunks = 8
	data := patternBuf(chunks*ChunkSize, 7)
	if err := d.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	served := func() [2]int64 { return [2]int64{diskBytesRead(tc.servers[0]), diskBytesRead(tc.servers[1])} }

	got := make([]byte, ChunkSize)
	s0 := served()
	began := tc.w.Clock.Now()
	rpcs, exts := readDelta(t, tc.client, func() error { return d.ReadAt(got, 0) })
	took := time.Duration(tc.w.Clock.Now() - began)
	s1 := served()
	if rpcs != 4 || exts != 4 {
		t.Errorf("a lone 64 KB read issued %d requests carrying %d extents, want 4 and 4", rpcs, exts)
	}
	// No modelled cost went missing: each server's half comes off its arm
	// a quarter behind the other, the second quarter leaves over that
	// server's link, and the two servers' second quarters enter the
	// client's link one behind the other.
	const quarter = ChunkSize / 4
	arm := time.Duration(2 * quarter * int64(time.Second) / tc.servers[0].Disks()[0].Params().TransferRate)
	wire := time.Duration(quarter * int64(time.Second) / sim.DefaultLinkParams().Bandwidth)
	t.Logf("a lone 64 KB read took %v of simulated time; its arm and links alone %v", took, arm+3*wire)
	if took < arm+3*wire {
		t.Errorf("a lone 64 KB read took %v, less than the %v its arm and links take", took, arm+3*wire)
	}
	for i := range s0 {
		if n := s1[i] - s0[i]; n != ChunkSize/2 {
			t.Errorf("p%d read %d bytes off its disks for a lone 64 KB read, want %d", i, n, ChunkSize/2)
		}
	}
	if !bytes.Equal(got, data[:ChunkSize]) {
		t.Error("the four parts do not add up to the chunk")
	}

	rpcs, exts = readDelta(t, tc.client, func() error { return d.ReadAt(got[:16<<10], 4096) })
	if rpcs != 1 || exts != 1 {
		t.Errorf("a lone 16 KB read issued %d requests carrying %d extents, want 1 and 1", rpcs, exts)
	}

	s0 = served()
	var wg sync.WaitGroup
	start := make(chan struct{})
	bufs := make([][]byte, chunks)
	for i := range bufs {
		bufs[i] = make([]byte, ChunkSize)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if err := d.ReadAt(bufs[i], int64(i)*ChunkSize); err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	s1 = served()
	for i := range s0 {
		n, want := s1[i]-s0[i], int64(chunks*ChunkSize/2)
		if n < want-ChunkSize/2 || n > want+ChunkSize/2 {
			t.Errorf("p%d served %d bytes of %d reads started together, want %d give or take one half", i, n, chunks, want)
		}
	}
	for i, b := range bufs {
		if !bytes.Equal(b, data[i*ChunkSize:(i+1)*ChunkSize]) {
			t.Errorf("concurrent read %d returned the wrong bytes", i)
		}
	}
}

// sendLog is a carrier that records the data requests sent over it, in
// the order they leave: reads in sent, writes in wrote. beforeWrite, if
// set, runs before a write request leaves.
type sendLog struct {
	rpc.Carrier
	mu          sync.Mutex
	sent        []sentReq
	wrote       []sentReq
	beforeWrite func(to string, r WriteVReq)
}

// sentReq is one request: where it went, and the chunk, offset and
// length of each of its extents.
type sentReq struct {
	to   string
	exts []ReadVExtent
}

func (l *sendLog) Send(from, to string, env rpc.Envelope, size int) error {
	switch r := env.Body.(type) {
	case *ReadVReq:
		l.mu.Lock()
		l.sent = append(l.sent, sentReq{to, slices.Clone(r.Extents)})
		l.mu.Unlock()
	case *WriteVReq:
		if l.beforeWrite != nil {
			l.beforeWrite(to, *r)
		}
		req := sentReq{to: to}
		for _, e := range r.Extents {
			req.exts = append(req.exts, ReadVExtent{Chunk: e.Chunk, Off: e.Off, Len: len(e.Data)})
		}
		l.mu.Lock()
		l.wrote = append(l.wrote, req)
		l.mu.Unlock()
	}
	return l.Carrier.Send(from, to, env, size)
}

// writes returns what l has recorded of write requests and forgets it.
func (l *sendLog) writes() []sentReq {
	l.mu.Lock()
	defer l.mu.Unlock()
	w := l.wrote
	l.wrote = nil
	return w
}

// TestLoneReadIsPipelined: a lone 64 KB read leaves as four requests,
// two per replica. A replica's two are contiguous and the first part's
// goes first, so a disk that serves them as they arrive moves its arm
// once for the read, and reads the second part while its reply to the
// first is on the wire. A 64 KB read made while another read is in
// flight — a prefetch — keeps its two halves, and so does one made
// through an Overlapped view.
func TestLoneReadIsPipelined(t *testing.T) {
	tc := newTestClusterAt(t, 10, 2, nil)
	d := tc.mustCreate(t, "vol")
	data := patternBuf(2*ChunkSize, 37)
	if err := d.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	log := &sendLog{Carrier: rpc.SimCarrier{Net: tc.w.Net}}
	c := NewClientWithCarrier(tc.w, "ws1", []string{"p0", "p1"}, log)
	defer c.Close()
	got := make([]byte, ChunkSize)
	if err := c.Read("vol", 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:ChunkSize]) {
		t.Fatal("wrong bytes from a lone read")
	}
	if len(log.sent) != 4 {
		t.Fatalf("a lone 64 KB read sent %d requests, want 4", len(log.sent))
	}
	if n := c.readLone.Value(); n != 1 {
		t.Errorf("petal.read.lone counted %d, want 1", n)
	}
	bySrv := map[string][]ReadVExtent{}
	for _, r := range log.sent {
		if len(r.exts) != 1 {
			t.Fatalf("a request to %s carried %d extents, want 1", r.to, len(r.exts))
		}
		bySrv[r.to] = append(bySrv[r.to], r.exts[0])
	}
	if len(bySrv) != 2 {
		t.Fatalf("the requests went to %d servers, want 2", len(bySrv))
	}
	for srv, es := range bySrv {
		if len(es) != 2 || es[1].Chunk != es[0].Chunk || es[1].Off != es[0].Off+es[0].Len || es[0].Len+es[1].Len != ChunkSize/2 {
			t.Errorf("%s was sent %+v: want half a chunk in two contiguous parts, the first first", srv, es)
		}
	}

	// Hold the client's ingress busy so a read stays in flight, and read
	// the other chunk beside it.
	tc.w.Net.AddHost("flood", sim.LinkParams{Bandwidth: 1 << 50})
	if err := tc.w.Net.Send("flood", ClientAddr("ws1"), nil, int(sim.DefaultLinkParams().Bandwidth/2)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Read("vol", 0, make([]byte, ChunkSize)) }()
	waitUntil(t, time.Minute, func() bool { return c.reads.Load() > 0 })
	log.mu.Lock()
	log.sent = log.sent[:0]
	log.mu.Unlock()
	if err := c.Read("vol", ChunkSize, got); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[ChunkSize:]) {
		t.Fatal("wrong bytes from a read beside another")
	}
	halves := 0
	for _, r := range log.sent {
		if r.exts[0].Chunk != 1 {
			continue
		}
		if halves++; r.exts[0].Len != ChunkSize/2 {
			t.Errorf("a 64 KB read beside another sent %s %+v, want its two halves as they were", r.to, r.exts)
		}
	}
	if halves != 2 {
		t.Errorf("a 64 KB read beside another sent %d requests, want 2", halves)
	}
	if n := c.readLone.Value(); n != 2 {
		t.Errorf("petal.read.lone counted %d, want 2: the read held in flight was lone, the one beside it not", n)
	}

	// A read through an Overlapped view — read-ahead — is never lone,
	// though no other read is in flight: it keeps its two halves.
	log.mu.Lock()
	log.sent = log.sent[:0]
	log.mu.Unlock()
	if err := c.Overlapped().Read("vol", 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:ChunkSize]) {
		t.Fatal("wrong bytes from an Overlapped read")
	}
	if len(log.sent) != 2 || log.sent[0].exts[0].Len != ChunkSize/2 || log.sent[1].exts[0].Len != ChunkSize/2 {
		t.Errorf("a 64 KB read through an Overlapped view sent %+v, want its two halves", log.sent)
	}
	if n := c.readLone.Value(); n != 2 {
		t.Errorf("petal.read.lone counted %d after an Overlapped read, want 2", n)
	}
}

// TestReadChargeGivenBack: whatever becomes of a read — answered,
// failed over, timed out, parked for a new view, out of candidates,
// never routed — once it has returned none of its bytes are charged to
// any server. (newTestClusterAt's cleanup asserts the same of every
// other test in the package.)
func TestReadChargeGivenBack(t *testing.T) {
	onP1 := func(p1, _ string) bool { return p1 == "p1" }
	// fill writes n chunks whose primary is p1 and returns them.
	fill := func(t *testing.T, tc *testCluster, n int) (vdisk, []int64) {
		d := tc.mustCreate(t, "vol")
		chunks := chunksWhere(t, tc, 0, n, onP1)
		for _, c := range chunks {
			if err := d.WriteAt(patternBuf(ChunkSize, byte(c)), c*ChunkSize); err != nil {
				t.Fatal(err)
			}
		}
		return d, chunks
	}
	readAll := func(d vdisk, chunks []int64) error {
		exts := make([]ReadExtent, len(chunks))
		for i, c := range chunks {
			exts[i] = ReadExtent{Off: c * ChunkSize, Dst: make([]byte, ChunkSize)}
		}
		if err := d.ReadV(exts); err != nil {
			return err
		}
		for i, c := range chunks {
			if !bytes.Equal(exts[i].Dst, patternBuf(ChunkSize, byte(c))) {
				return errWrongBytes
			}
		}
		return nil
	}

	t.Run("crash mid-read", func(t *testing.T) {
		tc := newTestCluster(t, 3, nil)
		d, chunks := fill(t, tc, 4)
		// Hold p1's ingress busy so the read's requests to it queue, and
		// crash it while they do.
		tc.w.Net.AddHost("flood", sim.LinkParams{Bandwidth: 1 << 50})
		tc.w.Net.ResetStats()
		if err := tc.w.Net.Send("flood", DataAddr("p1"), nil, int(3*sim.DefaultLinkParams().Bandwidth)); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, time.Minute, func() bool {
			_, rx := tc.w.Net.LinkUtilization(DataAddr("p1"))
			return rx >= 1
		})
		done := make(chan error, 1)
		go func() { done <- readAll(d, chunks) }()
		waitUntil(t, time.Minute, func() bool { return tc.client.infl["p1"].Value() > 0 })
		tc.servers[1].Crash()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		assertIdle(t, tc.client)
	})
	t.Run("failover", func(t *testing.T) {
		tc := newTestCluster(t, 3, nil)
		d, chunks := fill(t, tc, 4)
		tc.servers[2].Crash() // the backup of every chunk, alive in the client's view
		if err := readAll(d, chunks); err != nil {
			t.Fatal(err)
		}
		assertIdle(t, tc.client)
	})
	t.Run("CRC error", func(t *testing.T) {
		tc := newTestCluster(t, 3, nil)
		d, chunks := fill(t, tc, 4)
		for _, disk := range tc.servers[1].Disks() {
			disk.CorruptSector(70) // in the first chunk each disk holds
		}
		if err := readAll(d, chunks); err != nil {
			t.Fatal(err)
		}
		assertIdle(t, tc.client)
	})
	t.Run("parked for a new view, forced refresh", func(t *testing.T) {
		tc := newTestCluster(t, 3, nil)
		tc.client.opDeadline = time.Second
		refreshes := func() int64 {
			return tc.w.Obs.Counter("petal.refresh.rpcs#ws0").Value() + tc.w.Obs.Counter("petal.refresh.skipped#ws0").Value()
		}
		before := refreshes()
		if err := tc.client.Read("never-created", 0, make([]byte, 2*ChunkSize)); err == nil {
			t.Fatal("read of a nonexistent vdisk succeeded")
		}
		if refreshes() == before {
			t.Fatal("test vacuous: the parked pieces forced no refresh")
		}
		assertIdle(t, tc.client)
	})
	t.Run("no candidate left at a rank", func(t *testing.T) {
		tc := newTestCluster(t, 3, nil)
		d, chunks := fill(t, tc, 2)
		tc.client.opDeadline = 6 * time.Second
		tc.servers[1].Crash()
		tc.servers[2].Crash()
		if err := readAll(d, chunks); err == nil {
			t.Fatal("read with both replicas dead succeeded")
		}
		assertIdle(t, tc.client)
	})
	t.Run("no view to route with", func(t *testing.T) {
		tc := newTestCluster(t, 3, nil)
		lone := NewClient(tc.w, "ws9", []string{"p0", "p1", "p2"})
		defer lone.Close()
		lone.opDeadline = time.Second
		tc.w.Net.Isolate(ClientAddr("ws9"))
		if err := lone.Read("vol", 0, make([]byte, ChunkSize)); err == nil {
			t.Fatal("read by a client that reaches nobody succeeded")
		}
		assertIdle(t, lone)
	})
}

var errWrongBytes = errors.New("read returned the wrong bytes")

// TestSplitReadSameBytes: a balanced, split read returns what the same
// read returns from the primary alone — unaligned at both ends, one to
// three chunks, over written chunks, a half-written one and a hole —
// and leaves nothing stale in a destination it only partly fills.
func TestSplitReadSameBytes(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	// Chunks 0-2 written, 3 never, 4 its first 20000 bytes, 5 written.
	const span = 6 * ChunkSize
	model := make([]byte, span)
	copy(model, patternBuf(3*ChunkSize, 11))
	copy(model[4*ChunkSize:], patternBuf(20000, 13))
	copy(model[5*ChunkSize:], patternBuf(ChunkSize, 17))
	for _, r := range [][2]int{{0, 3 * ChunkSize}, {4 * ChunkSize, 20000}, {5 * ChunkSize, ChunkSize}} {
		if err := d.WriteAt(model[r[0]:r[0]+r[1]], int64(r[0])); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(21))
	var split int64
	for i := 0; i < 40; i++ {
		n := 1 + rng.Intn(3*ChunkSize)
		off := rng.Intn(span - n)
		got, want := bytes.Repeat([]byte{0xAA}, n), bytes.Repeat([]byte{0x55}, n)
		tc.client.SetReadBalance(true)
		_, exts := readDelta(t, tc.client, func() error { return d.ReadAt(got, int64(off)) })
		tc.client.SetReadBalance(false)
		_, plain := readDelta(t, tc.client, func() error { return d.ReadAt(want, int64(off)) })
		split += exts - plain
		if !bytes.Equal(got, want) {
			t.Fatalf("read of %d bytes at %d: balanced and primary-only disagree", n, off)
		}
		if !bytes.Equal(got, model[off:off+n]) {
			t.Fatalf("read of %d bytes at %d: wrong bytes", n, off)
		}
	}
	if split == 0 {
		t.Fatal("test vacuous: no read was split")
	}
}

// splitFixture is a two-server cluster holding one written chunk, with
// a byte pinned on the chunk's primary so that a lone read's first half
// goes to the backup and its second to the primary. unpin undoes it.
func splitFixture(t *testing.T) (tc *testCluster, d vdisk, data []byte, primary, backup *Server, unpin func()) {
	t.Helper()
	tc = newTestCluster(t, 2, nil)
	d = tc.mustCreate(t, "vol")
	data = patternBuf(ChunkSize, 23)
	if err := d.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	st := tc.servers[0].State()
	p1, _ := st.Replicas("vol", 0)
	primary, backup = tc.servers[0], tc.servers[1]
	if p1 != primary.Name() {
		primary, backup = backup, primary
	}
	tc.client.infl[p1].Add(1)
	return tc, d, data, primary, backup, func() { tc.client.infl[p1].Add(-1) }
}

// TestSplitReadCorruptHalf: a CRC error inside one part of a lone read
// sends that part, and only it, to the other replica — four requests,
// then one, each of one extent — and the bytes served count once
// towards the balance, where they were served.
func TestSplitReadCorruptHalf(t *testing.T) {
	tc, d, data, primary, _, unpin := splitFixture(t)
	defer unpin()
	for _, disk := range primary.Disks() {
		disk.CorruptSector(100) // byte 51200 of the one chunk the server holds
	}
	got := bytes.Repeat([]byte{0xAA}, ChunkSize)
	before := tc.client.Stats()
	rpcs, exts := readDelta(t, tc.client, func() error { return d.ReadAt(got, 0) })
	after := tc.client.Stats()
	if rpcs != 5 || exts != 5 {
		t.Errorf("%d requests carrying %d extents, want 5 and 5: only the damaged part goes again", rpcs, exts)
	}
	if !bytes.Equal(got, data) {
		t.Error("wrong bytes after the damaged part failed over")
	}
	if p, b := after.ReadPrimary-before.ReadPrimary, after.ReadBackup-before.ReadBackup; p != ChunkSize/4 || b != 3*ChunkSize/4 {
		t.Errorf("balance counted %d bytes at the primary and %d at the backup, want %d and %d: each part once, where it was served",
			p, b, ChunkSize/4, 3*ChunkSize/4)
	}
}

// TestSplitReadDeadReplica: a replica the view knows is dead gets no
// half — one request, one extent; one the view still believes in gets
// its half of a lone read, whose two parts time out and fail over, and
// is counted once.
func TestSplitReadDeadReplica(t *testing.T) {
	t.Run("view stale", func(t *testing.T) {
		tc, d, data, primary, _, unpin := splitFixture(t)
		defer unpin()
		primary.Crash()
		got := bytes.Repeat([]byte{0xAA}, ChunkSize)
		before := tc.client.Stats()
		rpcs, _ := readDelta(t, tc.client, func() error { return d.ReadAt(got, 0) })
		after := tc.client.Stats()
		if rpcs != 6 {
			t.Errorf("%d requests, want 6: two parts each, and the dead replica's two again", rpcs)
		}
		if !bytes.Equal(got, data) {
			t.Error("wrong bytes after the half on the dead replica failed over")
		}
		if p, b := after.ReadPrimary-before.ReadPrimary, after.ReadBackup-before.ReadBackup; p != 0 || b != ChunkSize {
			t.Errorf("balance counted %d bytes at the primary and %d at the backup, want 0 and %d", p, b, ChunkSize)
		}
	})
	t.Run("view refreshed", func(t *testing.T) {
		tc := newTestCluster(t, 3, nil)
		d := tc.mustCreate(t, "vol")
		chunk := chunksWhere(t, tc, 0, 1, func(p1, p2 string) bool { return p1 == "p1" && p2 == "p2" })[0]
		data := patternBuf(ChunkSize, 29)
		if err := d.WriteAt(data, chunk*ChunkSize); err != nil {
			t.Fatal(err)
		}
		tc.servers[2].Crash()
		waitUntil(t, time.Minute, func() bool {
			st, err := tc.client.State()
			if err != nil || st.Alive["p2"] {
				_ = tc.client.follow.Refresh(st.Version) // not yet: ask for a newer view
				return false
			}
			return true
		})
		got := bytes.Repeat([]byte{0xAA}, ChunkSize)
		rpcs, exts := readDelta(t, tc.client, func() error { return d.ReadAt(got, chunk*ChunkSize) })
		if rpcs != 1 || exts != 1 {
			t.Errorf("%d requests carrying %d extents with the backup known dead, want 1 and 1", rpcs, exts)
		}
		if !bytes.Equal(got, data) {
			t.Error("wrong bytes from the surviving replica")
		}
	})
}

// TestBalanceCountsRetriedReadOnce: a read whose first attempt found
// nobody, and which was routed again after a refresh, adds its bytes
// to the balance once.
func TestBalanceCountsRetriedReadOnce(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	data := patternBuf(ChunkSize, 31)
	if err := d.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	before := tc.client.Stats()
	tc.w.Net.Isolate(ClientAddr("ws0"))
	got := make([]byte, ChunkSize)
	done := make(chan error, 1)
	go func() { done <- d.ReadAt(got, 0) }()
	// Both preferences of the four parts have been tried once the second
	// round of requests is out; the attempt after the refresh gets through.
	waitUntil(t, time.Minute, func() bool { return tc.client.Stats().ReadVRPCs-before.ReadVRPCs >= 8 })
	tc.w.Net.Heal(ClientAddr("ws0"))
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	after := tc.client.Stats()
	if !bytes.Equal(got, data) {
		t.Error("wrong bytes after the retry")
	}
	if n := after.ReadPrimary - before.ReadPrimary + after.ReadBackup - before.ReadBackup; n != ChunkSize {
		t.Errorf("balance counted %d bytes for a %d byte read routed %d times", n, ChunkSize, after.ReadVExtents-before.ReadVExtents)
	}
}

// routeFixture is a client with a three-server view and nobody to talk
// to: enough to cut, route and batch.
func routeFixture(tb testing.TB) *Client {
	w := sim.NewWorld(200, 3)
	names := []string{"p0", "p1", "p2"}
	c := NewClient(w, "ws0", names)
	c.follow.Adopt(NewGlobalState(names), 0)
	tb.Cleanup(func() {
		c.Close()
		w.Stop()
	})
	return c
}

// routeBatch does what a read does before its first request leaves —
// plan its round: cut the extents, route every piece (charging it),
// group by server — and gives the charges back. It returns the requests
// it would send.
func routeBatch(c *Client, st *GlobalState, exts []ReadExtent) int {
	x := c.newXfer(obs.Ctx{}, "vol", false)
	defer x.release()
	x.in.view = st
	for _, e := range exts {
		x.exts = append(x.exts, Extent{Off: e.Off, Data: e.Dst})
	}
	x.plan(x.exts, nil)
	for _, b := range x.pl.batches {
		c.infl[b.srv].Add(-int64(b.bytes))
	}
	return len(x.pl.batches)
}

// routeShapes are the reads BenchmarkReadRoute and the allocation
// budget are stated for.
func routeShapes() []struct {
	name string
	exts []ReadExtent
} {
	mb := make([]ReadExtent, 16)
	for i := range mb {
		mb[i] = ReadExtent{Off: int64(i) * ChunkSize, Dst: make([]byte, ChunkSize)}
	}
	return []struct {
		name string
		exts []ReadExtent
	}{
		{"Read4K", []ReadExtent{{Off: 8192, Dst: make([]byte, 4096)}}},
		{"Read64K", []ReadExtent{{Off: 0, Dst: make([]byte, ChunkSize)}}},
		{"ReadV1M", mb},
	}
}

// TestSmallReadRoutesAsBefore: the routing hop of a read under half a
// chunk allocates no more than it did before reads were split — the
// piece slice, the batch slice and the batch's piece slice, 3; since
// they live in the call's pooled scratch it is none at all, and under
// the race detector, whose pool drops a share of what it is given, an
// average below that — and a whole chunk leaves as two requests.
func TestSmallReadRoutesAsBefore(t *testing.T) {
	c := routeFixture(t)
	st, _ := c.State()
	shapes := routeShapes()
	if allocs := testing.AllocsPerRun(200, func() { routeBatch(c, &st, shapes[0].exts) }); allocs > 3 {
		t.Fatalf("routing a 4 KB read allocates %.1f objects, 3 before reads were split", allocs)
	}
	if n := routeBatch(c, &st, shapes[1].exts); n != 2 {
		t.Fatalf("a 64 KB read would leave as %d requests, want 2", n)
	}
	assertIdle(t, c)
}

// BenchmarkReadRoute is the routing hop's host-time budget: cut, route
// and batch one read, nothing sent.
func BenchmarkReadRoute(b *testing.B) {
	c := routeFixture(b)
	st, _ := c.State()
	for _, sh := range routeShapes() {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				routeBatch(c, &st, sh.exts)
			}
		})
	}
}
