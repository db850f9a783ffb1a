package frangipani_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"frangipani"
	"frangipani/internal/bufpool"
	"frangipani/internal/petal"
	"frangipani/internal/rpc"
)

// tailCrash is a carrier under one file server's Petal client. Once armed,
// it watches the write requests that carry bytes of want: the first whose
// first extent starts where an earlier one to the same server ended is a
// flight's tail. Before it leaves, the carrier waits until that head has
// landed on both replicas of its chunk and crashes the chunk's primary.
type tailCrash struct {
	rpc.Carrier
	t      *testing.T
	c      *frangipani.Cluster
	pc     func() *petal.Client
	want   []byte
	mu     sync.Mutex
	armed  bool
	ends   map[[2]int64]head // by a head's chunk and end
	tail   []byte            // the tail's data: the flight's pooled buffer
	bytes  []byte            // what the tail carried when it left
	chunk  int64
	off    int
	victim *petal.Server
	backup *petal.Server
}

// head is where a head went and how long it was.
type head struct {
	to string
	n  int
}

func (tc *tailCrash) Send(from, to string, env rpc.Envelope, size int) error {
	r, ok := env.Body.(*petal.WriteVReq)
	tc.mu.Lock()
	if !ok || r.Forwarded || !tc.armed || len(r.Extents) == 0 || len(r.Extents[0].Data) < 4096 ||
		!bytes.Contains(tc.want, r.Extents[0].Data) {
		tc.mu.Unlock()
		return tc.Carrier.Send(from, to, env, size)
	}
	e := r.Extents[0]
	hd, ok := tc.ends[[2]int64{e.Chunk, int64(e.Off)}]
	if !ok || hd.to != to {
		tc.ends[[2]int64{e.Chunk, int64(e.Off + len(e.Data))}] = head{to, len(e.Data)}
		tc.mu.Unlock()
		return tc.Carrier.Send(from, to, env, size)
	}
	tc.armed = false
	tc.mu.Unlock()

	st, err := tc.pc().State()
	if err != nil {
		tc.t.Error(err)
		return tc.Carrier.Send(from, to, env, size)
	}
	p1, p2 := st.Replicas("fs0", e.Chunk)
	for _, s := range tc.c.Petals {
		switch s.Name() {
		case p1:
			tc.victim = s
		case p2:
			tc.backup = s
		}
	}
	i := bytes.Index(tc.want, e.Data)
	headLanded := func(s *petal.Server) bool {
		got, ok := s.DebugReadChunk("fs0", e.Chunk, e.Off-hd.n, hd.n)
		return ok && i >= hd.n && bytes.Equal(got, tc.want[i-hd.n:i])
	}
	for deadline := time.Now().Add(20 * time.Second); !headLanded(tc.victim) || !headLanded(tc.backup); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			tc.t.Error("the flight's head never landed on both replicas")
			break
		}
	}
	tc.tail, tc.bytes = e.Data, bytes.Clone(e.Data)
	tc.chunk, tc.off = e.Chunk, e.Off
	tc.victim.Crash()
	return tc.Carrier.Send(from, to, env, size)
}

// TestFlightTailFailsOverAfterPrimaryCrash: a write-behind flight leaves
// in two parts, and the primary of its chunk crashes once the head has
// landed on both replicas and before the tail leaves. The tail goes to the
// crashed primary, gets no answer and fails over to the backup. The fsync
// that joins the flight returns nil only once the tail is on the backup;
// the flight's pooled buffer is not recycled, since a call of it went
// unanswered (fs's writeBatch); and once the primary is back and repaired, the file read
// through the other server holds the newest bytes and fsck is clean.
func TestFlightTailFailsOverAfterPrimaryCrash(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: one shard of bufpool's sync.Pool, all of it in reach of a Get
	cfg := frangipani.DefaultClusterConfig()
	cfg.Compression = 25 // a crash and a failover in a slower world: host stalls are not timeouts
	c, err := frangipani.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	const n = 256 << 10
	old, newest := pattern(n, 1), pattern(n, 2)
	var pc *petal.Client
	// The stream's first flight carries its first two chunks (the first
	// write starts the stream and hands off nothing), each later one a
	// chunk, in a buffer from the pool: the hook watches the last two.
	hook := &tailCrash{Carrier: rpc.SimCarrier{Net: c.World.Net}, t: t, c: c, want: newest[n/2:],
		ends: map[[2]int64]head{}, pc: func() *petal.Client { return pc }}
	pc = petal.NewClientWithCarrier(c.World, "ws1", c.PetalServerNames(), hook)
	t.Cleanup(pc.Close)
	ws1, err := frangipani.Mount(c.World, "ws1", pc, "fs0", c.LockServerNames(), c.Layout(), cfg.FSConfig)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ws1.Unmount() })
	ws2 := addServer(t, c, "ws2")

	h, err := ws1.OpenFile("/flight", true)
	if err != nil {
		t.Fatal(err)
	}
	write := func(data []byte) {
		t.Helper()
		for off := 0; off < len(data); off += 64 << 10 {
			if _, err := h.WriteAt(data[off:off+64<<10], int64(off)); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(old)
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	hook.mu.Lock()
	hook.armed = true
	hook.mu.Unlock()
	write(newest)
	if err := h.Sync(); err != nil {
		t.Fatalf("fsync after the primary crashed: %v", err)
	}
	if hook.victim == nil {
		t.Fatal("fsync returned before a flight's tail had left behind its head")
	}
	got, ok := hook.backup.DebugReadChunk("fs0", hook.chunk, hook.off, len(hook.bytes))
	if !ok || !bytes.Equal(got, hook.bytes) {
		t.Fatal("fsync returned before the flight's tail landed on the backup")
	}

	// Whatever the pool holds of the flight's size, on the one P there is,
	// comes back to a Get: none of it may be the buffer the unanswered
	// tail still points at.
	var drained []*[]byte
	for range 256 {
		p := bufpool.Get(64 << 10)
		for i := range *p {
			(*p)[i] = 0xee
		}
		drained = append(drained, p)
	}
	if !bytes.Equal(hook.tail, hook.bytes) {
		t.Fatal("the flight's buffer was recycled while its tail's call was unanswered")
	}
	for _, p := range drained {
		bufpool.Put(p)
	}

	hook.victim.Restart()
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if got, ok := hook.victim.DebugReadChunk("fs0", hook.chunk, hook.off, len(hook.bytes)); ok && bytes.Equal(got, hook.bytes) &&
			hook.backup.State().Alive[hook.victim.Name()] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the restarted primary was never repaired")
		}
	}
	r, err := ws2.Open("/flight")
	if err != nil {
		t.Fatal(err)
	}
	back := make([]byte, n)
	if _, err := r.ReadAt(back, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, newest) {
		t.Fatal("the other server does not read the newest bytes")
	}
	for _, f := range []*frangipani.FS{ws1, ws2} {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := c.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck problems: %+v", rep.Problems)
	}
}

// pattern is n pseudo-random bytes drawn from seed: no page of it repeats
// another.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(int64(seed))).Read(b)
	return b
}
