package petal

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"frangipani/internal/bufpool"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// replyHold is the carrier of a cluster's servers and client. Once armed,
// it holds the first read reply a server sends until release; it closes
// landed once that reply has been delivered to the client.
type replyHold struct {
	rpc.Carrier
	mu       sync.Mutex
	armed    bool
	held     *ReadVResp
	caught   chan struct{}
	released chan struct{}
	landed   chan struct{}
}

func (h *replyHold) Send(from, to string, env rpc.Envelope, size int) error {
	if r, ok := env.Body.(*ReadVResp); ok && env.IsReply {
		h.mu.Lock()
		hold := h.armed
		if hold {
			h.armed, h.held = false, r
		}
		h.mu.Unlock()
		if hold {
			close(h.caught)
			<-h.released
		}
	}
	return h.Carrier.Send(from, to, env, size)
}

func (h *replyHold) Register(name string, recv func(from string, env rpc.Envelope, size int)) {
	h.Carrier.Register(name, func(from string, env rpc.Envelope, size int) {
		recv(from, env, size)
		h.mu.Lock()
		late := h.held != nil && env.Body == any(h.held)
		h.mu.Unlock()
		if late {
			close(h.landed)
		}
	})
}

// TestLateReadReplyReachesNoLaterRead is TestExpiredReplyReachesNoLaterCall
// for Petal's read replies, which are one object each, data buffer and
// all. A read's reply is held past its call's time-out, and the read
// fails over to the other replica. The held reply, released, lands after
// its call gave up: the client's endpoint releases its buffer, once —
// a second release does nothing, and the pool does not hand the buffer
// out twice — and no later read gets the stale reply or its bytes.
func TestLateReadReplyReachesNoLaterRead(t *testing.T) {
	w := sim.NewWorld(200, 3)
	h := &replyHold{Carrier: rpc.SimCarrier{Net: w.Net},
		caught: make(chan struct{}), released: make(chan struct{}), landed: make(chan struct{})}
	names := []string{"p0", "p1", "p2"}
	cfg := DefaultServerConfig(64 << 20)
	cfg.NumDisks = 3
	cfg.HeartbeatEvery, cfg.SuspectAfter = 2*time.Second, 10*time.Second
	var servers []*Server
	for _, n := range names {
		servers = append(servers, NewServerWithCarrier(w, n, names, cfg, h))
	}
	c := NewClientWithCarrier(w, "ws0", names, h)
	var once sync.Once
	release := func() { once.Do(func() { close(h.released) }) }
	t.Cleanup(func() {
		release()
		c.Close()
		for _, s := range servers {
			s.Close()
		}
		w.Stop()
	})
	if err := c.CreateVDisk("vol"); err != nil {
		t.Fatal(err)
	}
	chunks := [][]byte{patternBuf(ChunkSize, 1), patternBuf(ChunkSize, 2)}
	for i, data := range chunks {
		if err := c.Write("vol", int64(i)*ChunkSize, data); err != nil {
			t.Fatal(err)
		}
	}

	h.mu.Lock()
	h.armed = true
	h.mu.Unlock()
	got := make([]byte, ChunkSize)
	if err := c.Read("vol", 0, got); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.caught:
	default:
		t.Fatal("no read reply was held")
	}
	if !bytes.Equal(got, chunks[0]) {
		t.Fatal("the read that failed over past its held reply returned the wrong bytes")
	}
	// On one P the endpoint's release and ours put into the same pool
	// shard, so a buffer put twice would come out of the next two Gets.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	release()
	select {
	case <-h.landed:
	case <-time.After(20 * time.Second):
		t.Fatal("the held reply never reached the client")
	}
	late := h.held
	size := cap(late.Results[0].Data)
	rpc.Release(late) // the endpoint released it already: this does nothing
	a, b := bufpool.Get(size), bufpool.Get(size)
	if a == b {
		t.Fatal("the pool hands the late reply's buffer out twice")
	}
	bufpool.Put(a)
	bufpool.Put(b)

	var wg sync.WaitGroup
	errs := make(chan error, 2*len(chunks)*8)
	for round := 0; round < 8; round++ {
		for i, want := range chunks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := make([]byte, ChunkSize)
				if err := c.Read("vol", int64(i)*ChunkSize, got); err != nil {
					errs <- err
				} else if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("a later read of chunk %d returned bytes that are not its own", i)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
