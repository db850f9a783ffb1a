package rpc

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"frangipani/internal/sim"
)

// pooledReply is a reply body holding a pooled buffer; it counts how
// often it is given back.
type pooledReply struct{ released atomic.Int32 }

func (p *pooledReply) ReleaseWire() { p.released.Add(1) }

// answering is a carrier with one endpoint on it: a request sent is
// answered with reply, delay later, on the sender's own goroutine when
// delay is zero — the reply is then buffered before Call starts to wait.
type answering struct {
	recv  func(from string, body any, size int)
	reply func() any
	delay time.Duration
}

func (c *answering) Register(_ string, recv func(string, any, int)) { c.recv = recv }
func (c *answering) Unregister(string)                              {}
func (c *answering) Send(from, to string, body any, size int) error {
	env := Envelope{ID: body.(Envelope).ID, IsReply: true, Body: c.reply()}
	if c.delay == 0 {
		c.recv(to, env, size)
	} else {
		time.AfterFunc(c.delay, func() { c.recv(to, env, size) })
	}
	return nil
}

// TestCallReplyAndTimerRace: a call whose reply is already buffered when
// its timer has already run out takes either, and is right both ways —
// the reply goes to the caller unreleased, or the call times out and
// gives the reply's pooled buffer back, once.
func TestCallReplyAndTimerRace(t *testing.T) {
	var last *pooledReply
	c := &answering{reply: func() any { last = new(pooledReply); return last }}
	e := NewEndpoint("a", c, sim.NewClock(1), nil)
	var replied, timedOut int
	for i := 0; i < 400; i++ {
		got, err := e.Call("b", echoReq{}, time.Nanosecond)
		switch {
		case err == nil:
			replied++
			if got != any(last) || last.released.Load() != 0 {
				t.Fatalf("call %d: reply %v, released %d times while the caller holds it", i, got, last.released.Load())
			}
		case errors.Is(err, ErrTimeout):
			timedOut++
			if n := last.released.Load(); n != 1 {
				t.Fatalf("call %d timed out and released the buffered reply %d times, want 1", i, n)
			}
		default:
			t.Fatal(err)
		}
		if n := len(e.pending); n != 0 {
			t.Fatalf("call %d left %d calls pending", i, n)
		}
	}
	if replied == 0 || timedOut == 0 {
		t.Fatalf("%d calls got their reply and %d timed out: one order of the race never ran", replied, timedOut)
	}
}

// TestCallTimerIsStoppedAndReused: the timer of a call whose reply won
// goes back to the pool stopped, so the call that takes it next waits
// its own time-out and not the rest of that one.
func TestCallTimerIsStoppedAndReused(t *testing.T) {
	c := &answering{reply: func() any { return echoResp{} }}
	e := NewEndpoint("a", c, sim.NewClock(1), nil)
	for i := 0; i < 20; i++ {
		c.delay = 0
		if _, err := e.Call("b", echoReq{}, 20*time.Millisecond); err != nil {
			t.Fatalf("call %d, answered at once: %v", i, err)
		}
		c.delay = 40 * time.Millisecond // past where the timer above would have fired
		if _, err := e.Call("b", echoReq{}, 10*time.Second); err != nil {
			t.Fatalf("call %d, answered after 40 ms of a 10 s time-out: %v", i, err)
		}
	}
}

// callAllocs is what a call allocates on this carrier: its reply channel
// (two objects, a buffered channel of pointers), the envelope boxed for
// the carrier and the reply envelope the test's carrier boxes in turn.
// It was 7 while every call armed a timer and channel of its own for
// its time-out.
const callAllocs = 4

// TestCallAllocs: the time-out of a call allocates nothing, its timer
// comes from the pool.
func TestCallAllocs(t *testing.T) {
	c := &answering{reply: func() any { return nil }}
	e := NewEndpoint("a", c, sim.NewClock(1), nil)
	var req any = echoReq{}
	n := testing.AllocsPerRun(200, func() {
		if _, err := e.Call("b", req, time.Second); err != nil {
			t.Fatal(err)
		}
	})
	// Under the race detector sync.Pool drops a share of what it is given.
	if n < callAllocs || n > callAllocs+1 {
		t.Fatalf("a call allocates %v times, want %d", n, callAllocs)
	}
}
