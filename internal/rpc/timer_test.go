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
// A holding carrier answers nothing: the test delivers by hand.
type answering struct {
	recv  func(from string, env Envelope, size int)
	reply func() any
	delay time.Duration
	hold  bool
}

func (c *answering) Register(_ string, recv func(string, Envelope, int)) { c.recv = recv }
func (c *answering) Unregister(string)                                   {}
func (c *answering) Send(from, to string, req Envelope, size int) error {
	if c.hold {
		return nil
	}
	env := Envelope{ID: req.ID, IsReply: true, Body: c.reply()}
	if c.delay == 0 {
		c.recv(to, env, size)
	} else {
		time.AfterFunc(c.delay, func() { c.recv(to, env, size) })
	}
	return nil
}

// TestCallReplyAndTimerRace: a call whose reply and time-out come
// together is right whichever its select takes and whichever order the
// reply's delivery and the time-out's clean-up run in — the reply goes
// to the caller unreleased, or the call times out and the reply's pooled
// buffer is given back, once. Each order is stepped by hand (send, the
// reply's delivery, expire), so every one runs on any host.
func TestCallReplyAndTimerRace(t *testing.T) {
	c := &answering{hold: true}
	e := NewEndpoint("a", c, sim.NewClock(1), nil)
	deliver := func(id uint64, r *pooledReply) { e.receive("b", Envelope{ID: id, IsReply: true, Body: r}, 0) }
	send := func(what string) (uint64, *call) {
		t.Helper()
		id, ch, err := e.send("b", echoReq{})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return id, ch
	}
	expire := func(what string, id uint64, ch *call) {
		t.Helper()
		if err := e.expire("b", id, ch); !errors.Is(err, ErrTimeout) {
			t.Fatalf("%s: expire returned %v", what, err)
		}
		if n := len(e.pending); n != 0 {
			t.Fatalf("%s: %d calls left pending", what, n)
		}
	}

	// The reply is buffered before the call waits and its time is long:
	// the select takes the reply.
	r := new(pooledReply)
	c.hold, c.reply = false, func() any { return r }
	got, err := e.Call("b", echoReq{}, time.Hour)
	if err != nil || got != any(r) || r.released.Load() != 0 {
		t.Fatalf("reply taken: got %v, %v, released %d times while the caller holds it", got, err, r.released.Load())
	}
	c.hold = true

	// The reply is buffered and the select takes the timer.
	r = new(pooledReply)
	id, ch := send("timer taken over a buffered reply")
	deliver(id, r)
	expire("timer taken over a buffered reply", id, ch)
	if n := r.released.Load(); n != 1 {
		t.Fatalf("timer taken over a buffered reply: released %d times, want 1", n)
	}

	// The time-out is cleaned up before the reply arrives: its delivery
	// finds no call and gives the buffer back.
	r = new(pooledReply)
	id, ch = send("reply after the time-out")
	expire("reply after the time-out", id, ch)
	deliver(id, r)
	if n := r.released.Load(); n != 1 {
		t.Fatalf("reply after the time-out: released %d times, want 1", n)
	}
	if len(ch.reply) != 0 {
		t.Fatal("reply after the time-out reached the expired call's channel")
	}
}

// TestExpiredReplyReachesNoLaterCall: a reply whose delivery took its
// call out of pending just before the call timed out lands in the
// channel after expire has looked; that channel must never serve another
// call, or the next call to draw it would return the stale reply as its
// own.
func TestExpiredReplyReachesNoLaterCall(t *testing.T) {
	c := &answering{hold: true}
	e := NewEndpoint("a", c, sim.NewClock(1), nil)
	// Every round's call takes the slot the round before gave back, so a
	// slot given back at its time-out would serve the very next call; the
	// rounds repeat that on an endpoint whose list has slots in it.
	for round := 0; round < 16; round++ {
		c.hold = true
		id, ch, err := e.send("b", echoReq{})
		if err != nil {
			t.Fatal(err)
		}
		taken := e.takeCall(id) // the delivery's first half
		if err := e.expire("b", id, ch); !errors.Is(err, ErrTimeout) {
			t.Fatalf("round %d: expire returned %v", round, err)
		}
		stale := new(pooledReply)
		taken <- stale // its second half, after expire has looked

		// The next call's reply comes a moment later, from another
		// goroutine: a call handed the stale channel returns at once
		// with what it holds, rather than wait for ever to deliver into it.
		fresh := new(pooledReply)
		c.hold, c.delay, c.reply = false, time.Millisecond, func() any { return fresh }
		got, err := e.Call("b", echoReq{}, time.Hour)
		if err != nil || got != any(fresh) {
			t.Fatalf("round %d: the next call got %v, %v; want its own reply", round, got, err)
		}
	}
}

// TestCallTimerIsStoppedAndReused: the timer of a call whose reply won
// goes back to the endpoint's call slots stopped, so the call that takes
// it next waits its own time-out and not the rest of that one.
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

// callAllocs is what a call allocates on this carrier: nothing, since
// envelopes travel by value and its reply channel and timer are a slot of
// the endpoint's. It was 7 while every call armed a timer and
// channel of its own for its time-out, 4 while it made its reply channel
// (two objects, a buffered channel of pointers), and 2 while the carrier
// took the request's envelope, and the reply's, boxed.
const callAllocs = 0

// TestCallAllocs: the time-out of a call allocates nothing: its timer and
// its reply channel are a slot the endpoint keeps, under the race
// detector too.
func TestCallAllocs(t *testing.T) {
	c := &answering{reply: func() any { return nil }}
	e := NewEndpoint("a", c, sim.NewClock(1), nil)
	var req any = echoReq{}
	n := testing.AllocsPerRun(200, func() {
		if _, err := e.Call("b", req, time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if n != callAllocs {
		t.Fatalf("a call allocates %v times, want %d", n, callAllocs)
	}
}
