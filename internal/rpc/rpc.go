// Package rpc provides the message transport used by Petal, the lock
// service, and the Frangipani servers. It offers two primitives on a
// common Endpoint type:
//
//   - Cast: a one-way asynchronous message (the lock service's
//     request/grant/revoke/release messages are casts, per §6 of the
//     paper, which notes that clerks and lock servers communicate "via
//     asynchronous messages rather than RPC").
//   - Call: a request/response exchange with a timeout, used for the
//     Petal data path.
//
// The default carrier is the in-memory simulated network
// (sim.Network), which charges link bandwidth and latency; a TCP
// carrier with the same interface and the same per-pair order lives in
// tcp.go, to run the protocols over real sockets.
package rpc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"frangipani/internal/reuse"
	"frangipani/internal/sim"
)

// Errors returned by calls.
var (
	ErrTimeout = errors.New("rpc: call timed out")
	ErrClosed  = errors.New("rpc: endpoint closed")
)

// Envelope frames every message on the wire: correlation and nothing
// else. What a message is sent on behalf of (trace, principal) is the
// protocol's business and travels in the body. It is exported so the
// wire codec's tests and benchmarks can drive the exact carrier format.
type Envelope struct {
	ID      uint64 // correlation id; 0 for casts
	IsReply bool
	Body    any
}

// word is the envelope's correlation — ID and reply bit — in one word:
// what the wire codec writes as a uvarint and sim.Message carries as
// Corr, so the envelope itself is never boxed.
func (e Envelope) word() uint64 {
	w := e.ID << 1
	if e.IsReply {
		w |= 1
	}
	return w
}

// envelope rebuilds the envelope of body from its correlation word.
func envelope(word uint64, body any) Envelope {
	return Envelope{ID: word >> 1, IsReply: word&1 != 0, Body: body}
}

// HandlerFunc serves an incoming message. For messages sent with
// Call, the returned value (if non-nil) is sent back as the reply.
// For casts the return value is ignored. A call's handler runs on one of
// the endpoint's handler workers and may block; a cast's runs on the
// delivery goroutine.
type HandlerFunc func(from string, body any) (reply any)

// Carrier abstracts the underlying datagram network so Endpoint works
// over both sim.Network and TCP. Envelopes travel by value. Each
// (from, to) pair is one FIFO on both carriers: the messages one host
// sends another, casts and calls alike, are delivered in send order.
type Carrier interface {
	// Send transmits env to the named host, charging the modelled wire
	// size.
	Send(from, to string, env Envelope, size int) error
	// Register installs the receive function for a host.
	Register(name string, recv func(from string, env Envelope, size int))
	// Unregister removes the host.
	Unregister(name string)
}

// SimCarrier adapts sim.Network to the Carrier interface: the body is
// the message's payload and the correlation word rides beside it.
type SimCarrier struct{ Net *sim.Network }

// Send implements Carrier.
func (c SimCarrier) Send(from, to string, env Envelope, size int) error {
	return c.Net.SendMessage(sim.Message{From: from, To: to, Payload: env.Body, Size: size, Corr: env.word()})
}

// Register implements Carrier.
func (c SimCarrier) Register(name string, recv func(from string, env Envelope, size int)) {
	c.Net.Register(name, func(m sim.Message) { recv(m.From, envelope(m.Corr, m.Payload), m.Size) })
}

// Unregister implements Carrier.
func (c SimCarrier) Unregister(name string) { c.Net.Unregister(name) }

// Endpoint is one named party on the network. It dispatches incoming
// requests to its handler and routes replies back to waiting callers.
//
// A call's handler runs on one of the endpoint's handler workers: a
// worker serves the call, sends its reply, parks and serves whatever call
// it is handed next, so the workers are as many as the calls ever served
// at once, not one per call. Close ends the parked ones and lets the busy
// ones end when their call is answered.
type Endpoint struct {
	addr    string
	carrier Carrier
	clock   *sim.Clock
	handler HandlerFunc // nil: requests are dropped

	mu      sync.Mutex
	pending map[uint64]chan any
	nextID  uint64
	closed  bool

	workers reuse.Workers[request]
	calls   reuse.List[*call] // the slots of calls answered in time
}

// request is an incoming call, as a handler worker is handed it.
type request struct {
	e    *Endpoint
	from string
	id   uint64
	body any
}

// call is a call's slot: the channel its reply is delivered on and the
// timer of its time-out. A call takes one from its endpoint's calls, not
// a new channel and timer, and gives it back once its reply has come in
// time. The slot of a call that timed out is left to the collector: a
// reply whose delivery took the call out of pending before the time-out
// did may still be on its way into the channel, and must not reach the
// next call to use it.
type call struct {
	reply chan any
	timer *time.Timer
}

// NewEndpoint registers addr on the carrier and returns the endpoint.
// An endpoint with a nil handler only makes calls and casts.
func NewEndpoint(addr string, carrier Carrier, clock *sim.Clock, h HandlerFunc) *Endpoint {
	e := &Endpoint{
		addr:    addr,
		carrier: carrier,
		clock:   clock,
		handler: h,
		pending: make(map[uint64]chan any),
	}
	carrier.Register(addr, e.receive)
	return e
}

func (e *Endpoint) receive(from string, env Envelope, size int) {
	if env.IsReply {
		if ch := e.takeCall(env.ID); ch != nil {
			ch <- env.Body
		} else {
			// Caller gave up (timeout): return any pooled payload
			// buffer the decoded reply still holds.
			Release(env.Body)
		}
		return
	}
	h := e.handler
	if h == nil {
		Release(env.Body)
		return
	}
	if env.ID == 0 {
		// Casts run synchronously on the delivery goroutine so that
		// per-pair FIFO network ordering extends to handler execution;
		// the lock protocol depends on a release sent before a request
		// being processed before it.
		h(from, env.Body)
		return
	}
	// A closed endpoint serves nothing.
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		Release(env.Body)
		return
	}
	e.workers.Go(request{e: e, from: from, id: env.ID, body: env.Body})
}

// Run serves r on a handler worker: it answers the call.
func (r request) Run() {
	e := r.e
	if reply := e.handler(r.from, r.body); reply != nil {
		_ = e.carrier.Send(e.addr, r.from, Envelope{ID: r.id, IsReply: true, Body: reply}, sizeOf(reply))
	}
}

// Cast sends a one-way message. Delivery is best-effort: an error is
// returned only for immediately-detectable failures (unknown or
// unreachable destination).
func (e *Endpoint) Cast(to string, body any) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return e.carrier.Send(e.addr, to, Envelope{Body: body}, sizeOf(body))
}

// Call sends a request and waits up to timeout (simulated time) for
// the reply.
func (e *Endpoint) Call(to string, req any, timeout time.Duration) (any, error) {
	p, err := e.Go(to, req)
	if err != nil {
		return nil, err
	}
	return p.Wait(timeout)
}

// Pending is a call whose request has been sent: Wait collects its
// reply.
type Pending struct {
	e    *Endpoint
	to   string
	id   uint64
	call *call
}

// Go sends a request and returns without waiting for the reply. Two
// calls to one destination started one after the other from one
// goroutine reach it in that order, whatever their sizes: each pair's
// messages are delivered in send order, on both carriers.
func (e *Endpoint) Go(to string, req any) (Pending, error) {
	id, c, err := e.send(to, req)
	return Pending{e: e, to: to, id: id, call: c}, err
}

// Wait waits up to timeout (simulated time), counted from now, for the
// reply to p. Call it once.
func (p Pending) Wait(timeout time.Duration) (any, error) {
	c, d := p.call, p.e.clock.Real(timeout)
	if c.timer == nil {
		c.timer = time.NewTimer(d)
	} else {
		c.timer.Reset(d)
	}
	select {
	case reply := <-c.reply:
		// Stopped, a timer delivers nothing more (go 1.23 timers): the
		// next call to take the slot finds its channel empty.
		c.timer.Stop()
		// The reply's sender took the call out of pending before it
		// sent, so nobody else holds the channel now.
		p.e.calls.Put(c)
		return reply, nil
	case <-c.timer.C:
		return nil, p.e.expire(p.to, p.id, c)
	}
}

// send registers a call under a fresh id, in a slot from the endpoint's
// calls, and sends its request.
func (e *Endpoint) send(to string, req any) (id uint64, c *call, err error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, nil, ErrClosed
	}
	e.nextID++
	id = e.nextID
	c, ok := e.calls.Take()
	if !ok {
		c = &call{reply: make(chan any, 1)}
	}
	e.pending[id] = c.reply
	e.mu.Unlock()
	if err := e.carrier.Send(e.addr, to, Envelope{ID: id, Body: req}, sizeOf(req)); err != nil {
		e.takeCall(id)
		return 0, nil, err
	}
	return id, c, nil
}

// takeCall removes the call id from pending and returns its reply
// channel, or nil if it is no longer pending: whoever takes it is the
// one party that may send on it.
func (e *Endpoint) takeCall(id uint64) chan any {
	e.mu.Lock()
	defer e.mu.Unlock()
	ch := e.pending[id]
	delete(e.pending, id)
	return ch
}

// expire ends a call whose time ran out. Its slot is not given back (see
// call).
func (e *Endpoint) expire(to string, id uint64, c *call) error {
	e.takeCall(id)
	// The reply may have been buffered in the same instant the timer
	// fired; recycle its pooled payload buffer if so.
	select {
	case reply := <-c.reply:
		Release(reply)
	default:
	}
	return fmt.Errorf("%w: %s -> %s", ErrTimeout, e.addr, to)
}

// Close unregisters the endpoint and ends its parked handler workers; a
// busy one ends once its call is answered. Outstanding calls time out.
func (e *Endpoint) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.workers.Close()
	e.carrier.Unregister(e.addr)
}

// Sizer lets message types report their modelled wire size so the
// simulated network charges realistic bandwidth. Types that do not
// implement it are charged a small fixed header size.
type Sizer interface{ WireSize() int }

// DefaultMsgSize is the modelled size of a message that does not
// implement Sizer: a typical small control message.
const DefaultMsgSize = 128

func sizeOf(body any) int {
	if s, ok := body.(Sizer); ok {
		return s.WireSize() + DefaultMsgSize
	}
	return DefaultMsgSize
}
