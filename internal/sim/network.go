package sim

import (
	"errors"
	"fmt"
	"sync"

	"frangipani/internal/reuse"
)

// Errors returned by the network.
var (
	ErrUnreachable = errors.New("sim: host unreachable")
	ErrNoSuchHost  = errors.New("sim: no such host")
)

// LinkParams describes one machine's point-to-point link to the
// switch. The defaults mirror the paper's 155 Mbit/s ATM links, which
// after UDP/IP overhead delivered about 16-17 MB/s of payload.
type LinkParams struct {
	Latency   Duration // one-way propagation + protocol latency
	Bandwidth int64    // payload bytes per simulated second, each direction
}

// DefaultLinkParams returns ATM-like link parameters.
func DefaultLinkParams() LinkParams {
	return LinkParams{
		Latency:   200 * 1000, // 200 us
		Bandwidth: 17 << 20,   // ~17 MB/s payload
	}
}

// link is one machine's full-duplex attachment to the switch. Egress
// and ingress are independent FIFO resources, so a host can saturate
// in one direction while the other stays idle — exactly the asymmetry
// between the paper's read and write scaling experiments.
type link struct {
	params  LinkParams
	egress  *Resource
	ingress *Resource
}

// Message is what a registered handler receives. Payload is the Go
// value sent; Size is the modelled wire size in bytes. Corr is a word
// the sender's transport puts beside the payload — the rpc layer's call
// ID and reply bit — which the network carries and never reads.
type Message struct {
	From    string
	To      string
	Payload any
	Size    int
	Corr    uint64
}

// Handler consumes delivered messages. Handlers run on the delivering
// goroutine and must not block for long; long work should be handed
// off.
type Handler func(Message)

// Network is a switched network of named hosts. Every Send pays the
// sender's egress and the receiver's ingress bandwidth plus latency,
// and is then delivered asynchronously to the destination handler.
// Partitions are expressed as a set of unreachable (from,to) pairs or
// whole-host isolation.
//
// Messages between one (from, to) pair wait in that pair's FIFO queue
// (pairQ), in send order. A delivery worker drains a pair whose head has
// left its sender; when the pair is empty, or its head is still on the
// sender's egress, the worker parks among the network's workers until
// another pair needs one. So the goroutines are as many as the pairs
// busy at once, not one per message in flight; stop ends the parked ones
// and lets the busy ones end when their pairs are drained.
type Network struct {
	clock *Clock

	mu        sync.Mutex
	links     map[string]*link
	handlers  map[string]Handler
	isolated  map[string]bool
	cut       map[[2]string]bool
	pairs     map[[2]string]*pairQ
	dropEvery int64 // drop one message in N (0 = never); deterministic
	sent      int64
	delivered int64
	bytes     int64

	workers reuse.Workers[*pairQ] // the delivery workers
}

// NewNetwork returns an empty network on the given clock.
func NewNetwork(clock *Clock) *Network {
	return &Network{
		clock:    clock,
		links:    make(map[string]*link),
		handlers: make(map[string]Handler),
		isolated: make(map[string]bool),
		cut:      make(map[[2]string]bool),
		pairs:    make(map[[2]string]*pairQ),
	}
}

// pairQ is one (from, to) pair's queue: the messages sent on it and not
// yet delivered, in send order, in a ring that grows to the most that
// were ever in flight at once and is reused from then on. Send takes its
// slot when it is called and marks it ready once the message has left
// the sender, with the instant it is due at the receiver. busy is set
// while a worker drains the pair; the worker keeps the head until its
// handler has returned. All fields are guarded by Network.mu.
type pairQ struct {
	net      *Network
	from, to string
	ring     []delivery
	head, n  int
	base     uint64 // the sequence number of the head
	busy     bool
}

// delivery is one slot of a pair's queue.
type delivery struct {
	msg   Message
	at    Time // due at the receiver: arrival plus both latencies
	ready bool // the message has left the sender and at is set
}

// push takes the next slot for m and returns its sequence number.
func (q *pairQ) push(m Message) uint64 {
	if q.n == len(q.ring) {
		ring := make([]delivery, max(4, 2*len(q.ring)))
		for i := 0; i < q.n; i++ {
			ring[i] = q.ring[(q.head+i)%len(q.ring)]
		}
		q.ring, q.head = ring, 0
	}
	q.ring[(q.head+q.n)%len(q.ring)] = delivery{msg: m}
	q.n++
	return q.base + uint64(q.n-1)
}

// slot is the delivery of sequence number seq, which is still queued.
func (q *pairQ) slot(seq uint64) *delivery {
	return &q.ring[(q.head+int(seq-q.base))%len(q.ring)]
}

// headReady reports whether the pair has a message that can be delivered.
func (q *pairQ) headReady() bool { return q.n > 0 && q.ring[q.head].ready }

// pop drops the head, which has been delivered.
func (q *pairQ) pop() {
	q.ring[q.head] = delivery{} // the payload is the handler's now
	q.head = (q.head + 1) % len(q.ring)
	q.n--
	q.base++
}

// AddHost attaches a host with the given link parameters. Adding an
// existing host replaces its link (and resets its counters) but keeps
// its handler.
func (n *Network) AddHost(name string, p LinkParams) {
	if p.Bandwidth <= 0 {
		p.Bandwidth = DefaultLinkParams().Bandwidth
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[name] = &link{
		params:  p,
		egress:  NewResource(n.clock, name+"/tx"),
		ingress: NewResource(n.clock, name+"/rx"),
	}
}

// Register installs the message handler for a host. It replaces any
// previous handler.
func (n *Network) Register(name string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.links[name]; !ok {
		n.links[name] = &link{
			params:  DefaultLinkParams(),
			egress:  NewResource(n.clock, name+"/tx"),
			ingress: NewResource(n.clock, name+"/rx"),
		}
	}
	n.handlers[name] = h
}

// Unregister removes a host's handler; messages to it are dropped.
func (n *Network) Unregister(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.handlers, name)
}

// Isolate makes a host unreachable in both directions (a partition of
// one). Heal reverses it.
func (n *Network) Isolate(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.isolated[name] = true
}

// Heal reconnects an isolated host.
func (n *Network) Heal(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.isolated, name)
}

// Cut severs the directed pair from->to; CutBoth severs both
// directions. Reconnect restores a pair.
func (n *Network) Cut(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[[2]string{from, to}] = true
}

// CutBoth severs both directions between a and b.
func (n *Network) CutBoth(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[[2]string{a, b}] = true
	n.cut[[2]string{b, a}] = true
}

// Reconnect restores both directions between a and b.
func (n *Network) Reconnect(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, [2]string{a, b})
	delete(n.cut, [2]string{b, a})
}

// SetDropEvery makes the network silently drop one message in every k
// sends (k <= 0 disables). Used by fault-injection tests; the lock
// service's messages must tolerate loss.
func (n *Network) SetDropEvery(k int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropEvery = k
}

func (n *Network) reachableLocked(from, to string) bool {
	if n.isolated[from] || n.isolated[to] {
		return false
	}
	if n.cut[[2]string{from, to}] {
		return false
	}
	return true
}

// Send transmits payload of modelled wire size bytes from one host to
// another; see SendMessage.
func (n *Network) Send(from, to string, payload any, size int) error {
	return n.SendMessage(Message{From: from, To: to, Payload: payload, Size: size})
}

// SendMessage transmits m from m.From to m.To. It blocks the caller
// through the sender's egress resource (backpressure), then delivers
// asynchronously after the receiver's ingress service and both link
// latencies — two waits a message, the second on the pair's delivery
// worker. It returns an error immediately if the destination is unknown
// or unreachable; delivery failures after that point are silent, like a
// real datagram network. A payload that is already boxed travels
// without an allocation.
func (n *Network) SendMessage(m Message) error {
	if m.Size < 0 {
		m.Size = 0
	}
	lf, lt, q, seq, err := n.enqueue(m)
	if err != nil {
		return err
	}
	txCost := Duration(float64(m.Size) / float64(lf.params.Bandwidth) * 1e9)
	rxCost := Duration(float64(m.Size) / float64(lt.params.Bandwidth) * 1e9)
	lf.egress.Use(txCost)
	if q == nil {
		return nil // dropped
	}
	// The last byte has left the sender, so the message joins the
	// receiver's queue now, not at send time: a small message must not
	// queue behind a large one that has not arrived yet. Nothing observes
	// it between here and its delivery, so ingress service and both
	// latencies are one wait, the worker's.
	arrived := lt.ingress.reserve(rxCost)
	n.ready(q, seq, arrived+Time(lf.params.Latency+lt.params.Latency))
	return nil
}

// enqueue admits m: it checks that the pair can be reached, counts the
// message and, unless the message is to be dropped, gives it its place
// in the pair's queue — seq of q; q is nil for a dropped message. lf and
// lt are the sender's and the receiver's links.
func (n *Network) enqueue(m Message) (lf, lt *link, q *pairQ, seq uint64, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	lf, ok := n.links[m.From]
	if !ok {
		return nil, nil, nil, 0, fmt.Errorf("%w: %q", ErrNoSuchHost, m.From)
	}
	lt, ok = n.links[m.To]
	if !ok {
		return nil, nil, nil, 0, fmt.Errorf("%w: %q", ErrNoSuchHost, m.To)
	}
	if !n.reachableLocked(m.From, m.To) {
		return nil, nil, nil, 0, fmt.Errorf("%w: %s -> %s", ErrUnreachable, m.From, m.To)
	}
	n.sent++
	n.bytes += int64(m.Size)
	if n.dropEvery > 0 && n.sent%n.dropEvery == 0 {
		return lf, lt, nil, 0, nil
	}
	// Messages between one (from,to) pair are delivered in send order,
	// like a switched network with per-flow FIFO queues, and the order is
	// taken here: a later Send that leaves the sender first still waits
	// behind this one. Drops are allowed (handlers are idempotent) but
	// reordering between a release and a subsequent request would break
	// the lock protocol's state machine.
	q = n.pairLocked(m.From, m.To)
	return lf, lt, q, q.push(m), nil
}

// ready marks message seq of q as having left its sender, due at the
// receiver at at, and hands the pair to a worker if its head can go now
// and no worker drains it.
func (n *Network) ready(q *pairQ, seq uint64, at Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	d := q.slot(seq)
	d.at, d.ready = at, true
	if !q.busy && q.headReady() {
		q.busy = true
		n.workers.Go(q)
	}
}

// pairLocked returns the queue of the pair from->to, making it on the
// pair's first message.
func (n *Network) pairLocked(from, to string) *pairQ {
	key := [2]string{from, to}
	q := n.pairs[key]
	if q == nil {
		q = &pairQ{net: n, from: from, to: to}
		n.pairs[key] = q
	}
	return q
}

// Run is a delivery worker's turn with q, whose head is ready: it
// delivers q's messages, each at its instant, until q is empty or its
// head is still on the sender's egress; that sender hands the pair to a
// worker again when it is done.
func (q *pairQ) Run() {
	n := q.net
	n.mu.Lock()
	defer n.mu.Unlock()
	for q.headReady() {
		d := q.ring[q.head]
		n.mu.Unlock()
		n.clock.SleepUntil(d.at)
		n.mu.Lock()
		// Re-check reachability at delivery time so a partition that
		// forms while the message is in flight loses it.
		h := n.handlers[q.to]
		ok := h != nil && n.reachableLocked(q.from, q.to)
		if ok {
			n.delivered++
		}
		n.mu.Unlock()
		if ok {
			h(d.msg)
		}
		n.mu.Lock()
		q.pop()
	}
	q.busy = false
}

// stop ends the parked delivery workers; a busy one ends when its pair
// is drained. Messages still in flight are delivered.
func (n *Network) stop() { n.workers.Close() }

// LinkUtilization reports the busy fraction of a host's egress and
// ingress since the last ResetStats.
func (n *Network) LinkUtilization(name string) (tx, rx float64) {
	n.mu.Lock()
	l := n.links[name]
	n.mu.Unlock()
	if l == nil {
		return 0, 0
	}
	tx, _ = l.egress.Utilization()
	rx, _ = l.ingress.Utilization()
	return tx, rx
}

// ResetStats zeroes per-link utilization windows and message counters.
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range n.links {
		l.egress.ResetStats()
		l.ingress.ResetStats()
	}
	n.sent, n.delivered, n.bytes = 0, 0, 0
}

// Stats reports cumulative message counters since the last reset.
func (n *Network) Stats() (sent, delivered, bytes int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent, n.delivered, n.bytes
}
