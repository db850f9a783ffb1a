package sim

import (
	"errors"
	"fmt"
	"sync"
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
// value sent; Size is the modelled wire size in bytes.
type Message struct {
	From    string
	To      string
	Payload any
	Size    int
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
type Network struct {
	clock *Clock

	mu        sync.Mutex
	pairCond  *sync.Cond
	links     map[string]*link
	handlers  map[string]Handler
	isolated  map[string]bool
	cut       map[[2]string]bool
	pairSeq   map[[2]string]uint64 // FIFO sequencing per (from,to)
	pairDone  map[[2]string]uint64
	dropEvery int64 // drop one message in N (0 = never); deterministic
	sent      int64
	delivered int64
	bytes     int64
}

// NewNetwork returns an empty network on the given clock.
func NewNetwork(clock *Clock) *Network {
	n := &Network{
		clock:    clock,
		links:    make(map[string]*link),
		handlers: make(map[string]Handler),
		isolated: make(map[string]bool),
		cut:      make(map[[2]string]bool),
		pairSeq:  make(map[[2]string]uint64),
		pairDone: make(map[[2]string]uint64),
	}
	n.pairCond = sync.NewCond(&n.mu)
	return n
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

// Reachable reports whether a message from->to would currently be
// deliverable.
func (n *Network) Reachable(from, to string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.reachableLocked(from, to)
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
// another. It blocks the caller through the sender's egress resource
// (backpressure), then delivers asynchronously after the receiver's
// ingress service and both link latencies — two waits a message, the
// second on the delivery goroutine. Send returns an error immediately
// if the destination is unknown or unreachable; delivery failures
// after that point are silent, like a real datagram network.
func (n *Network) Send(from, to string, payload any, size int) error {
	if size < 0 {
		size = 0
	}
	n.mu.Lock()
	lf, ok := n.links[from]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoSuchHost, from)
	}
	lt, ok := n.links[to]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoSuchHost, to)
	}
	if !n.reachableLocked(from, to) {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s -> %s", ErrUnreachable, from, to)
	}
	n.sent++
	n.bytes += int64(size)
	drop := n.dropEvery > 0 && n.sent%n.dropEvery == 0
	pair := [2]string{from, to}
	var seq uint64
	if !drop {
		// Messages between one (from,to) pair are delivered in send
		// order, like a switched network with per-flow FIFO queues.
		// Drops are allowed (handlers are idempotent) but reordering
		// between a release and a subsequent request would break the
		// lock protocol's state machine.
		n.pairSeq[pair]++
		seq = n.pairSeq[pair]
	}
	n.mu.Unlock()

	txCost := Duration(float64(size) / float64(lf.params.Bandwidth) * 1e9)
	rxCost := Duration(float64(size) / float64(lt.params.Bandwidth) * 1e9)
	lf.egress.Use(txCost)
	if drop {
		return nil
	}
	go func() {
		// The last byte has left the sender, so the message joins the
		// receiver's queue now, not at send time: a small message must
		// not queue behind a large one that has not arrived yet. Nothing
		// observes it between here and its delivery, so ingress service
		// and both latencies are one wait.
		arrived := lt.ingress.reserve(rxCost)
		n.clock.SleepUntil(arrived + Time(lf.params.Latency+lt.params.Latency))
		n.mu.Lock()
		for n.pairDone[pair] != seq-1 {
			n.pairCond.Wait()
		}
		// Re-check reachability at delivery time so a partition that
		// forms while the message is in flight loses it.
		h := n.handlers[to]
		ok := n.reachableLocked(from, to)
		if ok && h != nil {
			n.delivered++
		}
		n.mu.Unlock()
		if ok && h != nil {
			h(Message{From: from, To: to, Payload: payload, Size: size})
		}
		n.mu.Lock()
		n.pairDone[pair] = seq
		n.pairCond.Broadcast()
		n.mu.Unlock()
	}()
	return nil
}

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
