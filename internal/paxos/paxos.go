// Package paxos implements Lamport's Paxos algorithm as a
// multi-instance replicated log driving a state machine. The paper
// uses Paxos (via an implementation "originally written for Petal") to
// consistently replicate the small, rarely-changing global state of
// both Petal and the lock service: server membership, lock-group
// assignment, and the set of open lock tables. This package plays the
// same role here.
//
// Each log instance decides one command by classic single-decree
// Paxos (prepare/promise, accept/accepted, decide). Decided commands
// are applied to the caller's state machine strictly in instance
// order on every node. Submit retries until the caller's own command
// has been applied, so callers get linearizable command submission.
//
// The acceptor group is fixed at cluster creation; members may crash
// and recover (with their acceptor state intact, as if persisted) but
// the group itself does not grow. Higher layers reassign work across
// a changing set of *their* servers by deciding commands through this
// fixed group, which is how the paper's lock service reassigns lock
// groups.
//
// Petal and the lock service each run their global state on a Group, a
// replica and a failure detector as one member with one set of
// membership rules, and their clients keep a copy of it through a
// Follower.
package paxos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// Command is an application command carried in the replicated log.
// Commands must be plain values (no shared pointers) because they are
// delivered to every node.
type Command any

// Applier is called with each decided command, in strict instance
// order, exactly once per node. It runs on the node's apply goroutine
// and must not call back into the Node.
type Applier func(seq int64, cmd Command)

// ErrNotDecided is returned by Submit when the command could not be
// driven to a decision before the deadline (e.g. no quorum reachable).
var ErrNotDecided = errors.New("paxos: command not decided (no quorum?)")

// entry wraps a command with a cluster-unique id so Submit can detect
// that its own command (not a competitor's) was applied.
type entry struct {
	ID   string
	Cmd  Command
	Noop bool
}

// Message types. Exported fields only; these cross the transport.
type (
	// PrepareReq is phase-1a.
	PrepareReq struct {
		Seq    int64
		Ballot int64
	}
	// PrepareResp is phase-1b.
	PrepareResp struct {
		OK       bool
		Promised int64 // highest ballot promised (on reject)
		Accepted int64 // ballot of accepted value, 0 if none
		Value    entry
		Decided  bool
		DecidedV entry
	}
	// AcceptReq is phase-2a.
	AcceptReq struct {
		Seq    int64
		Ballot int64
		Value  entry
	}
	// AcceptResp is phase-2b.
	AcceptResp struct {
		OK       bool
		Promised int64
	}
	// DecideMsg announces a chosen value.
	DecideMsg struct {
		Seq   int64
		Value entry
	}
	// LearnReq asks a peer for a decided instance (gap fill).
	LearnReq struct{ Seq int64 }
	// LearnResp answers a LearnReq.
	LearnResp struct {
		Known bool
		Value entry
	}
)

type instance struct {
	promised int64 // highest ballot promised (np)
	accepted int64 // ballot of accepted value (na)
	value    entry // accepted value (va)
	decided  bool
	chosen   entry
}

// Node is one Paxos replica.
type Node struct {
	id    string
	peers []string // includes self
	ep    *rpc.Endpoint
	clock *sim.Clock
	apply Applier

	mu        sync.Mutex
	cond      *sync.Cond
	instances map[int64]*instance
	applied   int64 // next instance to apply
	appliedID map[string]bool
	maxSeen   int64 // highest instance seen anywhere
	ballotGen int64
	idx       int // our index in peers, for unique ballots
	crashed   bool
	closed    bool
}

// Wire-type registration so paxos runs over TCP carriers.
func init() {
	rpc.Register(
		PrepareReq{}, PrepareResp{}, AcceptReq{}, AcceptResp{},
		DecideMsg{}, LearnReq{}, LearnResp{}, entry{},
		SetAlive{}, StateReq{}, StateResp{},
	)
}

// callTimeout bounds each phase RPC, in simulated time.
const callTimeout = 1 * time.Second

// newNode creates a replica named id among peers (which must include
// id) on the given carrier. apply receives decided commands in order.
func newNode(id string, peers []string, carrier rpc.Carrier, clock *sim.Clock, apply Applier) *Node {
	n := &Node{
		id:        id,
		peers:     peers,
		clock:     clock,
		apply:     apply,
		instances: make(map[int64]*instance),
		appliedID: make(map[string]bool),
	}
	n.cond = sync.NewCond(&n.mu)
	for i, p := range peers {
		if p == id {
			n.idx = i
		}
	}
	n.ep = rpc.NewEndpoint(id+".px", carrier, clock, n.handle)
	go n.applyLoop()
	return n
}

// Quorum returns the majority size of the group.
func (n *Node) Quorum() int { return len(n.peers)/2 + 1 }

// Crash makes the node stop responding to and sending messages,
// simulating a process crash. Its acceptor state is retained, as if
// durably stored, so Recover models a restart.
func (n *Node) Crash() {
	n.mu.Lock()
	n.crashed = true
	n.mu.Unlock()
}

// Recover brings a crashed node back.
func (n *Node) Recover() {
	n.mu.Lock()
	n.crashed = false
	n.mu.Unlock()
}

// Close shuts the node down permanently.
func (n *Node) Close() {
	n.mu.Lock()
	n.closed = true
	n.crashed = true
	n.mu.Unlock()
	n.cond.Broadcast()
	n.ep.Close()
}

func (n *Node) down() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed
}

func (n *Node) inst(seq int64) *instance {
	in := n.instances[seq]
	if in == nil {
		in = &instance{}
		n.instances[seq] = in
	}
	if seq > n.maxSeen {
		n.maxSeen = seq
	}
	return in
}

// handle serves all incoming paxos messages.
func (n *Node) handle(from string, body any) any {
	if n.down() {
		return nil
	}
	switch m := body.(type) {
	case PrepareReq:
		return n.onPrepare(m)
	case AcceptReq:
		return n.onAccept(m)
	case DecideMsg:
		n.onDecide(m.Seq, m.Value)
		return nil
	case LearnReq:
		n.mu.Lock()
		defer n.mu.Unlock()
		if in, ok := n.instances[m.Seq]; ok && in.decided {
			return LearnResp{Known: true, Value: in.chosen}
		}
		return LearnResp{Known: false}
	}
	return nil
}

func (n *Node) onPrepare(m PrepareReq) PrepareResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	in := n.inst(m.Seq)
	if in.decided {
		return PrepareResp{OK: false, Decided: true, DecidedV: in.chosen}
	}
	if m.Ballot > in.promised {
		in.promised = m.Ballot
		return PrepareResp{OK: true, Accepted: in.accepted, Value: in.value}
	}
	return PrepareResp{OK: false, Promised: in.promised}
}

func (n *Node) onAccept(m AcceptReq) AcceptResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	in := n.inst(m.Seq)
	if m.Ballot >= in.promised {
		in.promised = m.Ballot
		in.accepted = m.Ballot
		in.value = m.Value
		return AcceptResp{OK: true}
	}
	return AcceptResp{OK: false, Promised: in.promised}
}

func (n *Node) onDecide(seq int64, v entry) {
	n.mu.Lock()
	in := n.inst(seq)
	if !in.decided {
		in.decided = true
		in.chosen = v
		n.cond.Broadcast()
	}
	n.mu.Unlock()
}

// applyLoop delivers decided commands in order. On a gap that stays
// open, it asks peers, then drives a no-op proposal to flush out any
// chosen-but-unlearned value. An instance counts as applied, for
// Submit, once the applier has returned.
func (n *Node) applyLoop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		for !n.closed {
			in, ok := n.instances[n.applied]
			if ok && in.decided {
				break
			}
			if n.maxSeen > n.applied {
				// Gap: a later instance is known; fill this one.
				seq := n.applied
				n.mu.Unlock()
				n.fillGap(seq)
				n.mu.Lock()
				continue
			}
			n.cond.Wait()
		}
		if n.closed {
			return
		}
		seq, v := n.applied, n.instances[n.applied].chosen
		// A command retried by its submitter can be chosen in more than
		// one instance; apply only its first occurrence. The check is
		// deterministic across nodes because the log is identical.
		dup := n.appliedID[v.ID]
		n.mu.Unlock()
		if !dup && !v.Noop && n.apply != nil {
			n.apply(seq, v.Cmd)
		}
		n.mu.Lock()
		n.applied++
		n.appliedID[v.ID] = true
		n.cond.Broadcast()
	}
}

// fillGap learns or decides instance seq.
func (n *Node) fillGap(seq int64) {
	for _, p := range n.peers {
		if p == n.id {
			continue
		}
		resp, err := n.ep.Call(p+".px", LearnReq{Seq: seq}, callTimeout)
		if err != nil {
			continue
		}
		if lr, ok := resp.(LearnResp); ok && lr.Known {
			n.onDecide(seq, lr.Value)
			return
		}
	}
	// Nobody has it decided: drive a no-op through.
	n.proposeAt(seq, entry{ID: fmt.Sprintf("%s-noop-%d", n.id, seq), Noop: true})
	n.mu.Lock()
	stillOpen := !n.instances[seq].decided
	n.mu.Unlock()
	if stillOpen {
		// No quorum right now; back off before the apply loop retries.
		n.clock.Sleep(50 * time.Millisecond)
	}
}

// Submit proposes cmd and blocks until it has been applied on this
// node, the deadline (simulated) passes or the node is crashed or
// closed: a crashed process proposes nothing.
func (n *Node) Submit(cmd Command, deadline time.Duration) error {
	n.mu.Lock()
	n.ballotGen++
	e := entry{ID: fmt.Sprintf("%s-%d", n.id, n.ballotGen), Cmd: cmd}
	n.mu.Unlock()
	end := n.clock.Now() + sim.Time(deadline)
	for attempt := 0; ; attempt++ {
		n.mu.Lock()
		applied, down, seq := n.appliedID[e.ID], n.crashed, n.applied
		// Target the first instance we do not know to be decided.
		for in := n.instances[seq]; in != nil && in.decided; in = n.instances[seq] {
			seq++
		}
		n.mu.Unlock()
		switch {
		case applied:
			return nil
		case down || n.clock.Now() >= end:
			return ErrNotDecided
		}
		n.proposeAt(seq, e)
		// Every instance below seq was decided when seq was picked, so
		// once seq is decided, whatever it holds, the apply loop reaches
		// it without the network: wait for that and look again.
		n.mu.Lock()
		in := n.instances[seq]
		decided := in != nil && in.decided
		for decided && n.applied <= seq && !n.closed {
			n.cond.Wait()
		}
		n.mu.Unlock()
		if !decided {
			// Randomized exponential backoff so duelling proposers
			// desynchronize; the global-state command rate is tiny, so
			// latency here is uncritical.
			max := 20 << min(attempt, 5)
			n.clock.Sleep(time.Duration(5+rand.Intn(max)) * time.Millisecond)
		}
	}
}

// proposeAt runs one round of single-decree Paxos for instance seq
// with value e. It returns once a value (possibly a competitor's) is
// known decided at seq, or the round fails.
func (n *Node) proposeAt(seq int64, e entry) {
	if n.down() {
		return
	}
	n.mu.Lock()
	in := n.inst(seq)
	if in.decided {
		n.mu.Unlock()
		return
	}
	n.ballotGen++
	ballot := n.ballotGen*int64(len(n.peers)+1) + int64(n.idx) + 1
	if in.promised >= ballot {
		n.ballotGen = in.promised/int64(len(n.peers)+1) + 1
		ballot = n.ballotGen*int64(len(n.peers)+1) + int64(n.idx) + 1
	}
	n.mu.Unlock()

	// Phase 1: prepare, in parallel to all acceptors.
	promises := 0
	var best entry
	bestBallot := int64(0)
	hasBest := false
	for resp := range n.broadcast(PrepareReq{Seq: seq, Ballot: ballot}) {
		pr, ok := resp.(PrepareResp)
		if !ok {
			continue
		}
		if pr.Decided {
			n.broadcastDecide(seq, pr.DecidedV)
			return
		}
		if !pr.OK {
			n.bumpBallot(pr.Promised)
			continue
		}
		promises++
		if pr.Accepted > bestBallot {
			bestBallot = pr.Accepted
			best = pr.Value
			hasBest = true
		}
	}
	if promises < n.Quorum() {
		return
	}
	v := e
	if hasBest {
		v = best
	}

	// Phase 2: accept, in parallel.
	accepts := 0
	for resp := range n.broadcast(AcceptReq{Seq: seq, Ballot: ballot, Value: v}) {
		ar, ok := resp.(AcceptResp)
		if !ok {
			continue
		}
		if ar.OK {
			accepts++
		} else {
			n.bumpBallot(ar.Promised)
		}
	}
	if accepts < n.Quorum() {
		return
	}
	n.broadcastDecide(seq, v)
}

// broadcast sends req to every peer concurrently and returns a channel
// yielding each response (nil responses from dead peers included) that
// closes once all peers have answered or timed out.
func (n *Node) broadcast(req any) <-chan any {
	out := make(chan any, len(n.peers))
	var wg sync.WaitGroup
	for _, p := range n.peers {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			out <- n.rpcTo(p, req)
		}(p)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

func (n *Node) bumpBallot(promised int64) {
	n.mu.Lock()
	if g := promised / int64(len(n.peers)+1); g >= n.ballotGen {
		n.ballotGen = g + 1
	}
	n.mu.Unlock()
}

// rpcTo sends a phase message; loopback is served directly to avoid a
// network round trip to ourselves.
func (n *Node) rpcTo(peer string, req any) any {
	if peer == n.id {
		return n.handle(n.id, req)
	}
	resp, err := n.ep.Call(peer+".px", req, callTimeout)
	if err != nil {
		return nil
	}
	return resp
}

func (n *Node) broadcastDecide(seq int64, v entry) {
	n.onDecide(seq, v)
	for _, p := range n.peers {
		if p == n.id {
			continue
		}
		_ = n.ep.Cast(p+".px", DecideMsg{Seq: seq, Value: v})
	}
}
