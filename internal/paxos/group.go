package paxos

import (
	"slices"
	"sync"
	"time"

	"frangipani/internal/obs"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// SetAlive records a member's liveness in a group's replicated state.
// The group proposes it; the owner's state applies it as one of its own
// commands (Petal routes around a server that is not alive, the lock
// service reassigns its shards).
type SetAlive struct {
	Server string
	Alive  bool
}

// submitDeadline bounds every proposal a group makes, in simulated time:
// below the clients' own call timeouts, so a server without a quorum
// answers with an error before its caller gives up on it.
const submitDeadline = 60 * time.Second

// Group is one member of a service's control plane, as Petal and the
// lock service each run it (§6): a Paxos replica of the service's global
// state and a heartbeat failure detector over the same fixed members.
// It keeps the rules both services share:
//   - the coordinator is the lowest-named member this one believes alive;
//   - only the coordinator proposes a suspected peer dead, once per death;
//   - a restarted member runs its owner's rejoin hook, then proposes
//     itself alive;
//   - every proposal waits at most submitDeadline.
type Group struct {
	name    string
	members []string // sorted
	node    *Node
	det     *Detector
	apply   Applier
	rejoin  func()
	jr      *obs.Journal

	mu   sync.Mutex
	dead map[string]bool // as decided, or with the death proposed
	down bool            // crashed or closed
	wg   sync.WaitGroup  // the proposals and rejoins in flight
}

// NewGroup starts member name of the group peers on carrier. apply gets
// every decided command, SetAlive included; rejoin, if not nil, runs
// after a Restart, before the member proposes itself alive. Heartbeats
// go every interval, and a peer unheard for suspect is suspected. The
// coordinator's death proposals are journaled in jr.
func NewGroup(name string, peers []string, carrier rpc.Carrier, clock *sim.Clock,
	interval, suspect sim.Duration, jr *obs.Journal, apply Applier, rejoin func()) *Group {
	g := &Group{
		name:    name,
		members: slices.Sorted(slices.Values(peers)),
		apply:   apply,
		rejoin:  rejoin,
		jr:      jr,
		dead:    make(map[string]bool),
	}
	g.node = newNode(name, peers, carrier, clock, g.applyCmd)
	g.det = newDetector(name, peers, carrier, clock, interval, suspect, g.onLiveness)
	g.det.Start() // once g.det is set: onLiveness reads it
	return g
}

// applyCmd notes a decided SetAlive, then hands every command to the
// owner.
func (g *Group) applyCmd(seq int64, cmd Command) {
	if c, ok := cmd.(SetAlive); ok {
		g.mu.Lock()
		g.dead[c.Server] = !c.Alive
		g.mu.Unlock()
	}
	g.apply(seq, cmd)
}

// onLiveness reacts to the detector: the coordinator proposes a peer it
// suspects dead, unless the state has it dead already or the proposal is
// out. A member that comes back proposes itself (Restart).
func (g *Group) onLiveness(peer string, alive bool) {
	if alive || !g.Coordinator() {
		return
	}
	g.mu.Lock()
	if g.down || g.dead[peer] {
		g.mu.Unlock()
		return
	}
	g.dead[peer] = true
	g.wg.Add(1)
	g.mu.Unlock()
	g.jr.Record("paxos", "group", "death", 0, 0, peer)
	go func() {
		defer g.wg.Done()
		if g.Submit(SetAlive{Server: peer}) != nil {
			g.mu.Lock()
			g.dead[peer] = false // the next suspicion proposes again
			g.mu.Unlock()
		}
	}()
}

// Submit proposes cmd and waits, at most submitDeadline, until this
// member has applied it.
func (g *Group) Submit(cmd Command) error { return g.node.Submit(cmd, submitDeadline) }

// Coordinator reports whether this member is the lowest-named one it
// believes alive.
func (g *Group) Coordinator() bool {
	for _, p := range g.members {
		if p == g.name {
			return true
		}
		if g.det.Alive(p) {
			return false
		}
	}
	return true
}

// Down reports whether the member is crashed or closed.
func (g *Group) Down() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.down
}

// Members returns the group's members, sorted by name.
func (g *Group) Members() []string { return g.members }

// Alive reports whether this member believes peer alive.
func (g *Group) Alive(peer string) bool { return g.det.Alive(peer) }

// QuorumAlive reports whether this member hears a majority of the group.
func (g *Group) QuorumAlive() bool { return g.det.QuorumAlive() }

// Crash silences the member: it neither votes nor beats. Its acceptor
// state is kept, as if on disk.
func (g *Group) Crash() {
	g.mu.Lock()
	g.down = true
	g.mu.Unlock()
	g.node.Crash()
	g.det.Crash()
}

// Restart revives a crashed member: it runs the rejoin hook and then
// proposes itself alive.
func (g *Group) Restart() {
	g.mu.Lock()
	g.down = false
	g.wg.Add(1)
	g.mu.Unlock()
	g.node.Recover()
	g.det.Recover()
	go func() {
		defer g.wg.Done()
		if g.rejoin != nil {
			g.rejoin()
		}
		_ = g.Submit(SetAlive{Server: g.name, Alive: true})
	}()
}

// Close shuts the member down for good and waits for the proposals and
// the rejoin it started.
func (g *Group) Close() {
	g.mu.Lock()
	g.down = true
	g.mu.Unlock()
	g.det.Stop()
	g.node.Close()
	g.wg.Wait()
}
