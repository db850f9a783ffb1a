package paxos

import (
	"sync"

	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// Detector is the fault-tolerant distributed failure-detection
// mechanism described in §6 of the paper: "based on the timely
// exchange of heartbeat messages between sets of servers", using
// "majority consensus to tolerate network partitions". Each member
// broadcasts heartbeats; a peer unheard-from for the suspect interval
// is suspected. QuorumAlive reports whether this member can currently
// hear a majority of the group (itself included), which is the
// condition under which Petal and the lock service are allowed to act.
type Detector struct {
	id       string
	peers    []string
	ep       *rpc.Endpoint
	clock    *sim.Clock
	interval sim.Duration
	suspect  sim.Duration
	onChange func(peer string, alive bool)

	mu        sync.Mutex
	lastHeard map[string]sim.Time
	alive     map[string]bool
	down      bool // crashed or stopped
	cancel    func()
}

// beat is the heartbeat wire message.
type beat struct{ From string }

func init() { rpc.Register(beat{}) }

// newDetector builds a failure detector for id among peers. interval
// is the heartbeat period; a peer is suspected after suspect without
// a beat (the paper's lease machinery uses 30s leases; detectors run
// much faster). onChange is invoked on every liveness transition. The
// detector neither beats nor sweeps, and so calls nothing, until Start:
// an owner whose onChange reads the detector back stores it first.
func newDetector(id string, peers []string, carrier rpc.Carrier, clock *sim.Clock,
	interval, suspect sim.Duration, onChange func(peer string, alive bool)) *Detector {
	d := &Detector{id: id, peers: peers, clock: clock, interval: interval, suspect: suspect, onChange: onChange}
	d.reset()
	d.ep = rpc.NewEndpoint(id+".hb", carrier, clock, d.handle)
	return d
}

// reset believes every peer alive, with a fresh suspect window.
func (d *Detector) reset() {
	now := d.clock.Now()
	d.lastHeard = make(map[string]sim.Time, len(d.peers))
	d.alive = make(map[string]bool, len(d.peers))
	for _, p := range d.peers {
		d.lastHeard[p], d.alive[p] = now, true
	}
}

// Start begins heartbeats and sweeps. Call it once, before Stop.
func (d *Detector) Start() { d.cancel = d.clock.Tick(d.interval, d.tick) }

func (d *Detector) handle(from string, body any) any {
	b, ok := body.(beat)
	d.mu.Lock()
	if !ok || d.down {
		d.mu.Unlock()
		return nil
	}
	d.lastHeard[b.From] = d.clock.Now()
	wasDead := !d.alive[b.From]
	d.alive[b.From] = true
	d.mu.Unlock()
	if wasDead {
		d.onChange(b.From, true)
	}
	return nil
}

// tick broadcasts our heartbeat and sweeps for newly-suspected peers.
func (d *Detector) tick() {
	d.mu.Lock()
	if d.down {
		d.mu.Unlock()
		return
	}
	now := d.clock.Now()
	var died []string
	for _, p := range d.peers {
		if p != d.id && d.alive[p] && sim.Duration(now-d.lastHeard[p]) > d.suspect {
			d.alive[p] = false
			died = append(died, p)
		}
	}
	d.mu.Unlock()
	for _, p := range died {
		d.onChange(p, false)
	}
	for _, p := range d.peers {
		if p != d.id {
			_ = d.ep.Cast(p+".hb", beat{From: d.id})
		}
	}
}

// Alive reports whether peer is currently believed alive.
func (d *Detector) Alive(peer string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.alive[peer]
}

// AliveCount returns how many group members (including self) are
// currently believed alive.
func (d *Detector) AliveCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, p := range d.peers {
		if d.alive[p] {
			n++
		}
	}
	return n
}

// QuorumAlive reports whether a majority of the group is believed
// alive from this member's vantage point.
func (d *Detector) QuorumAlive() bool {
	return d.AliveCount() >= len(d.peers)/2+1
}

// Crash silences the detector (no beats sent or accepted), simulating
// the host being down. Peer liveness views are left to decay normally.
func (d *Detector) Crash() {
	d.mu.Lock()
	d.down = true
	d.mu.Unlock()
}

// Recover resumes a crashed detector, resetting its view so peers are
// given a fresh suspect window.
func (d *Detector) Recover() {
	d.mu.Lock()
	d.down = false
	d.reset()
	d.mu.Unlock()
}

// Stop halts heartbeats and sweeps for good.
func (d *Detector) Stop() {
	d.Crash()
	d.cancel()
	d.ep.Close()
}
