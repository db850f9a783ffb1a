package paxos

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"frangipani/internal/obs"
	"frangipani/internal/rpc"
)

// StateReq asks a server of a group for the global state; HaveVersion
// is the version the client holds.
type StateReq struct{ HaveVersion int64 }

// StateResp carries the server's state, or Unchanged when it is no
// newer than the client's; Version is the server's either way.
type StateResp struct {
	Unchanged bool
	Version   int64
	State     any
}

// Answer is the reply of a server whose state is of version ver: Unchanged,
// or the copy clone makes.
func (r StateReq) Answer(ver int64, clone func() any) StateResp {
	if ver <= r.HaveVersion {
		return StateResp{Unchanged: true, Version: ver}
	}
	return StateResp{Version: ver, State: clone()}
}

// stateTimeout bounds one state request, in simulated time.
const stateTimeout = 5 * time.Second

var errNoAnswer = errors.New("paxos: no server answered for the state")

// Follower keeps a client's copy of a group's global state: the Petal
// client's directory, the lock clerk's shard map. A refresh is one
// StateReq to one server, a server further on each time and the next
// one only if it does not answer; concurrent refreshes share it, and a
// refresh for a version the copy has passed sends none. The follower
// calls no code of its owner.
type Follower[S any] struct {
	ep    *rpc.Endpoint
	addrs []string
	next  atomic.Uint64 // where the next probe starts

	rpcs, skipped, unchanged *obs.Counter

	mu  sync.Mutex
	st  S
	ver int64 // of st; -1 while there is none

	probing sync.Mutex    // held by the probe in flight
	probes  atomic.Uint64 // probes ended
}

// NewFollower follows the servers, at addr(server), from ep. Its counters
// are <prefix>.{rpcs,skipped,unchanged}#<machine> in reg.
func NewFollower[S any](ep *rpc.Endpoint, servers []string, addr func(string) string,
	reg *obs.Registry, prefix, machine string) *Follower[S] {
	f := &Follower[S]{ep: ep, ver: -1}
	for _, s := range servers {
		f.addrs = append(f.addrs, addr(s))
	}
	f.rpcs = reg.Counter(prefix + ".rpcs#" + machine)
	f.skipped = reg.Counter(prefix + ".skipped#" + machine)
	f.unchanged = reg.Counter(prefix + ".unchanged#" + machine)
	return f
}

// View returns the copy and its version; -1 if there is none yet.
func (f *Follower[S]) View() (S, int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st, f.ver
}

// Adopt takes st, of version ver, unless the copy is as new.
func (f *Follower[S]) Adopt(st S, ver int64) {
	f.mu.Lock()
	if ver > f.ver {
		f.st, f.ver = st, ver
	}
	f.mu.Unlock()
}

// Replace takes st, of version ver, whatever the copy: a fault
// injection's stale view.
func (f *Follower[S]) Replace(st S, ver int64) {
	f.mu.Lock()
	f.st, f.ver = st, ver
	f.mu.Unlock()
}

// Refresh brings the copy past version used, the one its caller acted
// on, if a server has a newer one: a copy past used already sends
// nothing, and a probe in flight is waited for instead of sending another.
func (f *Follower[S]) Refresh(used int64) error {
	probes := f.probes.Load()
	if _, ver := f.View(); ver > used {
		f.skipped.Inc()
		return nil
	}
	f.probing.Lock()
	defer f.probing.Unlock()
	_, have := f.View()
	if have > used || have >= 0 && f.probes.Load() != probes {
		f.skipped.Inc() // a probe that ended meanwhile serves this refresh
		return nil
	}
	defer f.probes.Add(1)
	err := errNoAnswer
	for i, start := uint64(0), f.next.Add(1)-1; i < uint64(len(f.addrs)); i++ {
		var sr StateResp
		if sr, err = f.Ask(f.addrs[(start+i)%uint64(len(f.addrs))], have); err != nil {
			continue
		}
		if st, ok := sr.State.(S); ok {
			f.Adopt(st, sr.Version)
		} else if sr.Unchanged {
			f.unchanged.Inc()
		}
		break
	}
	return err
}

// Ask sends the server at addr one StateReq, saying the client holds
// version have.
func (f *Follower[S]) Ask(addr string, have int64) (StateResp, error) {
	f.rpcs.Inc()
	resp, err := f.ep.Call(addr, StateReq{HaveVersion: have}, stateTimeout)
	sr, ok := resp.(StateResp)
	if err == nil && !ok {
		err = errNoAnswer
	}
	return sr, err
}
