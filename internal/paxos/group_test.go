package paxos

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// groupRig is three members a, b and c of one group on a sim world. Each
// member applies what is decided into its own log; a member restarted
// with the rig's hook blocks in it until the test lets it go.
type groupRig struct {
	w      *sim.World
	names  []string
	groups map[string]*Group

	mu       sync.Mutex
	logs     map[string][]SetAlive // per member, the SetAlives it applied
	hookDone map[string]bool       // per member, its rejoin hook returned
	early    []string              // members applied alive before their hook returned
	release  map[string]chan struct{}
}

func newGroupRig(t *testing.T) *groupRig {
	t.Helper()
	r := &groupRig{
		w:        sim.NewWorld(10, 7),
		names:    []string{"a", "b", "c"},
		groups:   make(map[string]*Group),
		logs:     make(map[string][]SetAlive),
		hookDone: make(map[string]bool),
		release:  make(map[string]chan struct{}),
	}
	carrier := rpc.SimCarrier{Net: r.w.Net}
	for _, name := range r.names {
		r.release[name] = make(chan struct{})
		apply := func(seq int64, cmd Command) {
			c, ok := cmd.(SetAlive)
			if !ok {
				return
			}
			r.mu.Lock()
			r.logs[name] = append(r.logs[name], c)
			if c.Alive && c.Server == name && !r.hookDone[name] {
				r.early = append(r.early, name)
			}
			r.mu.Unlock()
		}
		rejoin := func() {
			<-r.release[name]
			r.mu.Lock()
			r.hookDone[name] = true
			r.mu.Unlock()
		}
		r.groups[name] = NewGroup(name, r.names, carrier, r.w.Clock,
			200*time.Millisecond, 3*time.Second, r.w.Obs.Journal(name), apply, rejoin)
	}
	t.Cleanup(func() {
		for _, name := range r.names {
			select {
			case <-r.release[name]:
			default:
				close(r.release[name])
			}
			r.groups[name].Close()
		}
		r.w.Stop()
	})
	return r
}

// applied counts the SetAlive{peer, alive} that member applied.
func (r *groupRig) applied(member, peer string, alive bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.logs[member] {
		if c == (SetAlive{Server: peer, Alive: alive}) {
			n++
		}
	}
	return n
}

// deaths counts the death proposals of peer that member journaled.
func (r *groupRig) deaths(member, peer string) int {
	n := 0
	for _, e := range r.w.Obs.Journal(member).Events() {
		if e.Layer == "paxos" && e.Kind == "death" && e.Detail == peer {
			n++
		}
	}
	return n
}

// settle waits until every one of members has applied SetAlive{peer,
// alive}, then lets a few suspect windows pass, for a second proposal to
// be decided if one was made.
func (r *groupRig) settle(t *testing.T, peer string, alive bool, members ...string) {
	t.Helper()
	waitCond(t, 20*time.Second, func() bool {
		for _, m := range members {
			if r.applied(m, peer, alive) == 0 {
				return false
			}
		}
		return true
	})
	r.w.Clock.Sleep(10 * time.Second)
}

// TestGroupCoordinatorDecidesDeathOnce: c crashes; a, the lowest-named
// member, proposes its death, b does not, and the death is decided once
// — also after a restarts and, hearing nobody yet, suspects c afresh.
func TestGroupCoordinatorDecidesDeathOnce(t *testing.T) {
	r := newGroupRig(t)
	r.groups["c"].Crash()
	r.settle(t, "c", false, "a", "b")
	check := func(when string) {
		t.Helper()
		for _, m := range []string{"a", "b"} {
			if n := r.applied(m, "c", false); n != 1 {
				t.Errorf("%s: %s applied c's death %d times, want once", when, m, n)
			}
		}
		if a, b := r.deaths("a", "c"), r.deaths("b", "c"); a != 1 || b != 0 {
			t.Errorf("%s: c's death proposed %d times by a and %d by b, want once by a alone", when, a, b)
		}
	}
	check("c crashed")
	r.groups["a"].Crash()
	close(r.release["a"])
	r.groups["a"].Restart()
	r.settle(t, "a", true, "a", "b")
	check("a restarted")
}

// TestGroupNextMemberTakesOver: the coordinator a crashes; b, the next
// name, proposes its death, and c does not.
func TestGroupNextMemberTakesOver(t *testing.T) {
	r := newGroupRig(t)
	r.groups["a"].Crash()
	r.settle(t, "a", false, "b", "c")
	for _, m := range []string{"b", "c"} {
		if n := r.applied(m, "a", false); n != 1 {
			t.Errorf("%s applied a's death %d times, want once", m, n)
		}
	}
	if b, c := r.deaths("b", "a"), r.deaths("c", "a"); b != 1 || c != 0 {
		t.Errorf("a's death proposed %d times by b and %d by c, want once by b alone", b, c)
	}
}

// TestGroupRejoinHookBeforeAlive: a restarted member is proposed alive
// only once its rejoin hook has returned.
func TestGroupRejoinHookBeforeAlive(t *testing.T) {
	r := newGroupRig(t)
	r.groups["c"].Crash()
	r.settle(t, "c", false, "a", "b")
	r.groups["c"].Restart()
	r.w.Clock.Sleep(10 * time.Second) // the hook holds: c stays dead
	for _, m := range r.names {
		if n := r.applied(m, "c", true); n != 0 {
			t.Fatalf("%s applied c alive while c's rejoin hook still ran", m)
		}
	}
	close(r.release["c"])
	waitCond(t, 20*time.Second, func() bool {
		for _, m := range r.names {
			if r.applied(m, "c", true) == 0 {
				return false
			}
		}
		return true
	})
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.early) != 0 {
		t.Fatalf("applied alive before the rejoin hook returned: %v", r.early)
	}
}

// TestGroupCloseEndsItsGoroutines: b and c crash, so a's proposals of
// their deaths find no quorum and would retry until their deadline;
// Close ends them, and every other goroutine the members started, at
// once.
func TestGroupCloseEndsItsGoroutines(t *testing.T) {
	r := newGroupRig(t)
	r.groups["b"].Crash()
	r.groups["c"].Crash()
	waitCond(t, 20*time.Second, func() bool { return r.deaths("a", "b")+r.deaths("a", "c") > 0 })
	// The proposals' deadline is a minute of simulated time, six seconds
	// here: Close and the goroutines' end must come well before it.
	deadline := time.Now().Add(2 * time.Second)
	for _, name := range r.names {
		r.groups[name].Close()
	}
	for {
		left := paxosGoroutines()
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines of the group left after Close:\n%s", len(left), strings.Join(left, "\n\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// paxosGoroutines returns the stacks of the goroutines, other than the
// caller's, that run code of this package's types.
func paxosGoroutines() []string {
	buf := make([]byte, 1<<20)
	stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
	var out []string
	for _, s := range stacks[1:] {
		if strings.Contains(s, "paxos.(*") {
			out = append(out, s)
		}
	}
	return out
}
