package paxos

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// cluster is a test harness: n paxos nodes on a simulated network,
// each applying commands into its own ordered slice.
type cluster struct {
	w     *sim.World
	nodes []*Node
	mu    sync.Mutex
	logs  map[string][]Command
}

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	w := sim.NewWorld(200, 11)
	c := &cluster{w: w, logs: make(map[string][]Command)}
	var names []string
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("n%d", i))
	}
	carrier := rpc.SimCarrier{Net: w.Net}
	for _, name := range names {
		w.AddMachine(name+".px", sim.DefaultLinkParams())
		name := name
		node := newNode(name, names, carrier, w.Clock, func(seq int64, cmd Command) {
			c.mu.Lock()
			c.logs[name] = append(c.logs[name], cmd)
			c.mu.Unlock()
		})
		c.nodes = append(c.nodes, node)
	}
	t.Cleanup(func() {
		for _, n := range c.nodes {
			n.Close()
		}
	})
	return c
}

func (c *cluster) log(name string) []Command {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Command, len(c.logs[name]))
	copy(out, c.logs[name])
	return out
}

// waitLogs waits until every live node has applied want commands.
func (c *cluster) waitLogs(t *testing.T, want int, skip map[int]bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		c.mu.Lock()
		for i, n := range c.nodes {
			if skip[i] {
				continue
			}
			if len(c.logs[n.id]) < want {
				ok = false
			}
		}
		c.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d applied commands", want)
}

func TestSingleProposerDecides(t *testing.T) {
	c := newCluster(t, 3)
	if err := c.nodes[0].Submit("cmd-a", 120*time.Second); err != nil {
		t.Fatal(err)
	}
	c.waitLogs(t, 1, nil)
	for _, n := range c.nodes {
		if got := c.log(n.id); len(got) != 1 || got[0] != "cmd-a" {
			t.Fatalf("node %s log = %v", n.id, got)
		}
	}
}

func TestAllNodesAgreeOnOrder(t *testing.T) {
	c := newCluster(t, 5)
	const cmds = 10
	var wg sync.WaitGroup
	for i := 0; i < cmds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			node := c.nodes[i%len(c.nodes)]
			if err := node.Submit(fmt.Sprintf("cmd-%d", i), 300*time.Second); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	c.waitLogs(t, cmds, nil)
	ref := c.log(c.nodes[0].id)
	if len(ref) < cmds {
		t.Fatalf("node 0 applied %d commands, want >= %d", len(ref), cmds)
	}
	for _, n := range c.nodes[1:] {
		got := c.log(n.id)
		if len(got) != len(ref) {
			t.Fatalf("node %s applied %d, node n0 applied %d", n.id, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("order divergence at %d: %v vs %v", i, got[i], ref[i])
			}
		}
	}
	// Every submitted command appears exactly once.
	seen := make(map[Command]int)
	for _, cmd := range ref {
		seen[cmd]++
	}
	for i := 0; i < cmds; i++ {
		if seen[fmt.Sprintf("cmd-%d", i)] != 1 {
			t.Fatalf("cmd-%d applied %d times", i, seen[fmt.Sprintf("cmd-%d", i)])
		}
	}
}

func TestSurvivesMinorityCrash(t *testing.T) {
	c := newCluster(t, 5)
	if err := c.nodes[0].Submit("before", 120*time.Second); err != nil {
		t.Fatal(err)
	}
	c.nodes[3].Crash()
	c.nodes[4].Crash()
	if err := c.nodes[1].Submit("during", 240*time.Second); err != nil {
		t.Fatalf("submit with minority down: %v", err)
	}
	c.waitLogs(t, 2, map[int]bool{3: true, 4: true})
	// Recovered nodes catch up.
	c.nodes[3].Recover()
	c.nodes[4].Recover()
	if err := c.nodes[0].Submit("after", 240*time.Second); err != nil {
		t.Fatal(err)
	}
	c.waitLogs(t, 3, nil)
	got := c.log("n3")
	want := []Command{"before", "during", "after"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n3 log = %v, want %v", got, want)
		}
	}
}

func TestNoQuorumBlocks(t *testing.T) {
	c := newCluster(t, 3)
	c.nodes[1].Crash()
	c.nodes[2].Crash()
	err := c.nodes[0].Submit("lonely", 2*time.Second)
	if !errors.Is(err, ErrNotDecided) {
		t.Fatalf("submit without quorum: err = %v, want ErrNotDecided", err)
	}
	// Quorum restored: progress resumes, and the earlier command may or
	// may not land (it was never decided), but new ones must.
	c.nodes[1].Recover()
	c.nodes[2].Recover()
	if err := c.nodes[0].Submit("revived", 240*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionedMinorityCannotDecide(t *testing.T) {
	c := newCluster(t, 3)
	// Isolate node 0 from both peers (paxos endpoints live on *.px hosts).
	c.w.Net.CutBoth("n0.px", "n1.px")
	c.w.Net.CutBoth("n0.px", "n2.px")
	if err := c.nodes[0].Submit("minority", 2*time.Second); !errors.Is(err, ErrNotDecided) {
		t.Fatalf("minority side decided: err = %v", err)
	}
	// Majority side still works.
	if err := c.nodes[1].Submit("majority", 240*time.Second); err != nil {
		t.Fatal(err)
	}
	// Heal; node 0 must converge to the majority's log.
	c.w.Net.Reconnect("n0.px", "n1.px")
	c.w.Net.Reconnect("n0.px", "n2.px")
	if err := c.nodes[0].Submit("healed", 240*time.Second); err != nil {
		t.Fatal(err)
	}
	c.waitLogs(t, 2, nil)
	got := c.log("n0")
	if got[0] != "majority" {
		t.Fatalf("n0 log starts with %v, want majority-side command first", got[0])
	}
}

func TestDetectorSeesCrash(t *testing.T) {
	w := sim.NewWorld(100, 5)
	carrier := rpc.SimCarrier{Net: w.Net}
	names := []string{"a", "b", "c"}
	var mu sync.Mutex
	events := make(map[string][]bool)
	var dets []*Detector
	for _, n := range names {
		n := n
		d := newDetector(n, names, carrier, w.Clock,
			100*time.Millisecond, 2*time.Second,
			func(peer string, alive bool) {
				mu.Lock()
				events[n+"/"+peer] = append(events[n+"/"+peer], alive)
				mu.Unlock()
			})
		d.Start()
		dets = append(dets, d)
	}
	defer func() {
		for _, d := range dets {
			d.Stop()
		}
	}()
	w.Clock.Sleep(3 * time.Second)
	if !dets[0].Alive("b") || !dets[0].QuorumAlive() {
		t.Fatal("healthy cluster not seen alive")
	}
	// Kill c's heartbeats by isolating its hb endpoint.
	w.Net.Isolate("c.hb")
	waitCond(t, 10*time.Second, func() bool { return !dets[0].Alive("c") })
	if dets[0].AliveCount() != 2 || !dets[0].QuorumAlive() {
		t.Fatalf("alive count = %d, want 2 with quorum", dets[0].AliveCount())
	}
	// c itself sees the others gone and loses quorum.
	waitCond(t, 10*time.Second, func() bool { return !dets[2].QuorumAlive() })
	// Heal: c comes back.
	w.Net.Heal("c.hb")
	waitCond(t, 10*time.Second, func() bool { return dets[0].Alive("c") && dets[2].QuorumAlive() })
	mu.Lock()
	defer mu.Unlock()
	if got := events["a/c"]; len(got) < 2 || got[0] != false || got[len(got)-1] != true {
		t.Fatalf("a's transitions for c = %v, want dead then alive", got)
	}
}

// TestDetectorSilentUntilStart: an owner's callback reads the detector
// back through the field newDetector's result is stored in (Group's
// onLiveness does), so nothing may call it before Start. b
// never beats: once started, the first sweep reports it dead.
func TestDetectorSilentUntilStart(t *testing.T) {
	w := sim.NewWorld(100, 5)
	defer w.Stop()
	var calls atomic.Int64
	var owner struct{ det *Detector }
	owner.det = newDetector("a", []string{"a", "b"}, rpc.SimCarrier{Net: w.Net}, w.Clock,
		100*time.Millisecond, 200*time.Millisecond,
		func(peer string, alive bool) {
			if owner.det.Alive(peer) != alive {
				t.Errorf("callback for %s says alive=%v, the detector the opposite", peer, alive)
			}
			calls.Add(1)
		})
	w.Clock.Sleep(time.Second) // ten heartbeat periods
	if n := calls.Load(); n != 0 {
		t.Fatalf("%d callbacks before Start", n)
	}
	owner.det.Start()
	defer owner.det.Stop()
	waitCond(t, 10*time.Second, func() bool { return calls.Load() > 0 })
}

func waitCond(t *testing.T, d time.Duration, f func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if f() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}
