package lockservice

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frangipani/internal/obs"
	"frangipani/internal/paxos"
	"frangipani/internal/sim"
)

type testLS struct {
	w       *sim.World
	servers []*Server
	names   []string
	cfg     Config
}

func newTestLS(t *testing.T, nServers int) *testLS {
	t.Helper()
	return newTestLSConfig(t, nServers, DefaultConfig(), 300)
}

func newTestLSConfig(t *testing.T, nServers int, cfg Config, compression float64) *testLS {
	t.Helper()
	w := sim.NewWorld(compression, 17)
	ls := &testLS{w: w, cfg: cfg}
	for i := 0; i < nServers; i++ {
		ls.names = append(ls.names, fmt.Sprintf("ls%d", i))
	}
	for _, n := range ls.names {
		ls.servers = append(ls.servers, NewServer(w, n, ls.names, cfg))
	}
	t.Cleanup(func() {
		for _, s := range ls.servers {
			s.Close()
		}
		w.Stop()
	})
	return ls
}

func (ls *testLS) clerk(t *testing.T, machine string) *Clerk {
	t.Helper()
	c := NewClerk(ls.w, machine, "fs", ls.names, ls.cfg)
	c.SetCallbacks(func(lock uint64, to Mode) {}, nil, nil)
	if err := c.Open(); err != nil {
		t.Fatalf("open clerk %s: %v", machine, err)
	}
	t.Cleanup(c.Close)
	return c
}

func waitUntil(t *testing.T, f func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if f() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}

// TestHotLockRanking: two clerks take one lock in turn beside a lock
// one of them takes once. The registry's ranking, read from the clerks'
// records in the rings, puts the shared lock first, with the acquires,
// wait and revokes the clerks recorded for it — and, since every Lock
// here had to wait, the wait the clerks' acquire histograms hold.
func TestHotLockRanking(t *testing.T) {
	ls := newTestLS(t, 3)
	c1, c2 := ls.clerk(t, "ws1"), ls.clerk(t, "ws2")
	const hot, quiet, rounds = 7, 8, 5
	for i := 0; i < rounds; i++ {
		for _, c := range []*Clerk{c1, c2} {
			if err := c.Lock(hot, Exclusive); err != nil {
				t.Fatal(err)
			}
			c.Unlock(hot)
		}
	}
	if err := c1.Lock(quiet, Exclusive); err != nil {
		t.Fatal(err)
	}
	c1.Unlock(quiet)

	var want obs.ResourceStat
	for _, m := range []string{"ws1", "ws2"} {
		for _, e := range ls.w.Obs.Journal(m).Events() {
			switch {
			case e.Key != hot || e.Layer != "lockservice":
			case e.Op == "acquire" && e.Kind == "ok":
				want.Acquires++
				want.WaitNs += e.Arg
			case e.Op == "revoke" && e.Kind == "recv":
				want.Events++
			}
		}
	}
	top := ls.w.Obs.HotLocks(10)
	if len(top) != 2 || top[0].ID != hot || top[1].ID != quiet {
		t.Fatalf("ranking %+v, want lock %d then lock %d", top, hot, quiet)
	}
	got := top[0]
	got.ID, got.Name = 0, ""
	if got != want || want.Acquires != 2*rounds || want.Events < 2*rounds-1 {
		t.Fatalf("hot lock ranked as %+v; the clerks recorded %+v over %d handoffs", got, want, 2*rounds)
	}
	var histWait int64
	for _, m := range []string{"ws1", "ws2"} {
		histWait += ls.w.Obs.Histogram("lockservice.acquire.latency#" + m).Sum()
	}
	if sum := top[0].WaitNs + top[1].WaitNs; sum != histWait {
		t.Fatalf("ranked wait %d ns, the acquire histograms hold %d ns", sum, histWait)
	}
}

func TestLockAcquireRelease(t *testing.T) {
	ls := newTestLS(t, 3)
	c := ls.clerk(t, "ws0")
	if err := c.Lock(7, Exclusive); err != nil {
		t.Fatal(err)
	}
	if got := c.Held(7); got != Exclusive {
		t.Fatalf("held = %v, want exclusive", got)
	}
	c.Unlock(7)
	// Sticky: still held after unlock, and TryLock succeeds locally.
	if got := c.Held(7); got != Exclusive {
		t.Fatalf("after unlock held = %v, want exclusive (sticky)", got)
	}
	if !c.TryLock(7, Exclusive) {
		t.Fatal("TryLock on sticky grant failed")
	}
	c.Unlock(7)
}

func TestExclusiveLockMutualExclusion(t *testing.T) {
	ls := newTestLS(t, 3)
	c1 := ls.clerk(t, "ws1")
	c2 := ls.clerk(t, "ws2")
	var inside int32
	var violations int32
	var wg sync.WaitGroup
	for _, c := range []*Clerk{c1, c2} {
		wg.Add(1)
		go func(c *Clerk) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := c.Lock(42, Exclusive); err != nil {
					t.Errorf("lock: %v", err)
					return
				}
				if atomic.AddInt32(&inside, 1) != 1 {
					atomic.AddInt32(&violations, 1)
				}
				ls.w.Clock.Sleep(50 * time.Millisecond)
				atomic.AddInt32(&inside, -1)
				c.Unlock(42)
			}
		}(c)
	}
	wg.Wait()
	if violations != 0 {
		t.Fatalf("%d mutual-exclusion violations", violations)
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	ls := newTestLS(t, 3)
	c1 := ls.clerk(t, "ws1")
	c2 := ls.clerk(t, "ws2")
	if err := c1.Lock(9, Shared); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c2.Lock(9, Shared) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second shared lock blocked")
	}
	c1.Unlock(9)
	c2.Unlock(9)
}

func TestRevokeDowngradesWriter(t *testing.T) {
	ls := newTestLS(t, 3)
	var mu sync.Mutex
	var revoked []Mode
	c1 := NewClerk(ls.w, "ws1", "fs", ls.names, ls.cfg)
	c1.SetCallbacks(func(lock uint64, to Mode) {
		mu.Lock()
		revoked = append(revoked, to)
		mu.Unlock()
	}, nil, nil)
	if err := c1.Open(); err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2 := ls.clerk(t, "ws2")

	// Writer holds exclusive (sticky after unlock).
	if err := c1.Lock(5, Exclusive); err != nil {
		t.Fatal(err)
	}
	c1.Unlock(5)

	// A reader request must downgrade the writer to shared, not
	// release it entirely.
	if err := c2.Lock(5, Shared); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := append([]Mode(nil), revoked...)
	mu.Unlock()
	if len(got) != 1 || got[0] != Shared {
		t.Fatalf("revoke callbacks = %v, want [shared]", got)
	}
	if c1.Held(5) != Shared {
		t.Fatalf("writer holds %v after downgrade, want shared", c1.Held(5))
	}

	// Now the reader wants exclusive: both sharers conflict; writer
	// must be fully released.
	c2.Unlock(5)
	if err := c2.Lock(5, Exclusive); err != nil {
		t.Fatal(err)
	}
	if c1.Held(5) != None {
		t.Fatalf("writer holds %v after exclusive grant elsewhere", c1.Held(5))
	}
	c2.Unlock(5)
}

// TestFirstRevokeNotRateLimited: a conflict in the first RevokeRetry of
// a world's life is revoked by the request that creates it. (A zero
// "last revoke" time used to read as "revoked at t=0", so the holder
// heard nothing until the retry tick.)
func TestFirstRevokeNotRateLimited(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RevokeRetry = 10 * time.Minute // 2 s of wall time: a tick cannot be mistaken for the request
	ls := newTestLSConfig(t, 3, cfg, 300)
	c1 := ls.clerk(t, "ws1")
	c2 := ls.clerk(t, "ws2")
	if err := c1.Lock(5, Exclusive); err != nil {
		t.Fatal(err)
	}
	c1.Unlock(5)
	if err := c2.Lock(5, Exclusive); err != nil {
		t.Fatal(err)
	}
	c2.Unlock(5)
	if now := sim.Duration(ls.w.Clock.Now()); now >= cfg.RevokeRetry {
		t.Fatalf("conflicting lock granted at t=%v, after the first revoke retry tick (%v)", now, cfg.RevokeRetry)
	}
	if c1.Held(5) != None {
		t.Fatalf("first holder still has %v", c1.Held(5))
	}
}

func TestRevokeWaitsForActiveUser(t *testing.T) {
	ls := newTestLS(t, 3)
	c1 := ls.clerk(t, "ws1")
	c2 := ls.clerk(t, "ws2")
	if err := c1.Lock(3, Exclusive); err != nil {
		t.Fatal(err)
	}
	// c1 is inside the critical section; c2's acquire must not
	// complete until c1 unlocks.
	acquired := make(chan struct{})
	go func() {
		if err := c2.Lock(3, Exclusive); err == nil {
			close(acquired)
		}
	}()
	select {
	case <-acquired:
		t.Fatal("lock granted while another clerk was inside")
	case <-time.After(300 * time.Millisecond):
	}
	c1.Unlock(3)
	select {
	case <-acquired:
	case <-time.After(20 * time.Second):
		t.Fatal("lock never granted after release")
	}
	c2.Unlock(3)
}

// TestGrantUsedBeforeRevoke: a revoke that arrives right behind the
// grant, before the caller the grant woke has run, waits for that
// caller's use. (It used to find the lock idle and give it back; two
// clerks that both wanted a lock then passed it back and forth unused,
// and on shared_contention one handoff read in ten waited a second
// turn.)
func TestGrantUsedBeforeRevoke(t *testing.T) {
	ls := newTestLS(t, 3)
	flushed := make(chan Mode, 1)
	c1 := NewClerk(ls.w, "ws1", "fs", ls.names, ls.cfg)
	c1.SetCallbacks(func(lock uint64, to Mode) { flushed <- to }, nil, nil)
	if err := c1.Open(); err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2 := ls.clerk(t, "ws2")

	// c2 stays inside the lock, so the service grants c1 nothing and
	// the test plays the server towards c1.
	if err := c2.Lock(5, Exclusive); err != nil {
		t.Fatal(err)
	}
	defer c2.Unlock(5)
	done := make(chan error, 1)
	go func() { done <- c1.Lock(5, Shared) }()
	waitUntil(t, func() bool {
		c1.mu.Lock()
		defer c1.mu.Unlock()
		l := c1.locks[5]
		return l != nil && l.waiters[Shared] == 1
	})
	// One P while the two messages arrive, so that the woken caller
	// cannot run between them: without the rule the test fails every
	// time, not sometimes.
	procs := runtime.GOMAXPROCS(1)
	c1.onGrant(GrantMsg{Table: "fs", Lock: 5, Mode: Shared})
	c1.onRevokeMsg(RevokeMsg{Table: "fs", Lock: 5, NewMode: None})
	runtime.GOMAXPROCS(procs)

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-flushed:
		t.Fatal("the grant was given back before the caller it woke had used it")
	case <-time.After(20 * time.Second):
		t.Fatal("the woken caller never got the lock")
	}
	// The revoke is still owed: it runs when the use ends, not before.
	select {
	case <-flushed:
		t.Fatal("revoke ran while the lock was in use")
	case <-time.After(100 * time.Millisecond):
	}
	if c1.TryLock(5, Shared) {
		t.Fatal("a second caller got in ahead of the pending revoke")
	}
	c1.Unlock(5)
	select {
	case to := <-flushed:
		if to != None {
			t.Fatalf("revoked to %v, want none", to)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the deferred revoke never ran")
	}
	waitUntil(t, func() bool { return c1.Held(5) == None })
}

func TestManyClerksCounter(t *testing.T) {
	ls := newTestLS(t, 3)
	const clerks, iters = 4, 6
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < clerks; i++ {
		c := ls.clerk(t, fmt.Sprintf("ws%d", i))
		wg.Add(1)
		go func(c *Clerk) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				if err := c.Lock(77, Exclusive); err != nil {
					t.Errorf("lock: %v", err)
					return
				}
				counter++ // protected by lock 77
				c.Unlock(77)
			}
		}(c)
	}
	wg.Wait()
	if counter != clerks*iters {
		t.Fatalf("counter = %d, want %d (lost updates)", counter, clerks*iters)
	}
}

func TestLeaseExpiryTriggersRecovery(t *testing.T) {
	ls := newTestLS(t, 3)

	var deadMu sync.Mutex
	recoveredDead := ""
	recoveredSlot := -1

	c1 := NewClerk(ls.w, "ws1", "fs", ls.names, ls.cfg)
	lost := make(chan struct{})
	c1.SetCallbacks(func(lock uint64, to Mode) {}, nil, func() { close(lost) })
	if err := c1.Open(); err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	c2 := NewClerk(ls.w, "ws2", "fs", ls.names, ls.cfg)
	c2.SetCallbacks(func(lock uint64, to Mode) {}, func(dead string, slot int) error {
		deadMu.Lock()
		recoveredDead, recoveredSlot = dead, slot
		deadMu.Unlock()
		return nil
	}, nil)
	if err := c2.Open(); err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	slot1 := c1.LogSlot()
	if slot1 == c2.LogSlot() {
		t.Fatal("two sessions share a log slot")
	}

	// c1 takes an exclusive lock, then is partitioned away.
	if err := c1.Lock(11, Exclusive); err != nil {
		t.Fatal(err)
	}
	c1.Unlock(11)
	ls.w.Net.Isolate(ClerkAddr("ws1"))

	// c1 must eventually observe its own lease loss...
	select {
	case <-lost:
	case <-time.After(30 * time.Second):
		t.Fatal("partitioned clerk never lost its lease")
	}
	if c1.LeaseValid(0) {
		t.Fatal("lease still reported valid after loss")
	}
	// ...and the service must run recovery on another machine, then
	// release the dead clerk's locks so c2 can take them.
	if err := c2.Lock(11, Exclusive); err != nil {
		t.Fatal(err)
	}
	c2.Unlock(11)
	deadMu.Lock()
	defer deadMu.Unlock()
	if recoveredDead != "ws1" || recoveredSlot != slot1 {
		t.Fatalf("recovery ran for %q slot %d, want ws1 slot %d", recoveredDead, recoveredSlot, slot1)
	}
}

// TestRecoverReqCarriesDeadLease: the recoverer's SetRecover hook gets
// the dead session's lease ID along with its slot, and two sessions'
// IDs grow in the order they were opened.
func TestRecoverReqCarriesDeadLease(t *testing.T) {
	ls := newTestLS(t, 3)
	c1 := ls.clerk(t, "ws1")
	type asked struct {
		dead  string
		slot  int
		lease uint64
	}
	got := make(chan asked, 4)
	c2 := NewClerk(ls.w, "ws2", "fs", ls.names, ls.cfg)
	c2.SetCallbacks(func(uint64, Mode) {}, nil, nil)
	c2.SetRecover(func(dead string, slot int, lease uint64) error {
		got <- asked{dead, slot, lease}
		return nil
	})
	if err := c2.Open(); err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c1.LeaseID() == 0 || c2.LeaseID() <= c1.LeaseID() {
		t.Fatalf("lease IDs %d then %d, want nonzero and increasing", c1.LeaseID(), c2.LeaseID())
	}
	ls.w.Net.Isolate(ClerkAddr("ws1"))
	select {
	case a := <-got:
		if a.dead != "ws1" || a.slot != c1.LogSlot() || a.lease != c1.LeaseID() {
			t.Fatalf("recovery asked for %+v, want ws1 slot %d lease %d", a, c1.LogSlot(), c1.LeaseID())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("no recovery of ws1 asked")
	}
}

func TestLockServerCrashReassignsAndRecovers(t *testing.T) {
	ls := newTestLS(t, 3)
	c1 := ls.clerk(t, "ws1")
	c2 := ls.clerk(t, "ws2")

	// Take a bunch of locks spanning many groups.
	for id := uint64(0); id < 50; id++ {
		if err := c1.Lock(id, Exclusive); err != nil {
			t.Fatal(err)
		}
		c1.Unlock(id)
	}
	// Crash one lock server; its groups are reassigned and the new
	// servers rebuild state from the clerks.
	ls.servers[1].Crash()
	waitUntil(t, func() bool {
		st := ls.servers[0].State()
		if st.Alive["ls1"] {
			return false
		}
		for _, s := range st.Assignment {
			if s == "ls1" {
				return false
			}
		}
		return true
	})

	// c1 must still hold its locks, and conflicts must be detected
	// via the rebuilt state: c2's acquire triggers a revoke of c1.
	for id := uint64(0); id < 50; id += 10 {
		if err := c2.Lock(id, Exclusive); err != nil {
			t.Fatalf("lock %d after reassignment: %v", id, err)
		}
		c2.Unlock(id)
		if c1.Held(id) != None {
			t.Fatalf("lock %d still held by c1 after c2 exclusive", id)
		}
	}

	// Restart: groups flow back and service keeps working.
	ls.servers[1].Restart()
	waitUntil(t, func() bool {
		st := ls.servers[0].State()
		return st.Alive["ls1"]
	})
	if err := c1.Lock(999, Exclusive); err != nil {
		t.Fatal(err)
	}
	c1.Unlock(999)
}

func TestGStateReassignBalancedMinimalMovement(t *testing.T) {
	g := NewGState([]string{"a", "b", "c", "d"}, 0)
	count := func() map[string]int {
		m := make(map[string]int)
		for _, s := range g.Assignment {
			m[s]++
		}
		return m
	}
	for s, n := range count() {
		if n != DefaultShards/4 {
			t.Fatalf("initial balance: %s has %d shards", s, n)
		}
	}
	before := append([]string(nil), g.Assignment...)
	epochBefore := g.Epoch
	g.Apply(paxos.SetAlive{Server: "d", Alive: false})
	if g.Epoch <= epochBefore {
		t.Fatalf("epoch did not advance on reassignment: %d -> %d", epochBefore, g.Epoch)
	}
	moved := 0
	for i := range before {
		if before[i] != g.Assignment[i] {
			moved++
			if before[i] != "d" {
				t.Fatalf("shard %d moved from live server %s", i, before[i])
			}
		}
		if g.Assignment[i] == "d" {
			t.Fatalf("shard %d still on dead server", i)
		}
	}
	if moved != DefaultShards/4 {
		t.Fatalf("moved %d shards, want exactly the dead server's %d", moved, DefaultShards/4)
	}
	for s, n := range count() {
		if n < DefaultShards/3-1 || n > DefaultShards/3+2 {
			t.Fatalf("post-crash balance: %s has %d shards", s, n)
		}
	}
	// A command that does not change the assignment must not bump the
	// epoch: clerks refetch on every epoch change, so spurious bumps
	// are pure churn.
	epochBefore = g.Epoch
	g.Apply(paxos.SetAlive{Server: "d", Alive: false}) // already dead
	g.Apply(CmdOpenSession{Clerk: "ws1", Table: "fs"})
	if g.Epoch != epochBefore {
		t.Fatalf("epoch bumped without assignment change: %d -> %d", epochBefore, g.Epoch)
	}
}

func TestGStateSessions(t *testing.T) {
	g := NewGState([]string{"a"}, 0)
	g.Apply(CmdOpenSession{Clerk: "ws1", Table: "fs"})
	g.Apply(CmdOpenSession{Clerk: "ws2", Table: "fs"})
	s1 := g.Sessions["ws1/fs"]
	s2 := g.Sessions["ws2/fs"]
	if s1.LeaseID == s2.LeaseID {
		t.Fatal("lease ids not unique")
	}
	if s1.LogSlot == s2.LogSlot {
		t.Fatal("log slots not unique per table")
	}
	// Idempotent re-open keeps lease.
	g.Apply(CmdOpenSession{Clerk: "ws1", Table: "fs"})
	if g.Sessions["ws1/fs"].LeaseID != s1.LeaseID {
		t.Fatal("re-open changed lease")
	}
	// Close frees the slot for reuse.
	g.Apply(CmdCloseSession{Clerk: "ws1", Table: "fs"})
	g.Apply(CmdOpenSession{Clerk: "ws3", Table: "fs"})
	if g.Sessions["ws3/fs"].LogSlot != s1.LogSlot {
		t.Fatalf("slot %d not reused, got %d", s1.LogSlot, g.Sessions["ws3/fs"].LogSlot)
	}
	// MarkDead flags without removing.
	g.Apply(CmdMarkDead{Clerk: "ws2", Table: "fs"})
	if !g.Sessions["ws2/fs"].Dead {
		t.Fatal("MarkDead did not flag session")
	}
}

func TestShardMapping(t *testing.T) {
	seen := make(map[int]bool)
	for id := uint64(0); id < 1000; id++ {
		sh := ShardOf(id, DefaultShards)
		if sh < 0 || sh >= DefaultShards {
			t.Fatalf("shard %d out of range", sh)
		}
		if sh != ShardOf(id, DefaultShards) {
			t.Fatalf("ShardOf not deterministic for id %d", id)
		}
		seen[sh] = true
	}
	// The hash must spread structured ids (dense low integers, like
	// inode numbers) across essentially all shards; a modulus would
	// trivially pass this too, but the hash must not regress it.
	if len(seen) < DefaultShards*9/10 {
		t.Fatalf("only %d/%d shards used by first 1000 ids", len(seen), DefaultShards)
	}
	// Degenerate shard counts stay in range.
	if ShardOf(12345, 1) != 0 || ShardOf(12345, 0) != 0 {
		t.Fatal("ShardOf with <=1 shards must return 0")
	}
}

func TestClerkMemoryAccounting(t *testing.T) {
	ls := newTestLS(t, 3)
	c := ls.clerk(t, "ws1")
	if err := c.Lock(1, Shared); err != nil {
		t.Fatal(err)
	}
	c.Unlock(1)
	if got := c.MemoryBytes(); got != ClerkBytesPerLock {
		t.Fatalf("clerk memory = %d, want %d", got, ClerkBytesPerLock)
	}
	waitUntil(t, func() bool {
		for _, s := range ls.servers {
			if n, b := s.stats(); n > 0 && b > 0 {
				return true
			}
		}
		return false
	})
}

func TestGStateReassignProperty(t *testing.T) {
	// Property: after any sequence of liveness flips, every group is
	// served by exactly one server; if any server is alive, every
	// group is on an alive server and load is balanced within 2.
	servers := []string{"a", "b", "c", "d", "e"}
	g := NewGState(servers, 0)
	rng := []int{3, 1, 4, 1, 0, 2, 2, 4, 0, 3, 1, 2}
	alive := map[string]bool{"a": true, "b": true, "c": true, "d": true, "e": true}
	for step, pick := range rng {
		s := servers[pick]
		alive[s] = !alive[s]
		g.Apply(paxos.SetAlive{Server: s, Alive: alive[s]})
		nAlive := 0
		for _, v := range alive {
			if v {
				nAlive++
			}
		}
		if nAlive == 0 {
			continue
		}
		load := map[string]int{}
		for grp, srv := range g.Assignment {
			if !alive[srv] {
				t.Fatalf("step %d: group %d on dead server %s", step, grp, srv)
			}
			load[srv]++
		}
		min, max := DefaultShards, 0
		for _, s := range servers {
			if !alive[s] {
				continue
			}
			if load[s] < min {
				min = load[s]
			}
			if load[s] > max {
				max = load[s]
			}
		}
		if max-min > 2 {
			t.Fatalf("step %d: unbalanced load %v", step, load)
		}
	}
}

func TestClerkEpochFencing(t *testing.T) {
	// A grant echoing a stale epoch must be ignored by the clerk.
	ls := newTestLS(t, 3)
	c := ls.clerk(t, "wsE")
	if err := c.Lock(5, Exclusive); err != nil {
		t.Fatal(err)
	}
	c.Unlock(5)
	// Simulate a stale re-grant from a confused server: epoch far in
	// the past.
	c.handle("ls0", GrantMsg{Table: "fs", Lock: 123, Mode: Exclusive, Ver: 1, Epoch: -99})
	if got := c.Held(123); got != None {
		t.Fatalf("stale-epoch grant accepted: held=%v", got)
	}
}

func TestIdleLocksDiscarded(t *testing.T) {
	ls := newTestLS(t, 3)
	cfg := ls.cfg
	cfg.IdleDiscard = 20 * time.Second // short for the test
	c := NewClerk(ls.w, "wsIdle", "fs", ls.names, cfg)
	flushed := make(chan uint64, 16)
	lost := false
	c.SetCallbacks(func(lock uint64, to Mode) { flushed <- lock }, nil, func() { lost = true; t.Log("LEASE LOST") })
	_ = lost
	if err := c.Open(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for id := uint64(1); id <= 4; id++ {
		if err := c.Lock(id, Exclusive); err != nil {
			t.Fatal(err)
		}
		c.Unlock(id)
	}
	if c.HeldCount() != 4 {
		t.Fatalf("held %d, want 4", c.HeldCount())
	}
	// After the idle window, the sticky grants go away — through the
	// revoke path, so the flush callback runs for each.
	waitUntil(t, func() bool { return c.HeldCount() == 0 })
	if len(flushed) < 4 {
		t.Fatalf("only %d flush callbacks ran", len(flushed))
	}
	// Memory is reclaimed too (entries deleted on a later pass).
	waitUntil(t, func() bool { return c.MemoryBytes() == 0 })
	// Locks still work after discard.
	if err := c.Lock(1, Shared); err != nil {
		t.Fatal(err)
	}
	c.Unlock(1)
}

// TestJournalSkipsStickyHits: the flight recorder keeps acquires that
// had to wait and acquires that failed, nothing else. A sticky hit
// takes a clock tick like everything does; journalling it on that
// account had the fast path overwrite the ring's failure history within
// seconds.
func TestJournalSkipsStickyHits(t *testing.T) {
	ls := newTestLS(t, 3)
	acquired := func(machine string) int {
		n := 0
		for _, e := range ls.w.Obs.Journal(machine).Events() {
			if e.Layer == "lockservice" && e.Op == "acquire" && e.Kind == "ok" {
				n++
			}
		}
		return n
	}
	c1 := ls.clerk(t, "ws1")
	if err := c1.Lock(7, Exclusive); err != nil {
		t.Fatal(err)
	}
	c1.Unlock(7)
	if n := acquired("ws1"); n != 1 {
		t.Fatalf("the cold acquire journalled %d events, want 1", n)
	}
	before := ls.w.Obs.Journal("ws1").Seq()
	for i := 0; i < 1000; i++ {
		if err := c1.Lock(7, Exclusive); err != nil {
			t.Fatal(err)
		}
		c1.Unlock(7)
	}
	if n := ls.w.Obs.Journal("ws1").Seq() - before; n != 0 {
		t.Fatalf("1000 sticky hits journalled %d events, want 0", n)
	}
	// One contended acquire: ws2 has to wait for ws1's grant to come back.
	c2 := ls.clerk(t, "ws2")
	if err := c2.Lock(7, Exclusive); err != nil {
		t.Fatal(err)
	}
	c2.Unlock(7)
	if n := acquired("ws2"); n != 1 {
		t.Fatalf("one contended acquire journalled %d acquire events, want exactly 1", n)
	}
}

// TestOpenIsOneRoundTrip: §7's join is one exchange with the lock
// service. Open's reply carries the shard map, so the lock servers see
// one request for it in all, and the clerk routes by the map it got.
func TestOpenIsOneRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SweepEvery = time.Hour // no expiry sweep's RenewalsReq in the count
	ls := newTestLSConfig(t, 3, cfg, 1)
	requests := func() (n int64) {
		for _, name := range ls.names {
			n += ls.w.Obs.Counter("lockservice.server.requests#" + name).Value()
		}
		return n
	}
	before := requests()
	c := ls.clerk(t, "ws1")
	if got := requests() - before; got != 1 {
		t.Fatalf("Open sent the lock servers %d requests, want 1", got)
	}
	if _, version := c.follow.View(); version <= 0 { // -1: no map at all
		t.Fatalf("clerk opened without the shard map (version %d)", version)
	}
}

// TestServerGaugesPublishLockMemory: the lockservice.server.{locks,bytes}
// gauges carry the memory model without anyone asking a server for it:
// the revoke-retry tick every server runs publishes it.
func TestServerGaugesPublishLockMemory(t *testing.T) {
	ls := newTestLS(t, 3)
	c := ls.clerk(t, "ws1")
	if err := c.Lock(1, Shared); err != nil {
		t.Fatal(err)
	}
	c.Unlock(1)
	waitUntil(t, func() bool {
		for _, name := range ls.names {
			if ls.w.Obs.Gauge("lockservice.server.locks#"+name).Value() > 0 &&
				ls.w.Obs.Gauge("lockservice.server.bytes#"+name).Value() > 0 {
				return true
			}
		}
		return false
	})
}
