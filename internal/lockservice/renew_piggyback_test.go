package lockservice

import (
	"testing"
	"time"

	"frangipani/internal/sim"
)

// TestBusyClerkRenewsViaPiggyback checks the big-N renewal contract:
// a clerk whose lock batches already reach every server must keep its
// lease alive from the RenewAcks riding on those batches alone, with
// ZERO standalone renew RPCs — the per-clerk renewal fan-out is what
// made lease traffic O(clients x servers) at scale.
func TestBusyClerkRenewsViaPiggyback(t *testing.T) {
	ls := newTestLS(t, 3)
	c := ls.clerk(t, "wsb")

	std := ls.w.Obs.Counter("lockservice.renew.standalone#wsb")
	pig := ls.w.Obs.Counter("lockservice.renew.piggyback#wsb")
	elid := ls.w.Obs.Counter("lockservice.renew.elided#wsb")

	// Let Open's initial handshake settle before drawing the line.
	ls.w.Clock.Sleep(time.Second)
	std0 := std.Value()

	// Busy clerk: acquire a fresh lock id every 200 ms (simulated)
	// for 2.5 lease durations, so several renewal ticks elapse while
	// batch traffic flows. The odd stride spreads ids across shards
	// so every server sees batches within each ack window.
	end := ls.w.Clock.Now() + sim.Time(5*ls.cfg.LeaseDuration/2)
	id := uint64(1 << 20)
	for ls.w.Clock.Now() < end {
		if err := c.Lock(id, Exclusive); err != nil {
			t.Fatalf("lock %d: %v", id, err)
		}
		c.Unlock(id)
		id += 7919
		ls.w.Clock.Sleep(200 * time.Millisecond)
	}

	if got := std.Value() - std0; got != 0 {
		t.Fatalf("busy clerk sent %d standalone renew RPCs, want 0 (all piggybacked)", got)
	}
	if pig.Value() == 0 {
		t.Fatal("no piggybacked renewals recorded on batch traffic")
	}
	if elid.Value() == 0 {
		t.Fatal("no renewal ticks elided: ticks should find fresh piggyback acks")
	}
	if !c.LeaseValid(0) {
		t.Fatal("lease expired despite continuous piggybacked renewal")
	}
}

// TestIdleClerkStillRenewsStandalone is the piggyback scheme's
// fallback: with no batch traffic carrying acks, the renewal tick
// must keep sending real renew RPCs or the lease dies.
func TestIdleClerkStillRenewsStandalone(t *testing.T) {
	ls := newTestLS(t, 3)
	c := ls.clerk(t, "wsi")

	ls.w.Clock.Sleep(ls.cfg.LeaseDuration + ls.cfg.LeaseDuration/2)

	if got := ls.w.Obs.Counter("lockservice.renew.standalone#wsi").Value(); got == 0 {
		t.Fatal("idle clerk never sent a standalone renewal")
	}
	if !c.LeaseValid(0) {
		t.Fatal("idle clerk's lease expired")
	}
	if c.LeaseLost() {
		t.Fatal("idle clerk lost its lease")
	}
}

// TestIdleClerkKeepsLeaseMargin: a clerk with no lock traffic, renewed
// by its ticks alone, keeps its lease valid for the paper's margin at
// every moment, so a server that writes now and then never waits on its
// lease. It fails if a tick can leave a server whose ack is one tick old
// to the next tick: the majority ack then ages to two ticks, and
// LeaseValid is false for the last third of that. The world runs slower
// than the other tests' so that a host stall cannot eat the margin's
// slack.
func TestIdleClerkKeepsLeaseMargin(t *testing.T) {
	ls := newTestLSConfig(t, 3, DefaultConfig(), 50)
	c := ls.clerk(t, "wsm")
	end := ls.w.Clock.Now() + sim.Time(3*ls.cfg.LeaseDuration)
	for now := ls.w.Clock.Now(); now < end; now = ls.w.Clock.Now() {
		if !c.LeaseValid(DefaultLeaseMargin) {
			t.Fatalf("at %v the lease runs out in %v, inside the %v margin",
				time.Duration(now), time.Duration(c.ExpiresAt()-int64(now)), DefaultLeaseMargin)
		}
		ls.w.Clock.Sleep(time.Second)
	}
}

// TestMajorityDisownLosesLease: once a majority of lock servers answers
// a renewal with Valid false — the session was marked dead while the
// clerk stalled — the next tick loses the lease, long before the acks
// the clerk holds would let it expire. One server's nack does not, and
// that server's next valid ack clears it. The world runs slower than the
// other tests' so that a host stall cannot pass for a late verdict.
func TestMajorityDisownLosesLease(t *testing.T) {
	ls := newTestLSConfig(t, 3, DefaultConfig(), 50)
	c := ls.clerk(t, "wsZ")
	ack := func(srv string, valid bool) {
		c.handle(Addr(srv), RenewAck{Server: srv, LeaseID: c.leaseID, Valid: valid})
	}
	ack("ls0", false)
	c.renew()
	ack("ls0", true)
	ack("ls1", false)
	c.renew()
	if c.LeaseLost() {
		t.Fatal("one server's nack at a time lost the lease")
	}
	ack("ls1", true)

	if err := ls.servers[0].grp.Submit(CmdMarkDead{Clerk: "wsZ", Table: "fs"}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool {
		for _, s := range ls.servers {
			if !s.State().Sessions[sessionKey("wsZ", "fs")].Dead {
				return false
			}
		}
		return true
	})
	// Once the acks are stale every tick renews every server, and each
	// answers at once.
	ls.w.Clock.Sleep(ackFresh(ls.cfg.LeaseDuration))
	for !c.LeaseLost() && int64(ls.w.Clock.Now()) < c.ExpiresAt() {
		c.renew()
		ls.w.Clock.Sleep(100 * time.Millisecond)
	}
	if !c.LeaseLost() {
		t.Fatal("the lease outlived a majority disowning its session until its acks expired")
	}
	if left := time.Duration(c.ExpiresAt() - int64(ls.w.Clock.Now())); left < ls.cfg.LeaseDuration/2 {
		t.Fatalf("the lease was lost %v before its acks expired it, want at least %v", left, ls.cfg.LeaseDuration/2)
	}
	for _, e := range ls.w.Obs.Journal("wsZ").Events() {
		if e.Op == "lease" && e.Kind == "invalid" {
			return
		}
	}
	t.Fatal("no lease invalid record")
}
