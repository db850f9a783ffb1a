package lockservice

import (
	"errors"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// TestStickyLockAllocs: taking and dropping a sticky grant allocates
// nothing, through Lock and through TryLock.
func TestStickyLockAllocs(t *testing.T) {
	ls := newTestLS(t, 3)
	c := ls.clerk(t, "wsA")
	if err := c.Lock(7, Exclusive); err != nil {
		t.Fatal(err)
	}
	c.Unlock(7)
	if n := testing.AllocsPerRun(200, func() {
		if err := c.Lock(7, Exclusive); err != nil {
			t.Fatal(err)
		}
		c.Unlock(7)
	}); n != 0 {
		t.Errorf("Lock+Unlock of a sticky grant: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if !c.TryLock(7, Shared) {
			t.Fatal("TryLock of a sticky grant failed")
		}
		c.Unlock(7)
	}); n != 0 {
		t.Errorf("TryLock+Unlock of a sticky grant: %v allocations, want 0", n)
	}
}

// TestLeaseValidAllocs: the lease check the file system makes before
// every Petal write allocates nothing; it sorted a fresh slice of the
// servers' ack times on every call.
func TestLeaseValidAllocs(t *testing.T) {
	ls := newTestLS(t, 3)
	c := ls.clerk(t, "wsA")
	if !c.LeaseValid(0) {
		t.Fatal("a fresh clerk's lease is not valid")
	}
	if n := testing.AllocsPerRun(200, func() { c.LeaseValid(time.Second) }); n != 0 {
		t.Errorf("LeaseValid: %v allocations, want 0", n)
	}
}

// recoveryRig is a clerk that is asked to recover a dead clerk's log by
// a stand-in lock server, which records the RecoveryDones it gets.
type recoveryRig struct {
	c       *Clerk
	done    chan RecoveryDone
	started chan struct{} // one send per replay begun
	calls   atomic.Int32
}

func newRecoveryRig(t *testing.T, replay func(call int32) error) *recoveryRig {
	t.Helper()
	w := sim.NewWorld(300, 5)
	t.Cleanup(w.Stop)
	r := &recoveryRig{ // buffers: room for more than any test asks, so no send blocks
		done:    make(chan RecoveryDone, 8),
		started: make(chan struct{}, 8),
	}
	srv := rpc.NewEndpoint(Addr("lsR"), rpc.SimCarrier{Net: w.Net}, w.Clock, func(from string, body any) any {
		if m, ok := body.(RecoveryDone); ok {
			r.done <- m
		}
		return nil
	})
	t.Cleanup(srv.Close)
	r.c = NewClerk(w, "wsR", "fs", []string{"lsR"}, DefaultConfig())
	t.Cleanup(r.c.Close)
	r.c.SetCallbacks(nil, func(dead string, slot int) error {
		call := r.calls.Add(1)
		r.started <- struct{}{}
		return replay(call)
	}, nil)
	return r
}

func (r *recoveryRig) ask(seq uint64) {
	r.c.handle(Addr("lsR"), RecoverReq{Server: "lsR", Table: "fs", Dead: "ws9", DeadSlot: 3, Seq: seq})
}

func (r *recoveryRig) awaitDone(t *testing.T) RecoveryDone {
	t.Helper()
	select {
	case m := <-r.done:
		return m
	case <-time.After(20 * time.Second):
		t.Fatal("no RecoveryDone")
	}
	return RecoveryDone{}
}

// TestRecoveryRunsOncePerDeadClerk: asks that arrive while the replay
// runs do not start another, and the one RecoveryDone answers the
// newest of them.
func TestRecoveryRunsOncePerDeadClerk(t *testing.T) {
	var release sync.WaitGroup
	release.Add(1)
	r := newRecoveryRig(t, func(int32) error { release.Wait(); return nil })
	r.ask(1)
	<-r.started
	r.ask(2)
	r.ask(3)
	release.Done()
	if m := r.awaitDone(t); m.Seq != 3 || m.Dead != "ws9" || m.Clerk != "wsR" {
		t.Fatalf("RecoveryDone = %+v, want Seq 3 for ws9 from wsR", m)
	}
	select {
	case m := <-r.done:
		t.Fatalf("a second RecoveryDone: %+v", m)
	case <-time.After(200 * time.Millisecond):
	}
	if n := r.calls.Load(); n != 1 {
		t.Fatalf("the replay ran %d times, want once", n)
	}
}

// TestRecoveryRetriedAfterFailure: a failed replay answers nothing and
// forgets the dead clerk, so the next ask replays again.
func TestRecoveryRetriedAfterFailure(t *testing.T) {
	r := newRecoveryRig(t, func(call int32) error {
		if call == 1 {
			return errors.New("petal unreachable")
		}
		return nil
	})
	r.ask(1)
	waitUntil(t, func() bool { // journalled once the failed replay is forgotten
		for _, e := range r.c.w.Obs.Journal("wsR").Events() {
			if e.Op == "recovery" && e.Kind == "fail" {
				return true
			}
		}
		return false
	})
	r.ask(2)
	if m := r.awaitDone(t); m.Seq != 2 {
		t.Fatalf("RecoveryDone = %+v, want Seq 2", m)
	}
	if n := r.calls.Load(); n != 2 {
		t.Fatalf("the replay ran %d times, want twice", n)
	}
}

// raceBuild reports whether the test binary was built with -race, under
// which the allocation counts carry slack.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// handoffRoundAllocs bounds what one lock handoff allocates, every
// goroutine of the process counted: a Lock of an id the other clerk holds
// sticky costs four messages — the revoke, the release batch, the acquire
// batch and the grant — and each message is one object, its box.
const handoffRoundAllocs = 4

// TestHandoffRoundAllocs: a Lock of an id the other clerk holds sticky
// allocates one object per message it takes and nothing else: not the
// clerk's queue, not its batches' lists, not the revoke's goroutine, not
// the server's waiter queue or cast list. It runs on a bare world at
// compression 1, as the benchmark's revoke round trip does, and takes the
// least of several rounds: the servers' heartbeats and the clerks' lease
// renewals allocate on their own schedule.
func TestHandoffRoundAllocs(t *testing.T) {
	ls := newTestLSConfig(t, 3, DefaultConfig(), 1)
	a, b := ls.clerk(t, "wsA"), ls.clerk(t, "wsB")
	holder, other := a, b
	round := func() {
		holder, other = other, holder
		if err := holder.Lock(1, Exclusive); err != nil {
			t.Fatal(err)
		}
		holder.Unlock(1)
	}
	for i := 0; i < 4; i++ {
		round()
	}
	least := -1.0
	for i := 0; i < 5; i++ {
		if n := testing.AllocsPerRun(20, round); least < 0 || n < least {
			least = n
		}
	}
	t.Logf("a lock handoff: %.1f allocations", least)
	if !raceBuild() && least > handoffRoundAllocs {
		t.Errorf("a lock handoff allocates %.1f objects, want at most %d (one a message)", least, handoffRoundAllocs)
	}
}

// TestLockAllOneBatch: LockAll asks for every lock it has to in one drain
// of the clerk's queue — one batch for each lock server, however many
// locks — and returns holding them all; with one that another clerk
// holds, once that clerk has given it back. A closed clerk's LockAll
// holds none.
func TestLockAllOneBatch(t *testing.T) {
	ls := newTestLS(t, 3)
	a, b := ls.clerk(t, "wsA"), ls.clerk(t, "wsB")
	batches := ls.w.Obs.Counter("lockservice.clerk.batches#wsA")
	ops := ls.w.Obs.Counter("lockservice.clerk.batched_ops#wsA")
	b0, o0 := batches.Value(), ops.Value()
	var locks []uint64
	for id := uint64(1); id <= 16; id++ {
		locks = append(locks, id)
	}
	if err := a.LockAll(locks, Exclusive); err != nil {
		t.Fatal(err)
	}
	if n := batches.Value() - b0; n > int64(len(ls.names)) {
		t.Errorf("LockAll of %d locks sent %d batches, want at most one a server (%d)", len(locks), n, len(ls.names))
	}
	if n := ops.Value() - o0; n != int64(len(locks)) {
		t.Errorf("the batches carried %d operations, want %d", n, len(locks))
	}
	for _, id := range locks {
		if m := a.Held(id); m != Exclusive {
			t.Errorf("lock %d held %v, want exclusive", id, m)
		}
		a.Unlock(id)
	}
	if err := b.Lock(20, Exclusive); err != nil {
		t.Fatal(err)
	}
	b.Unlock(20)
	if err := a.LockAll([]uint64{20, 21}, Shared); err != nil {
		t.Fatal(err)
	}
	if m := a.Held(20); m != Shared {
		t.Errorf("lock 20 held %v, want shared", m)
	}
	a.Unlock(20)
	a.Unlock(21)
	if m := b.Held(20); m > Shared {
		t.Errorf("wsB still holds lock 20 %v", m)
	}
	b.Close()
	if err := b.LockAll([]uint64{30, 31}, Shared); err != ErrClosed {
		t.Errorf("a closed clerk's LockAll returned %v, want ErrClosed", err)
	}
}
