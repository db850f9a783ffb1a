package lockservice

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
)

// The rules the integration tests can only force with timing, taken
// one transition at a time.

// TestCoreGrantUsedBeforeRevoke: a revoke right behind the grant that
// woke a blocked caller lets that caller in first, and the caller's
// unlock starts the flush. TestGrantUsedBeforeRevoke needs GOMAXPROCS(1)
// to get the two messages in ahead of the caller.
func TestCoreGrantUsedBeforeRevoke(t *testing.T) {
	l := &clkLock{epoch: 1}
	if a := l.want(Shared, 10, 100); !a.has(actRequest) || a.mode != Shared || a.epoch != 1 {
		t.Fatalf("want = %+v, want a request for shared at epoch 1", a)
	}
	l.waiters[Shared]++ // the caller blocks
	if a := l.grant(Shared, 1); !a.has(actWake) {
		t.Fatalf("grant = %+v, want the waiters woken", a)
	}
	if a := l.revoke(None); a.has(actFlush) || !l.owed {
		t.Fatalf("revoke = %+v (owed %v): the flush started before the woken caller ran", a, l.owed)
	}
	if l.admit(Shared, 20, false) {
		t.Fatal("a caller that did not wait went ahead of the pending revoke")
	}
	l.waiters[Shared]-- // the caller runs
	if !l.admit(Shared, 20, true) {
		t.Fatal("the woken caller was refused the grant it was woken for")
	}
	if l.admit(Shared, 20, true) {
		t.Fatal("a second caller used the owed grant")
	}
	if a := l.unlock(); !a.has(actFlush) {
		t.Fatalf("unlock = %+v, want the deferred flush started", a)
	}
	if a := l.flushed(None, 2); !a.has(actRelease) || a.mode != None || a.has(actFlush) || l.revokePending || l.revoking {
		t.Fatalf("flushed = %+v, state %+v", a, *l)
	}
}

// TestCoreStaleEpochGrantIgnored: a grant answering a request of a
// tenancy the clerk has since released is void.
func TestCoreStaleEpochGrantIgnored(t *testing.T) {
	l := &clkLock{mode: Exclusive, epoch: 1}
	l.revoke(None)
	l.flushed(None, 2)
	if a := l.grant(Exclusive, 1); a.do != 0 || l.mode != None {
		t.Fatalf("stale grant taken: act %+v, mode %v", a, l.mode)
	}
	l.want(Exclusive, 10, 100)
	if a := l.grant(Exclusive, 2); !a.has(actTaken) || l.mode != Exclusive {
		t.Fatalf("current grant refused: act %+v, mode %v", a, l.mode)
	}
}

// TestCoreStrongerRevokeNarrowsFlush: a revoke to None arriving while
// the flush for a downgrade runs is not lost: the downgrade is released
// and the flush runs again, towards None.
func TestCoreStrongerRevokeNarrowsFlush(t *testing.T) {
	l := &clkLock{mode: Exclusive, epoch: 1}
	if a := l.revoke(Shared); !a.has(actFlush) {
		t.Fatalf("revoke(shared) = %+v, want a flush", a)
	}
	target := l.revokeTo
	if a := l.revoke(None); a.has(actFlush) || l.revokeTo != None {
		t.Fatalf("revoke(none) during the flush = %+v, target %v: want it narrowed, no second flush", a, l.revokeTo)
	}
	if a := l.revoke(Shared); a.do != 0 {
		t.Fatalf("a weaker revoke during the flush = %+v, want it ignored", a)
	}
	a := l.flushed(target, 2)
	if !a.has(actRelease) || a.mode != Shared || !a.has(actFlush) || !l.revoking {
		t.Fatalf("flushed(shared) = %+v: want the downgrade released and the flush run again", a)
	}
	a = l.flushed(l.revokeTo, 3)
	if !a.has(actRelease) || a.mode != None || a.has(actFlush) || l.revokePending || l.revoking || l.mode != None {
		t.Fatalf("flushed(none) = %+v, state %+v", a, *l)
	}
}

// TestCoreNewConflictRevokedAtOnce: the first revoke of a conflict goes
// out with the request that makes it — also at time zero (a zero
// lastRevoke once read as "revoked at t=0") — and only retransmissions
// wait out the retry interval.
func TestCoreNewConflictRevokedAtOnce(t *testing.T) {
	never := func(string) bool { return false }
	k := lockKey{"fs", 5}
	ls := newLockState()
	ls.acquire(k, "a", Exclusive, 1, nil)
	if out := ls.grant(k, 0, 100, never, nil); len(out) != 1 || out[0].revoke || out[0].clerk != "a" {
		t.Fatalf("first grant = %+v", out)
	}
	revokes := func(out []cast) int {
		n := 0
		for _, c := range out {
			if c.revoke {
				n++
			}
		}
		return n
	}
	out := ls.acquire(k, "b", Shared, 1, nil)
	if out = ls.grant(k, 0, 100, never, out); revokes(out) != 1 || out[0].mode != Shared {
		t.Fatalf("new conflict at t=0: %+v, want one downgrade revoke", out)
	}
	out = ls.acquire(k, "b", Shared, 1, nil) // retransmission
	if out = ls.grant(k, 50, 100, never, out); len(out) != 0 {
		t.Fatalf("retransmission inside the retry interval: %+v, want nothing", out)
	}
	if out = ls.grant(k, 100, 100, never, nil); revokes(out) != 1 {
		t.Fatalf("retry tick after the interval: %+v, want the revoke again", out)
	}
	ls.release("a", Shared)
	if out = ls.grant(k, 120, 100, never, nil); len(out) != 1 || out[0].revoke || out[0].clerk != "b" {
		t.Fatalf("after the downgrade: %+v, want b granted", out)
	}
	out = ls.acquire(k, "c", Exclusive, 1, nil)
	if out = ls.grant(k, 130, 100, never, out); revokes(out) != 2 {
		t.Fatalf("a new conflict inside the interval: %+v, want both holders revoked at once", out)
	}
}

// TestCoreImportsNoIO: the transitions stay pure — no locks, clocks,
// network or observability in the file that holds them, and of sim
// only its time types.
func TestCoreImportsNoIO(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "core.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if path != "frangipani/internal/sim" {
			t.Errorf("core.go imports %q", path)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "sim" && sel.Sel.Name != "Time" && sel.Sel.Name != "Duration" {
				t.Errorf("core.go uses sim.%s", sel.Sel.Name)
			}
		}
		return true
	})
}
