package obs

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestAccountTableUnknownPolicy(t *testing.T) {
	tab := NewAccountTable()
	// Work recorded outside any binding lands in the visible unknown
	// account, never dropped.
	tab.Bytes("", 100, 50)
	tab.Op("", 1e6)
	stats := tab.Snapshot()
	if len(stats) != 1 || stats[0].Principal != UnknownPrincipal {
		t.Fatalf("unbound work did not land in unknown: %+v", stats)
	}
	if stats[0].BytesIn != 100 || stats[0].BytesOut != 50 || stats[0].Ops != 1 {
		t.Fatalf("unknown totals wrong: %+v", stats[0])
	}
}

func TestAccountTableCountersAndSort(t *testing.T) {
	tab := NewAccountTable()
	tab.Bytes("streamer", 1<<20, 0)
	tab.Op("streamer", 2e6)
	tab.RPC("streamer", 5)
	tab.WAL("streamer", 4096)
	tab.Bytes("reader", 0, 1<<10)
	tab.Op("reader", 1e6)
	tab.LockWait("reader", 7e6)
	tab.CacheMiss("reader", 3)
	tab.ServerOp("reader")

	stats := tab.Snapshot()
	if len(stats) != 2 {
		t.Fatalf("got %d accounts", len(stats))
	}
	// Sorted by total bytes desc: streamer first.
	if stats[0].Principal != "streamer" || stats[1].Principal != "reader" {
		t.Fatalf("sort order: %s, %s", stats[0].Principal, stats[1].Principal)
	}
	s, r := stats[0], stats[1]
	if s.BytesIn != 1<<20 || s.RPCs != 5 || s.WALBytes != 4096 || s.Ops != 1 {
		t.Fatalf("streamer stat: %+v", s)
	}
	if r.LockWaitNs != 7e6 || r.CacheMisses != 3 || r.ServerOps != 1 || r.BytesOut != 1<<10 {
		t.Fatalf("reader stat: %+v", r)
	}
	if s.OpP99Ns <= 0 || r.OpP50Ns <= 0 {
		t.Fatalf("latency quantiles missing: %+v %+v", s, r)
	}
	out := RenderAccounts(stats, Window{})
	for _, want := range []string{"streamer", "reader", "principals (2)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestAccountTableFoldsColdest fills the table past capacity and
// checks the coldest identity is folded into "other" — bounded table,
// exact totals.
func TestAccountTableFoldsColdest(t *testing.T) {
	tab := NewAccountTable()
	tab.Bytes(UnknownPrincipal, 1, 0) // reserved, never folded
	for i := 0; i < maxAccounts-1; i++ {
		tab.Bytes(fmt.Sprintf("p%03d", i), int64(1000+i), 0)
		tab.Op(fmt.Sprintf("p%03d", i), 1e6)
	}
	if tab.Len() != maxAccounts {
		t.Fatalf("len = %d, want %d", tab.Len(), maxAccounts)
	}
	var before int64
	for _, st := range tab.Snapshot() {
		before += st.Bytes() + st.Ops
	}
	// One more principal forces folds of the coldest: the first fold
	// creates "other" (no slot freed), the second frees p001's slot.
	tab.Bytes("newcomer", 5000, 0)
	if tab.Len() != maxAccounts {
		t.Fatalf("table grew past cap: %d", tab.Len())
	}
	stats := tab.Snapshot()
	var after int64
	var other *AccountStat
	for i, st := range stats {
		after += st.Bytes() + st.Ops
		if st.Principal == "p000" || st.Principal == "p001" {
			t.Fatalf("coldest principal %s not folded", st.Principal)
		}
		if st.Principal == OtherPrincipal {
			other = &stats[i]
		}
	}
	if after != before+5000 {
		t.Fatalf("fold lost totals: before %d + 5000 != after %d", before, after)
	}
	if other == nil || other.BytesIn != 1000+1001 || other.Ops != 2 {
		t.Fatalf("other did not absorb victims: %+v", other)
	}
	if other.OpP99Ns <= 0 {
		t.Fatal("other lost victims' latency distribution")
	}
}

// TestAccountTableAdvanceWindows: each window the ring closes holds what
// every principal was charged in it, with the window's own op p99.
func TestAccountTableAdvanceWindows(t *testing.T) {
	reg := NewRegistry((&fakeClock{}).now)
	ring := NewWindowRing(reg)
	tab := reg.Accounts()
	tab.Bytes("w", 1000, 0)
	tab.Op("w", 5e6)
	tab.LockWait("w", 2e6)
	win := ring.Advance()
	if len(win.Accounts) != 1 {
		t.Fatalf("window accounts: %+v", win.Accounts)
	}
	st := win.Accounts[0]
	if st.Principal != "w" || st.BytesIn != 1000 || st.Ops != 1 || st.LockWaitNs != 2e6 {
		t.Fatalf("first window: %+v", st)
	}
	if win.Seconds() <= 0 {
		t.Fatalf("window seconds: %v", win.Seconds())
	}
	if st.OpP99Ns <= 0 {
		t.Fatalf("window p99 missing: %+v", st)
	}
	// Second window sees only the new activity, cumulative keeps all.
	tab.Bytes("w", 500, 0)
	if st = ring.Advance().Accounts[0]; st.BytesIn != 500 || st.Ops != 0 {
		t.Fatalf("second window: %+v", st)
	}
	if cum := tab.Snapshot()[0]; cum.BytesIn != 1500 {
		t.Fatalf("cumulative lost: %+v", cum)
	}
	// An idle window reports zero p99, not the stale one.
	if st = ring.Advance().Accounts[0]; st.OpP99Ns != 0 || st.BytesIn != 0 {
		t.Fatalf("idle window not zeroed: %+v", st)
	}
	// top's "now" column: the rate over the window just closed, "-"
	// without one.
	for _, c := range []struct {
		win  Window
		want string
	}{{Window{}, "-"}, {ring.Advance(), "0.00"}} {
		lines := strings.Split(strings.TrimSpace(RenderAccounts(tab.Snapshot(), c.win)), "\n")
		if f := strings.Fields(lines[len(lines)-1]); f[0] != "w" || f[len(f)-1] != c.want {
			t.Fatalf("row %q, want now MB/s %q", lines[len(lines)-1], c.want)
		}
	}
}

// TestWindowFoldChargesOtherOnlyTheWindow: when a newcomer folds the
// coldest accounts into other, other's next window holds what the
// victims did in that window (nothing here), not their whole history.
func TestWindowFoldChargesOtherOnlyTheWindow(t *testing.T) {
	reg := NewRegistry((&fakeClock{}).now)
	ring := NewWindowRing(reg)
	tab := reg.Accounts()
	for i := 0; i < maxAccounts-1; i++ {
		tab.Bytes(fmt.Sprintf("p%03d", i), 1<<20, 0)
	}
	ring.Advance()
	tab.Bytes("newcomer", 1, 0) // folds two: the first makes other
	win := ring.Advance()
	got := map[string]AccountStat{}
	for _, st := range win.Accounts {
		got[st.Principal] = st
	}
	other, ok := got[OtherPrincipal]
	if !ok {
		t.Fatalf("no fold happened: %+v", win.Accounts)
	}
	if other.BytesIn != 0 {
		t.Fatalf("other moved %d bytes in a window its victims were idle in", other.BytesIn)
	}
	if got["newcomer"].BytesIn != 1 {
		t.Fatalf("newcomer's window: %+v", got["newcomer"])
	}
	// Charges after the fold still reach other's next window.
	tab.Bytes(OtherPrincipal, 7, 0)
	next := ring.Advance().Accounts
	if i := slices.IndexFunc(next, func(st AccountStat) bool { return st.Principal == OtherPrincipal }); i < 0 || next[i].BytesIn != 7 {
		t.Fatalf("other's next window: %+v", next)
	}
}

func TestAccountTableNilSafe(t *testing.T) {
	var tab *AccountTable
	tab.Op("x", 1)
	tab.Bytes("x", 1, 1)
	tab.WAL("x", 1)
	tab.RPC("x", 1)
	tab.ServerOp("x")
	tab.LockWait("x", 1)
	tab.CacheMiss("x", 1)
	if tab.Snapshot() != nil || tab.marks() != nil || tab.Len() != 0 {
		t.Fatal("nil table must be inert")
	}
	var r *Registry
	if r.Accounts() != nil {
		t.Fatal("nil registry must hand out nil accounts")
	}
	r.SetAccounting(false)
}

func TestRegistryAccountingKnob(t *testing.T) {
	r := NewRegistry(nil)
	r.SetAccounting(false)
	if r.Accounts() != nil {
		t.Fatal("accounting off must hand out nil")
	}
	r.SetAccounting(true)
	a := r.Accounts()
	if a == nil || a != r.Accounts() {
		t.Fatal("Accounts must create once and reuse")
	}
	a.Bytes("tenant", 10, 0)
	snap := r.Snapshot()
	if len(snap.Accounts) != 1 || snap.Accounts[0].Principal != "tenant" {
		t.Fatalf("snapshot accounts: %+v", snap.Accounts)
	}
	if !strings.Contains(snap.Text(), "tenant") {
		t.Fatal("snapshot text missing principal table")
	}
}

func TestAccountTableConcurrent(t *testing.T) {
	reg := NewRegistry(nil)
	ring := NewWindowRing(reg)
	tab := reg.Accounts()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := fmt.Sprintf("p%d", w%3)
			for i := 0; i < 200; i++ {
				tab.Op(p, int64(i))
				tab.Bytes(p, 10, 5)
				tab.LockWait(p, 1)
				if i%50 == 0 {
					ring.Advance()
					tab.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, st := range tab.Snapshot() {
		total += st.BytesIn
	}
	if total != 8*200*10 {
		t.Fatalf("lost bytes under concurrency: %d", total)
	}
}
