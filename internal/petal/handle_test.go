package petal

import (
	"strings"
	"testing"

	"frangipani/internal/obs"
)

// TestPrincipalReachesServer: a data call made through a For view runs
// for the operation the view names. The driver charges its RPCs to that
// operation's principal and stamps its requests; the servers charge the
// requests — the replica forwards too — to the same principal and hang
// their spans in the operation's trace. The same call on the driver's
// own view is nobody's: "unknown", and no spans.
func TestPrincipalReachesServer(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	d := tc.mustCreate(t, "vol")
	reg := tc.w.Obs
	account := func(p string) obs.AccountStat {
		for _, st := range reg.Accounts().Snapshot() {
			if st.Principal == p {
				return st
			}
		}
		return obs.AccountStat{}
	}
	serverRequests := func() (n int64) {
		for k, v := range reg.Snapshot().Counters {
			if strings.HasPrefix(k, "petal.server.requests#") {
				n += v
			}
		}
		return n
	}
	data := patternBuf(2*ChunkSize, 5)

	// Nobody's write first: commits the chunks and settles routing.
	if err := d.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if st := account("tenant-a"); st != (obs.AccountStat{}) {
		t.Fatalf("tenant-a charged before it did anything: %+v", st)
	}
	unknown0, reqs0, rpcs0 := account(obs.UnknownPrincipal), serverRequests(), tc.client.Stats()

	op := reg.Tracer().Start(reg.Journal("ws0"), "fs", "fsync")
	op.Principal = "tenant-a"
	view := tc.client.For(op)
	if err := view.WriteV("vol", []Extent{{Off: 0, Data: data}}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := view.ReadV("vol", []ReadExtent{{Off: 0, Dst: got}}); err != nil {
		t.Fatal(err)
	}
	if err := view.Decommit("vol", 4*ChunkSize, 2*ChunkSize); err != nil {
		t.Fatal(err)
	}
	trace, rootID := op.TraceID, op.ID // the span is not ours to read after Done
	op.Done()

	st, rpcs := account("tenant-a"), tc.client.Stats()
	if want := rpcs.WriteVRPCs - rpcs0.WriteVRPCs + rpcs.ReadVRPCs - rpcs0.ReadVRPCs; st.RPCs != want || want == 0 {
		t.Errorf("tenant-a charged %d RPCs, the driver issued %d", st.RPCs, want)
	}
	if want := serverRequests() - reqs0; st.ServerOps != want || want == 0 {
		t.Errorf("tenant-a charged %d server requests, the servers handled %d", st.ServerOps, want)
	}
	if u := account(obs.UnknownPrincipal); u.RPCs != unknown0.RPCs || u.ServerOps != unknown0.ServerOps {
		t.Errorf("tenant-a's calls leaked to unknown: %+v -> %+v", unknown0, u)
	}

	// One trace: client spans under the root, server spans under client
	// spans, a forward's server span under the primary's.
	spans := reg.Tracer().SpansFor(trace)
	byID := map[uint64]obs.Span{}
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	forwards := 0
	for _, sp := range spans {
		if sp.ID == rootID {
			continue
		}
		parent, ok := byID[sp.Parent]
		if !ok || sp.Principal != "tenant-a" {
			t.Errorf("petal.%s: parent %d in trace: %v, principal %q", sp.Op, sp.Parent, ok, sp.Principal)
		}
		if strings.HasPrefix(sp.Op, "server.") && strings.HasPrefix(parent.Op, "server.") {
			forwards++
		}
	}
	if forwards == 0 || len(spans) < 6 {
		t.Errorf("trace has %d spans, %d of them replica forwards:\n%s", len(spans), forwards, reg.Tracer().RenderTrace(trace))
	}
	if n := len(reg.Tracer().Roots(0)); n != 1 {
		t.Errorf("%d traces recorded, want the one operation's", n)
	}
}
