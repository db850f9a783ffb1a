package frangipani_test

import (
	"strings"
	"testing"

	"frangipani/internal/fs"
	"frangipani/internal/obs"
)

// TestTenantServerOpsOverTCP runs the full stack over real TCP sockets
// and checks that a tenant's identity crosses the wire: what a write
// made through an As view costs the Petal servers is charged, on the
// servers' account table, to that tenant. Only the request header can
// have carried the name there — the envelope has no field for it and
// the servers share no goroutine with the caller.
func TestTenantServerOpsOverTCP(t *testing.T) {
	s := newTCPStack(t, "a")
	w, admin, f := s.w, s.admin, s.mount(t, "aws1")

	tenant := func() obs.AccountStat {
		for _, st := range w.Obs.Accounts().Snapshot() {
			if st.Principal == "tenant-tcp" {
				return st
			}
		}
		return obs.AccountStat{}
	}
	h, err := f.OpenFile("/a", true) // nobody's
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := tenant(); st.ServerOps != 0 || st.RPCs != 0 {
		t.Fatalf("tenant charged before it did anything: %+v", st)
	}
	th, err := f.As("tenant-tcp").Open("/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := th.WriteAt(make([]byte, 32<<10), 0); err != nil {
		t.Fatal(err)
	}
	if err := th.Sync(); err != nil {
		t.Fatal(err)
	}
	st := tenant()
	if st.BytesIn != 32<<10 || st.RPCs == 0 || st.ServerOps < st.RPCs {
		t.Fatalf("tenant's write over TCP: %d B in, %d RPCs, %d server requests charged (every RPC is at least one)",
			st.BytesIn, st.RPCs, st.ServerOps)
	}
	// The server spans of the tenant's fsync carry its name too.
	tr := w.Obs.Tracer()
	named := 0
	for _, sp := range tr.SpansFor(tr.LastRoot()) {
		if sp.Layer == "petal" && strings.HasPrefix(sp.Op, "server.") && sp.Principal == "tenant-tcp" {
			named++
		}
	}
	if named == 0 {
		t.Errorf("no server-side span runs for the tenant:\n%s", tr.RenderTrace(tr.LastRoot()))
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if rep, err := fs.Check(admin, s.vd, s.lay); err != nil || !rep.OK() {
		t.Fatalf("fsck: %v %+v", err, rep)
	}
}
