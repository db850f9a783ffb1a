package frangipani_test

import (
	"strings"
	"testing"
	"time"

	"frangipani/internal/fs"
	"frangipani/internal/lockservice"
	"frangipani/internal/obs"
	"frangipani/internal/petal"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// TestTenantServerOpsOverTCP runs the full stack over real TCP sockets
// and checks that a tenant's identity crosses the wire: what a write
// made through an As view costs the Petal servers is charged, on the
// servers' account table, to that tenant. Only the request header can
// have carried the name there — the envelope has no field for it and
// the servers share no goroutine with the caller.
func TestTenantServerOpsOverTCP(t *testing.T) {
	carrier := rpc.NewTCPCarrier()
	defer carrier.Close()
	w := sim.NewWorld(1, 11) // real time: TCP is real
	defer w.Stop()

	pcfg := petal.DefaultServerConfig(256 << 20)
	pcfg.NumDisks = 2
	petalNames := []string{"ap0", "ap1", "ap2"}
	for _, n := range petalNames {
		defer petal.NewServerWithCarrier(w, n, petalNames, pcfg, carrier).Close()
	}
	lcfg := lockservice.DefaultConfig()
	lcfg.HeartbeatEvery = 200 * time.Millisecond
	lcfg.SuspectAfter = 2 * time.Second
	lockNames := []string{"al0", "al1", "al2"}
	for _, n := range lockNames {
		defer lockservice.NewServerWithCarrier(w, n, lockNames, lcfg, carrier).Close()
	}
	admin := petal.NewClientWithCarrier(w, "aadmin", petalNames, carrier)
	defer admin.Close()
	if err := admin.CreateVDisk("acctfs"); err != nil {
		t.Fatal(err)
	}
	lay := fs.DefaultLayout()
	if err := fs.Mkfs(admin, "acctfs", lay); err != nil {
		t.Fatal(err)
	}
	fcfg := fs.DefaultConfig()
	fcfg.Lock = lcfg
	fcfg.Carrier = carrier
	pc := petal.NewClientWithCarrier(w, "aws1", petalNames, carrier)
	defer pc.Close()
	f, err := fs.Mount(w, "aws1", pc, "acctfs", lockNames, lay, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Unmount()

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
	if rep, err := fs.Check(admin, "acctfs", lay); err != nil || !rep.OK() {
		t.Fatalf("fsck: %v %+v", err, rep)
	}
}
