package petal

import (
	"fmt"
	"testing"
	"time"

	"frangipani/internal/lockservice"
	"frangipani/internal/obs"
	"frangipani/internal/sim"
)

// refreshCase is one client that follows its service's global state
// through a paxos.Follower.
type refreshCase struct {
	name    string
	reg     *obs.Registry
	counter string // the follower's counters: <prefix>.%s#<machine>
	version func() int64
	refresh func(used int64) error
	bump    func() error // a command that moves the state's version
}

// TestIncrementalRefresh pins the version-aware refresh contract that
// keeps directory-state traffic off the O(N) path: refreshes for
// versions the cache already covers cost zero RPCs, probes against an
// unchanged server ship no state, and only a real version bump moves
// the client forward. Both clients of a replicated state keep it: the
// Petal client and the lock clerk.
func TestIncrementalRefresh(t *testing.T) {
	for _, tc := range []func(t *testing.T) refreshCase{petalRefreshCase, clerkRefreshCase} {
		rc := tc(t)
		t.Run(rc.name, func(t *testing.T) {
			count := func(name string) int64 { return rc.reg.Counter(fmt.Sprintf(rc.counter, name)).Value() }
			v := rc.version()
			if v <= 0 {
				t.Fatalf("no global state adopted after admin op (version %d)", v)
			}

			// A refresh demanded for a view the cache already supersedes must
			// short-circuit without touching the network.
			rpc0, skip0 := count("rpcs"), count("skipped")
			if err := rc.refresh(v - 1); err != nil {
				t.Fatal(err)
			}
			if got := count("rpcs"); got != rpc0 {
				t.Fatalf("satisfied-from-cache refresh issued %d RPCs", got-rpc0)
			}
			if got := count("skipped"); got != skip0+1 {
				t.Fatalf("refresh.skipped = %d, want %d", got, skip0+1)
			}

			// Demanding strictly newer than the cache forces a probe; no
			// admin op has run, so the server answers Unchanged and the
			// (potentially large at big N) state payload stays home.
			unch0, rpc1 := count("unchanged"), count("rpcs")
			if err := rc.refresh(v); err != nil {
				t.Fatal(err)
			}
			if got := count("rpcs"); got != rpc1+1 {
				t.Fatalf("probe issued %d RPCs, want 1", got-rpc1)
			}
			if got := count("unchanged"); got != unch0+1 {
				t.Fatalf("refresh.unchanged = %d, want %d", got, unch0+1)
			}
			if v2 := rc.version(); v2 != v {
				t.Fatalf("Unchanged probe moved the cached version %d -> %d", v, v2)
			}

			// A real version bump must propagate. Servers apply Paxos
			// decisions asynchronously, so poll: each refresh(v) probes
			// (the cache is not past v) until some server ships the new view.
			if err := rc.bump(); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(30 * time.Second)
			for rc.version() <= v {
				if time.Now().After(deadline) {
					t.Fatalf("version never advanced past %d after admin op", v)
				}
				if err := rc.refresh(v); err != nil {
					t.Fatal(err)
				}
				time.Sleep(2 * time.Millisecond)
			}
		})
	}
}

// petalRefreshCase is the Petal client's view of the directory; a vdisk
// created moves it.
func petalRefreshCase(t *testing.T) refreshCase {
	tc := newTestCluster(t, 3, nil)
	c := tc.client
	if err := c.CreateVDisk("v0"); err != nil {
		t.Fatal(err)
	}
	return refreshCase{
		name:    "petal client",
		reg:     tc.w.Obs,
		counter: "petal.refresh.%s#ws0",
		version: func() int64 { _, v := c.follow.View(); return v },
		refresh: c.follow.Refresh,
		bump:    func() error { return c.CreateVDisk("v1") },
	}
}

// clerkRefreshCase is the lock clerk's view of the shard map; another
// clerk's open moves it.
func clerkRefreshCase(t *testing.T) refreshCase {
	w := sim.NewWorld(200, 17)
	names := []string{"ls0", "ls1", "ls2"}
	cfg := lockservice.DefaultConfig()
	var servers []*lockservice.Server
	for _, n := range names {
		servers = append(servers, lockservice.NewServer(w, n, names, cfg))
	}
	var clerks []*lockservice.Clerk
	t.Cleanup(func() {
		for _, c := range clerks {
			c.Close()
		}
		for _, s := range servers {
			s.Close()
		}
		w.Stop()
	})
	open := func(machine string) (*lockservice.Clerk, error) {
		c := lockservice.NewClerk(w, machine, "fs", names, cfg)
		c.SetCallbacks(func(uint64, lockservice.Mode) {}, nil, nil)
		clerks = append(clerks, c)
		return c, c.Open()
	}
	c, err := open("ws1")
	if err != nil {
		t.Fatal(err)
	}
	f := c.Follower()
	return refreshCase{
		name:    "lock clerk",
		reg:     w.Obs,
		counter: "lockservice.refresh.%s#ws1",
		version: func() int64 { _, v := f.View(); return v },
		refresh: f.Refresh,
		bump:    func() error { _, err := open("ws2"); return err },
	}
}
