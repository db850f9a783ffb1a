package frangipani_test

import (
	"io"
	"strings"
	"testing"

	"frangipani/internal/obs"
)

// TestClusterHealthAndWindows drives a two-server workload and checks
// the live-health surface end to end: the probe verdict on a healthy
// cluster, windowed rates over the workload interval (what frangicli's
// watch renders), and the hot-lock table naming a real lock.
func TestClusterHealthAndWindows(t *testing.T) {
	c := newTestCluster(t)
	ring := c.Windows() // baseline before the workload
	ws1, err := c.AddServer("ws1")
	if err != nil {
		t.Fatal(err)
	}
	ws2, err := c.AddServer("ws2")
	if err != nil {
		t.Fatal(err)
	}
	if err := ws1.Mkdir("/h"); err != nil {
		t.Fatal(err)
	}
	h, err := ws1.OpenFile("/h/a", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(make([]byte, 16<<10), 0); err != nil {
		t.Fatal(err)
	}
	if err := ws1.Sync(); err != nil {
		t.Fatal(err)
	}
	// ws2 touches the same file so the inode lock moves between
	// servers and the contention table sees a revoke.
	h2, err := ws2.Open("/h/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.ReadAt(make([]byte, 16<<10), 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}

	rep := c.Health()
	if rep.Verdict != obs.StatusOK {
		t.Fatalf("healthy cluster verdict = %v:\n%s", rep.Verdict, rep.Text())
	}
	probes := map[string]bool{}
	for _, p := range rep.Probes {
		probes[p.Name] = true
	}
	for _, want := range []string{"lease/ws1", "wal/ws1", "cache/ws1", "lease/ws2"} {
		if !probes[want] {
			t.Fatalf("missing probe %q in %v", want, probes)
		}
	}
	found := false
	for name := range probes {
		if strings.HasPrefix(name, "petal/") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no petal probes in %v", probes)
	}

	win := ring.Advance()
	if win.Seconds() <= 0 {
		t.Fatal("window has zero simulated length")
	}
	if win.Rates["fs.ops.count#ws1"] <= 0 {
		t.Fatalf("windowed op rate is zero: %v", win.Rates)
	}
	if win.Text() == "" {
		t.Fatal("window renders empty")
	}

	// The hot-lock table must name locks via the fs decoder.
	top := c.Obs().HotLocks(5)
	if len(top) == 0 {
		t.Fatal("hot-lock table empty after contended workload")
	}
	named := false
	for _, st := range top {
		if strings.HasPrefix(st.Name, "inode/") || strings.HasPrefix(st.Name, "bitmap-seg/") ||
			strings.HasPrefix(st.Name, "log-slot/") {
			named = true
		}
	}
	if !named {
		t.Fatalf("no decoded lock names in %+v", top)
	}
}
