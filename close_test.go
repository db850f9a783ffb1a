package frangipani_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"frangipani"
)

// TestCloseEndsEveryWorker: a short two-server workload with revokes,
// write-behind flights and prefetches, then Cluster.Close, and the
// process runs no more goroutines than it did before NewCluster. Every
// worker a cluster starts — the clerks' revoke workers, the Petal client
// and servers' and the file servers' fan-out workers, the endpoints'
// handler workers, the network's delivery workers — belongs to an object
// whose Close (or, for the network, the world's Stop) ends it.
func TestCloseEndsEveryWorker(t *testing.T) {
	before := runtime.NumGoroutine()
	c, err := frangipani.NewCluster(frangipani.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	t.Cleanup(func() {
		if !closed {
			c.Close()
		}
	})
	workload(t, addServer(t, c, "ws1"), addServer(t, c, "ws2"))
	c.Close()
	closed = true

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines before NewCluster, %d after Close; the cluster's:\n%s",
			before, n, strings.Join(clusterGoroutines(), "\n\n"))
	}
}

// workload writes a file of several chunks on ws1 (write-behind
// flights), reads it sequentially on ws2 (prefetches, and the revoke of
// ws1's lock), overwrites it on ws1 and stats it on ws2 (revokes both
// ways).
func workload(t *testing.T, ws1, ws2 *frangipani.FS) {
	t.Helper()
	const size, rec = 512 << 10, 64 << 10
	w, err := ws1.OpenFile("/big", true)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < size; off += rec {
		if _, err := w.WriteAt(pattern(rec, byte(off/rec)), int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	r, err := ws2.Open("/big")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, rec)
	for off := 0; off < size; off += rec {
		if _, err := r.ReadAt(got, int64(off)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pattern(rec, byte(off/rec))) {
			t.Fatalf("ws2 reads other bytes at %d", off)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := w.WriteAt(pattern(4096, byte(i)), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := ws2.Stat("/big"); err != nil {
			t.Fatal(err)
		}
	}
}

// clusterGoroutines returns the stacks of the goroutines running this
// module's code.
func clusterGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "frangipani/internal/") || strings.Contains(g, "frangipani.") {
			out = append(out, g)
		}
	}
	return out
}
