package frangipani_test

import (
	"testing"
	"time"

	"frangipani/internal/export"
)

// TestFigure3ExportFailover is what §2.2's Figure 3 promises: a remote
// client that speaks only the file-access protocol to trusted Frangipani
// machines keeps its files when the machine it talks to dies. ws1 and ws2
// each export the shared file system; the client, which lists ws1
// first, writes a file stably through ws1, ws1 crashes with its export
// daemon, and the client reads the same bytes back through ws2 once the
// lock service has expired ws1's lease and ws2 has replayed ws1's log.
func TestFigure3ExportFailover(t *testing.T) {
	c := newTestCluster(t)
	ws1, err := c.AddServer("ws1")
	if err != nil {
		t.Fatal(err)
	}
	ws2, err := c.AddServer("ws2")
	if err != nil {
		t.Fatal(err)
	}
	srv1, srv2 := export.NewServer(c.World, ws1), export.NewServer(c.World, ws2)
	defer srv2.Close()
	remote := export.NewClient(c.World, "laptop", []string{"ws1", "ws2"})
	defer remote.Close()

	want := []byte("acknowledged by ws1 before it died")
	if err := remote.Write("/fig3.txt", 0, want, true, true); err != nil {
		t.Fatal(err)
	}
	ws1.Crash()
	srv1.Close()

	// ws2 can serve the file once the lock service has expired ws1's
	// lease and ws2 has replayed ws1's log; its own lookup waits for
	// that. Waiting here, not through the client, keeps one request at
	// a time on ws2: a client call that timed out would leave its
	// handler running beside the retry.
	deadline := time.Now().Add(time.Minute)
	for _, err := ws2.Stat("/fig3.txt"); err != nil; _, err = ws2.Stat("/fig3.txt") {
		if time.Now().After(deadline) {
			t.Fatalf("ws2 cannot see the file after ws1 crashed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	got, _, err := remote.Read("/fig3.txt", 0, 64)
	if err != nil || string(got) != string(want) {
		t.Fatalf("read back %q, %v through ws2, want %q", got, err, want)
	}
}
