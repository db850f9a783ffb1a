package frangipani_test

import (
	"strings"
	"testing"
)

// TestSyncTraceCoversLayers checks the tentpole acceptance: a single
// Sync on a simulated cluster produces one trace whose spans cover
// the fs, wal, lockservice, and petal layers, and the renderer can
// print it.
func TestSyncTraceCoversLayers(t *testing.T) {
	c := newTestCluster(t)
	f, err := c.AddServer("ws1")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Mkdir("/t"); err != nil {
		t.Fatal(err)
	}
	h, err := f.OpenFile("/t/a", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(make([]byte, 64<<10), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	reg := c.Obs()
	if reg == nil {
		t.Fatal("cluster has no registry")
	}
	tr := reg.Tracer()
	spans := tr.SpansFor(tr.LastRoot())
	if len(spans) == 0 {
		t.Fatal("no spans recorded for last root trace")
	}
	layers := map[string]bool{}
	ids := map[uint64]bool{}
	for _, sp := range spans {
		layers[sp.Layer] = true
		ids[sp.ID] = true
	}
	for _, want := range []string{"fs", "wal", "lockservice", "petal"} {
		if !layers[want] {
			t.Errorf("Sync trace missing layer %q (got %v)", want, layers)
		}
	}
	// Every span's parent must be inside the same trace (0 for the root).
	for _, sp := range spans {
		if sp.Parent != 0 && !ids[sp.Parent] {
			t.Errorf("span %s.%s has dangling parent %d", sp.Layer, sp.Op, sp.Parent)
		}
	}
	out := tr.RenderTrace(tr.LastRoot())
	for _, want := range []string{"fs.sync", "wal.flush", "petal."} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered trace missing %q:\n%s", want, out)
		}
	}

	// The registry saw the op end-to-end: fs latency histogram and
	// petal write counters are non-empty.
	snap := reg.Snapshot()
	if h := snap.Histograms["fs.sync.latency#ws1"]; h.Count == 0 {
		t.Error("fs.sync.latency#ws1 histogram empty")
	}
	if snap.Counters["wal.flushes#ws1"] == 0 {
		t.Error("wal.flushes#ws1 counter zero")
	}
}

// TestTraceOverTCP runs the full stack — Petal servers, lock servers,
// and one Frangipani server — over real TCP sockets and checks that
// trace context propagates across the wire: the Sync span tree must
// include server-side petal spans, which can only appear if the
// envelope carried the trace and span IDs through the TCP codec.
func TestTraceOverTCP(t *testing.T) {
	s := newTCPStack(t, "t")
	w, f := s.w, s.mount(t, "tws1")

	if err := f.Mkdir("/t"); err != nil {
		t.Fatal(err)
	}
	h, err := f.OpenFile("/t/a", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(make([]byte, 32<<10), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	tr := w.Obs.Tracer()
	spans := tr.SpansFor(tr.LastRoot())
	layers := map[string]bool{}
	serverSide := false
	for _, sp := range spans {
		layers[sp.Layer] = true
		if sp.Layer == "petal" && strings.HasPrefix(sp.Op, "server.") {
			serverSide = true
		}
	}
	for _, want := range []string{"fs", "wal", "lockservice", "petal"} {
		if !layers[want] {
			t.Errorf("TCP Sync trace missing layer %q (got %v)", want, layers)
		}
	}
	if !serverSide {
		t.Error("no server-side petal span: trace context did not cross the TCP wire")
	}
}
