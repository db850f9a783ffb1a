package fs

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
)

// TestRandomOpsTwoServersAgainstModel drives TWO servers with an
// interleaved random operation stream, checking every result against
// a shared in-memory model under one mutex. Because the model is
// updated atomically with each operation's completion, any coherence
// violation — a server acting on stale metadata or data — shows up as
// a model divergence. This is the paper's §2.1 guarantee ("changes
// made to a file or directory on one machine are immediately visible
// on all others") tested mechanically. The root package's
// TestTwoServerModelOverTCP runs a copy of this operation loop over
// TCP: a change to one is made to both.
func TestRandomOpsTwoServersAgainstModel(t *testing.T) {
	tw := newTestWorld(t)
	servers := []*FS{tw.mount(t, "ws1", nil), tw.mount(t, "ws2", nil)}
	rng := rand.New(rand.NewSource(777))

	var mu sync.Mutex // serializes ops so the model stays exact
	files := map[string][]byte{}

	const ops = 160
	for i := 0; i < ops; i++ {
		f := servers[rng.Intn(len(servers))]
		mu.Lock()
		var names []string
		for p := range files {
			names = append(names, p)
		}
		op := rng.Intn(8)
		switch {
		case op < 2 || len(names) == 0: // create
			p := fmt.Sprintf("/x%03d", i)
			if _, ok := files[p]; !ok {
				if err := f.Create(p); err != nil {
					t.Fatalf("op %d create %s on %s: %v", i, p, f.Machine(), err)
				}
				files[p] = nil
			}
		case op < 5: // write
			p := names[rng.Intn(len(names))]
			h, err := f.Open(p)
			if err != nil {
				t.Fatalf("op %d open %s on %s: %v", i, p, f.Machine(), err)
			}
			off := rng.Int63n(32 << 10)
			data := make([]byte, rng.Intn(8<<10)+1)
			rng.Read(data)
			if _, err := h.WriteAt(data, off); err != nil {
				t.Fatalf("op %d write %s on %s: %v", i, p, f.Machine(), err)
			}
			cur := files[p]
			if int64(len(cur)) < off+int64(len(data)) {
				grown := make([]byte, off+int64(len(data)))
				copy(grown, cur)
				cur = grown
			}
			copy(cur[off:], data)
			files[p] = cur
		case op < 6: // remove
			p := names[rng.Intn(len(names))]
			if err := f.Remove(p); err != nil {
				t.Fatalf("op %d remove %s on %s: %v", i, p, f.Machine(), err)
			}
			delete(files, p)
		default: // verify from the OTHER server
			p := names[rng.Intn(len(names))]
			other := servers[rng.Intn(len(servers))]
			want := files[p]
			h, err := other.Open(p)
			if err != nil {
				t.Fatalf("op %d verify-open %s on %s: %v", i, p, other.Machine(), err)
			}
			got := make([]byte, len(want))
			if len(got) > 0 {
				if _, err := h.ReadAt(got, 0); err != nil && err != io.EOF {
					t.Fatalf("op %d verify-read %s on %s: %v", i, p, other.Machine(), err)
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: %s sees stale content for %s", i, other.Machine(), p)
			}
		}
		mu.Unlock()
	}

	// Every file verified from every server at the end.
	for p, want := range files {
		for _, f := range servers {
			h, err := f.Open(p)
			if err != nil {
				t.Fatalf("final open %s on %s: %v", p, f.Machine(), err)
			}
			got := make([]byte, len(want))
			if len(got) > 0 {
				if _, err := h.ReadAt(got, 0); err != nil && err != io.EOF {
					t.Fatalf("final read %s on %s: %v", p, f.Machine(), err)
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("final: %s sees stale content for %s", f.Machine(), p)
			}
		}
	}
	for _, f := range servers {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Check(tw.client("model2-check"), tw.vd, tw.lay)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		t.Errorf("fsck: %s %s", p.Kind, p.Msg)
	}
	if rep.Files != len(files) {
		t.Fatalf("fsck sees %d files, model has %d", rep.Files, len(files))
	}
}
