package fs

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"frangipani/internal/sim"
)

// What a cached 4 KB ReadAt allocates: nothing, with observability as
// shipped or in a NoObs world — the read takes one sticky lock and logs
// nothing, so it builds no transaction, orders its one lock on the stack
// and its closures stay there too (6 and 5 while they did not), and its root
// span comes from the pool and goes back to it (1 and 0 while it was a
// new object). Raise or lower the numbers only with a change that means
// to move them.
const (
	cachedReadAllocs      = 0
	cachedReadAllocsNoObs = 0
)

// TestObsHostOverhead is the host-time budget of observability on the
// path that has nothing else to wait for (the benchmark's cached_hot
// shape): a cache-hit ReadAt in a world as shipped against the same call
// in a NoObs world. Allocations are pinned as counts — the claim is
// structural, one span per operation and nothing per layer — and the
// time is bounded as a ratio, least of several rounds on both sides so a
// busy host does not decide it.
func TestObsHostOverhead(t *testing.T) {
	bare := sim.NewWorld(100, 99)
	bare.Obs = nil
	files := map[string]*File{
		"obs":   cachedFile(t),
		"noobs": cachedFileIn(t, newTestWorldIn(t, bare, DefaultLayout())),
	}
	buf := make([]byte, BlockSize)
	ns, allocs := map[string]float64{}, map[string]float64{}
	for round := 0; round < 8; round++ {
		for name, h := range files {
			i := 0
			read := func() {
				if _, err := h.ReadAt(buf, randomOffset(i)); err != nil && err != io.EOF {
					t.Fatal(err)
				}
				i++
			}
			// The worlds' demons allocate in the background and
			// AllocsPerRun counts the whole process: the least of the
			// rounds is ReadAt's own.
			if n := testing.AllocsPerRun(500, read); round == 0 || n < allocs[name] {
				allocs[name] = n
			}
			if raceBuild() {
				continue // the detector's own cost swamps the ratio
			}
			const calls = 2000
			start := time.Now()
			for k := 0; k < calls; k++ {
				read()
			}
			if d := float64(time.Since(start).Nanoseconds()) / calls; round == 0 || d < ns[name] {
				ns[name] = d
			}
		}
	}
	t.Logf("cached 4 KB ReadAt: %.0f ns, %v allocs as shipped; %.0f ns, %v allocs with NoObs (no times under -race)",
		ns["obs"], allocs["obs"], ns["noobs"], allocs["noobs"])
	if allocs["obs"] != cachedReadAllocs || allocs["noobs"] != cachedReadAllocsNoObs {
		t.Errorf("a cached read allocates %v times as shipped and %v with NoObs, want %d and %d",
			allocs["obs"], allocs["noobs"], cachedReadAllocs, cachedReadAllocsNoObs)
	}
	if ns["obs"] > 3*ns["noobs"] {
		t.Errorf("a cached read costs %.0f ns as shipped, %.0f ns with NoObs: observability more than triples it",
			ns["obs"], ns["noobs"])
	}
}

// TestNoStackWalks: nothing in the program finds out who it is working
// for by walking its own stack; the goroutine-keyed span and principal
// tables did, once per layer per call.
func TestNoStackWalks(t *testing.T) {
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err == nil && bytes.Contains(src, []byte("runtime.Stack")) {
				t.Errorf("%s references runtime.Stack", path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
