package obs

import (
	"fmt"
	"strings"
	"testing"
)

// The hot-lock ranking reads the clerks' records and nothing else: an
// acquire that waited, a revoke received. Other lockservice records —
// the wait that opens an acquire, a server's grant, an acquire span —
// are not contention.
func TestResourceTopKOrdering(t *testing.T) {
	reg := NewRegistry(nil)
	jr := reg.Journal("ws1")
	jr.Record("lockservice", "acquire", "ok", 1, 100, "")
	jr.Record("lockservice", "acquire", "ok", 2, 500, "")
	reg.Journal("ws2").Record("lockservice", "acquire", "fail", 2, 500, "lease lost")
	jr.Record("lockservice", "acquire", "ok", 3, 200, "")
	jr.Record("lockservice", "revoke", "recv", 3, 0, "")
	jr.Record("lockservice", "acquire", "wait", 1, 1e9, "")
	reg.Journal("lock0").Record("lockservice", "grant", "sent", 1, 1e9, "ws1")
	reg.Tracer().Start(jr, "lockservice", "acquire").Done()

	top := reg.HotLocks(2)
	if len(top) != 2 {
		t.Fatalf("HotLocks(2) returned %d entries", len(top))
	}
	if top[0].ID != 2 || top[0].WaitNs != 1000 || top[0].Acquires != 2 {
		t.Fatalf("hottest = %+v, want id 2", top[0])
	}
	if top[1].ID != 3 || top[1].Events != 1 {
		t.Fatalf("second = %+v, want id 3", top[1])
	}
	if all := reg.HotLocks(10); len(all) != 3 {
		t.Fatalf("HotLocks(10) = %+v, want the 3 locks", all)
	}
	if reg.HotLocks(0) != nil {
		t.Fatal("HotLocks(0) must return nil")
	}
}

func TestResourceNamerAndRender(t *testing.T) {
	reg := NewRegistry(nil)
	reg.SetNamer(func(layer string, id uint64) string { return fmt.Sprintf("%s inode/%d", layer, id) })
	reg.Journal("ws1").Record("lockservice", "acquire", "ok", 7, 3e6, "")
	top := reg.HotLocks(1)
	if top[0].Name != "lockservice inode/7" {
		t.Fatalf("name = %q", top[0].Name)
	}
	out := RenderResources("hot locks", top)
	for _, want := range []string{"hot locks", "inode/7", "3.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// The ranking is bounded by the rings: what a ring has overwritten is
// forgotten, and a busy ring's churn does not push out what a quieter
// ring still holds.
func TestResourceEvictionKeepsHot(t *testing.T) {
	reg := NewRegistry(nil)
	const hot = uint64(42)
	reg.Journal("ws1").Record("lockservice", "acquire", "ok", hot, 1e9, "")
	busy := reg.Journal("ws2")
	for id := uint64(1000); id < 1000+DefaultJournalCap+100; id++ {
		busy.Record("lockservice", "acquire", "ok", id, 1, "")
	}
	all := reg.HotLocks(1 << 13)
	if len(all) != 1+DefaultJournalCap {
		t.Fatalf("ranked %d locks, want the hot one and the busy ring's last %d", len(all), DefaultJournalCap)
	}
	if all[0].ID != hot {
		t.Fatalf("hot entry lost: top = %+v", all[0])
	}
}

func TestResourceNilAndClamp(t *testing.T) {
	var nilReg *Registry
	if nilReg.HotLocks(5) != nil {
		t.Fatal("nil registry must rank nothing")
	}
	nilReg.SetNamer(nil)
	reg := NewRegistry(nil)
	reg.Journal("ws1").Record("lockservice", "acquire", "ok", 1, -50, "") // negative wait clamps to zero
	if top := reg.HotLocks(1); top[0].WaitNs != 0 || top[0].Acquires != 1 {
		t.Fatalf("clamp failed: %+v", top[0])
	}
}
