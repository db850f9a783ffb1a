package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func goldenRegistry() *Registry {
	reg := NewRegistry((&fakeClock{}).now)
	// Insert deliberately out of order: rendering must sort.
	reg.Counter("b.ops#w").Add(2)
	reg.Counter("a.ops#w").Inc()
	reg.Gauge("g.depth#w").Set(3)
	reg.Histogram("z.lat#w").Record(0)
	reg.Histogram("z.lat#w").Record(0)
	reg.SetNamer(func(_ string, id uint64) string { return fmt.Sprintf("inode/%d", id) })
	jr := reg.Journal("ws1")
	jr.Record("lockservice", "acquire", "ok", 3, 1e6, "")
	jr.Record("lockservice", "acquire", "ok", 7, 2e6, "")
	return reg
}

// The golden shape of Snapshot.Text(): sections in a fixed order,
// names sorted within each section, resources by heat — and the whole
// rendering byte-identical across calls (no map-iteration jitter).
func TestSnapshotTextGolden(t *testing.T) {
	snap := goldenRegistry().Snapshot()
	out := snap.Text()
	want := []string{
		"counters:",
		"a.ops#w",
		"b.ops#w",
		"gauges:",
		"g.depth#w",
		"histograms (ms):",
		"z.lat#w",
		"hot resources (lockservice.locks):",
		"inode/7", // hotter first
		"inode/3",
	}
	pos := -1
	for _, s := range want {
		i := strings.Index(out, s)
		if i < 0 {
			t.Fatalf("text missing %q:\n%s", s, out)
		}
		if i <= pos {
			t.Fatalf("%q out of order:\n%s", s, out)
		}
		pos = i
	}
	for i := 0; i < 5; i++ {
		if again := snap.Text(); again != out {
			t.Fatal("Text() is not deterministic across calls")
		}
	}
}

func TestSnapshotJSONGolden(t *testing.T) {
	snap := goldenRegistry().Snapshot()
	out := snap.JSON()
	for i := 0; i < 5; i++ {
		if again := snap.JSON(); again != out {
			t.Fatal("JSON() is not deterministic across calls")
		}
	}
	var back Snapshot
	if err := json.Unmarshal([]byte(out), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counters["a.ops#w"] != 1 || back.Counters["b.ops#w"] != 2 {
		t.Fatalf("counters lost: %+v", back.Counters)
	}
	if back.Histograms["z.lat#w"].Count != 2 {
		t.Fatalf("histograms lost: %+v", back.Histograms)
	}
	rs := back.Resources["lockservice.locks"]
	if len(rs) != 2 || rs[0].Name != "inode/7" || rs[0].WaitNs != 2e6 {
		t.Fatalf("resources lost or reordered: %+v", rs)
	}
	// Keys inside each JSON object are sorted (encoding/json maps).
	if strings.Index(out, `"a.ops#w"`) > strings.Index(out, `"b.ops#w"`) {
		t.Fatal("JSON counter keys not sorted")
	}
}
