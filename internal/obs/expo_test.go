package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

func expoRegistry() *Registry {
	reg := NewRegistry((&fakeClock{}).now)
	reg.Counter("fs.ops.count#ws1").Inc()
	reg.Counter("fs.ops.count#ws2").Add(3)
	reg.Gauge("petal.server.inflight#petal0").Set(2)
	h := reg.Histogram("fs.sync.latency#ws1")
	for i := 0; i < 20; i++ {
		h.Record(int64(i+1) * 1e6)
	}
	reg.SetNamer(func(_ string, id uint64) string { return fmt.Sprintf("inode/%d", id) })
	jr := reg.Journal("ws1")
	jr.Record("lockservice", "acquire", "ok", 7, 5e6, "")
	jr.Record("lockservice", "revoke", "recv", 7, 0, "")
	return reg
}

var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})? -?[0-9]+$`)

// TestPrometheusParses validates the exposition text line by line:
// every sample line is well formed, every family has exactly one TYPE
// header, and all of a family's samples sit contiguously under it —
// the grouping the format requires.
func TestPrometheusParses(t *testing.T) {
	out := expoRegistry().Snapshot().Prometheus()
	if out == "" {
		t.Fatal("empty exposition")
	}
	seenType := map[string]bool{}
	family := ""
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			fam, typ := parts[2], parts[3]
			if seenType[fam] {
				t.Fatalf("family %s has two TYPE lines", fam)
			}
			seenType[fam] = true
			switch typ {
			case "counter", "gauge", "summary":
			default:
				t.Fatalf("unknown type %q in %q", typ, line)
			}
			family = fam
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Fatalf("malformed sample line %q", line)
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		if family == "" || !strings.HasPrefix(name, family) {
			t.Fatalf("sample %q not grouped under its family (current %q)", line, family)
		}
	}
	for _, want := range []string{
		"# TYPE frangipani_fs_ops_count_total counter",
		`frangipani_fs_ops_count_total{instance="ws2"} 3`,
		"# TYPE frangipani_fs_sync_latency_ns summary",
		`quantile="0.99"`,
		"frangipani_fs_sync_latency_ns_count",
		`frangipani_resource_wait_ns{table="lockservice.locks",resource="inode/7"} 5000000`,
		`frangipani_resource_events{table="lockservice.locks",resource="inode/7"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestPrometheusPrincipalSeries is the golden test for the labeled
// per-principal rollups: exact lines, one family per resource kind,
// principal as the label, escaping applied.
func TestPrometheusPrincipalSeries(t *testing.T) {
	reg := NewRegistry((&fakeClock{}).now)
	acc := reg.Accounts()
	acc.Op("tenant-a", 2e6)
	acc.Bytes("tenant-a", 1048576, 4096)
	acc.WAL("tenant-a", 512)
	acc.RPC("tenant-a", 7)
	acc.ServerOp("tenant-a")
	acc.LockWait("tenant-a", 3e6)
	acc.CacheMiss("tenant-a", 2)
	acc.Bytes("", 100, 0) // unbound work: visible as "unknown"
	acc.Bytes(`quo"te`, 10, 0)

	out := reg.Snapshot().Prometheus()
	for _, want := range []string{
		"# TYPE frangipani_principal_ops_total counter",
		`frangipani_principal_ops_total{principal="tenant-a"} 1`,
		`frangipani_principal_bytes_in_total{principal="tenant-a"} 1048576`,
		`frangipani_principal_bytes_out_total{principal="tenant-a"} 4096`,
		`frangipani_principal_wal_bytes_total{principal="tenant-a"} 512`,
		`frangipani_principal_rpcs_total{principal="tenant-a"} 7`,
		`frangipani_principal_server_ops_total{principal="tenant-a"} 1`,
		`frangipani_principal_lock_wait_ns_total{principal="tenant-a"} 3000000`,
		`frangipani_principal_cache_misses_total{principal="tenant-a"} 2`,
		"# TYPE frangipani_principal_op_p99_ns gauge",
		`frangipani_principal_bytes_in_total{principal="unknown"} 100`,
		`frangipani_principal_bytes_in_total{principal="quo\"te"} 10`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The generic well-formedness walk must still pass with principal
	// series present: each family one TYPE line, samples contiguous.
	seenType := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fam := strings.Fields(line)[2]
			if seenType[fam] {
				t.Fatalf("family %s has two TYPE lines", fam)
			}
			seenType[fam] = true
		}
	}
}

func TestPromNameMangling(t *testing.T) {
	fam, inst := promName("fs.sync.latency#ws1")
	if fam != "frangipani_fs_sync_latency" || inst != "ws1" {
		t.Fatalf("got %q, %q", fam, inst)
	}
	fam, inst = promName("plain")
	if fam != "frangipani_plain" || inst != "" {
		t.Fatalf("got %q, %q", fam, inst)
	}
	if got := promEscape("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Fatalf("escape = %q", got)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	reg := expoRegistry()
	verdict := StatusOK
	srv := httptest.NewServer(Handler(reg, func() HealthReport {
		return HealthReport{Verdict: verdict, Probes: []ProbeResult{{Name: "p", Status: verdict}}}
	}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content-type = %q", ct)
	}
	var buf [1 << 16]byte
	n, _ := resp.Body.Read(buf[:])
	resp.Body.Close()
	if !strings.Contains(string(buf[:n]), "frangipani_fs_ops_count_total") {
		t.Fatal("metrics body missing counter family")
	}

	resp, err = http.Get(srv.URL + "/snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("snapshot.json does not decode: %v", err)
	}
	resp.Body.Close()
	if snap.Counters["fs.ops.count#ws2"] != 3 {
		t.Fatalf("snapshot counters = %+v", snap.Counters)
	}

	resp, err = http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/health ok verdict returned %d", resp.StatusCode)
	}
	verdict = StatusCrit
	resp, err = http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	var rep HealthReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || rep.Verdict != StatusCrit {
		t.Fatalf("/health crit: code %d, report %+v", resp.StatusCode, rep)
	}
}

func TestServeLifecycle(t *testing.T) {
	reg := expoRegistry()
	ms, err := Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + ms.Addr() + "/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nil health func must report ok, got %d", resp.StatusCode)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + ms.Addr() + "/health"); err == nil {
		t.Fatal("server still serving after Close")
	}
}
