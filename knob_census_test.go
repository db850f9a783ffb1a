package frangipani_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"frangipani"
	"frangipani/internal/fs"
	"frangipani/internal/lockservice"
	"frangipani/internal/obs"
	"frangipani/internal/petal"
)

// knobs names, for every field of the four configuration structs, the
// code outside the tests that moves it off its default — an experiment,
// the benchmark harness, an example — or, for the few fields only tests
// move, the test that needs it and why. A setting that nothing moves is
// a constant: TestKnobCensus fails for a field missing here, so a new
// knob arrives with the caller that turns it.
var knobs = map[string]string{
	"frangipani.ClusterConfig.PetalServers":   "bench.Options.newCluster: fig 5-7 (7 servers), scale-sweep",
	"frangipani.ClusterConfig.LockServers":    "scale-sweep (scalesweep.go)",
	"frangipani.ClusterConfig.DisksPerServer": "bench.Options.newCluster, fig7",
	"frangipani.ClusterConfig.DiskCapacity":   "bench.Options.newCluster, fig7 (2 GB disks)",
	"frangipani.ClusterConfig.NVRAM":          "benchmark/harness.go; bench.Options.newCluster(nvram)",
	"frangipani.ClusterConfig.Compression":    "benchmark/harness.go (1); bench.Options; examples/contention",
	"frangipani.ClusterConfig.Seed":           "benchmark/harness.go (--seed)",
	"frangipani.ClusterConfig.FSConfig":       "benchmark/harness.go (SyncEvery, DataCacheCap); scale-sweep (lease)",
	"frangipani.ClusterConfig.GuardWrites":    "benchmark/harness.go; bench.Options.newCluster",
	"frangipani.ClusterConfig.NoReplicate":    "fig7's replication-cost ablation (experiments.go)",
	"frangipani.ClusterConfig.NoObs":          "benchmark/harness.go (obs.cpu_overhead_pct)",
	"frangipani.ClusterConfig.NoAccounting":   "obs-overhead (bench/obs.go)",

	"fs.Config.SyncEvery":        "benchmark/harness.go; forensics-smoke; examples/failover",
	"fs.Config.SyncLog":          "ablation-synclog; forensics-smoke; examples/failover",
	"fs.Config.LeaseMargin":      "scale-sweep",
	"fs.Config.ReadAhead":        "fig8/fig9 (contentionFSConfig); scale-sweep; examples/contention",
	"fs.Config.FlushParallelism": "writeback-pipeline; obs-overhead",
	"fs.Config.DataCacheCap":     "benchmark/harness.go; scale-sweep",
	"fs.Config.CPUPerOp":         "test only: the host-time pins (read_bench_test.go, write_bench_test.go) zero the modelled CPU so no call sleeps",
	"fs.Config.CPUPerKB":         "test only: as CPUPerOp",
	"fs.Config.Lock":             "fig8/fig9 (RevokeRetry); scale-sweep (LeaseDuration); examples/contention",
	"fs.Config.Carrier":          "test only: tcp_test.go's tcpStack runs the clerk over TCP",

	"lockservice.Config.LeaseDuration":  "scale-sweep",
	"lockservice.Config.HeartbeatEvery": "lock-scaling; NewCluster hands it to Petal's detector",
	"lockservice.Config.SuspectAfter":   "lock-scaling; NewCluster hands it to Petal's detector",
	"lockservice.Config.RevokeRetry":    "lock-scaling; fig8/fig9; examples/contention",
	"lockservice.Config.SweepEvery":     "test only: TestLockServiceOverTCP's 5 s leases need a faster expiry sweep",
	"lockservice.Config.SyncTimeout":    "test only: TestLockServiceOverTCP runs on the wall clock and cannot wait 20 s",
	"lockservice.Config.IdleDiscard":    "test only: TestIdleLocksDiscarded cannot wait the hour of §6",
	"lockservice.Config.Shards":         "lock-scaling",
	"lockservice.Config.CPUPerMsg":      "lock-scaling",
	"lockservice.Config.CPUPerOp":       "lock-scaling",

	"petal.ServerConfig.NumDisks":       "NewCluster (DisksPerServer); benchmark/drives.go",
	"petal.ServerConfig.DiskParams":     "DefaultServerConfig(capacity): NewCluster (DiskCapacity); benchmark/drives.go",
	"petal.ServerConfig.NVRAM":          "NewCluster (NVRAM); benchmark/drives.go",
	"petal.ServerConfig.HeartbeatEvery": "NewCluster (the lock service's timing)",
	"petal.ServerConfig.SuspectAfter":   "NewCluster (the lock service's timing)",
	"petal.ServerConfig.WriteGuard":     "NewCluster (GuardWrites)",
	"petal.ServerConfig.NoReplicate":    "NewCluster (NoReplicate)",
}

// setters names every exported Set method of the types whose knobs the
// census counts: a runtime knob with the caller that turns it, or the
// wiring a constructor does through it.
var setters = map[string]string{
	"*petal.Client.SetReadBalance": "knob: fig7, read-scaling; NewCluster's clients under NoReplicate",
	"*obs.Registry.SetJournal":     "knob: obs-overhead",
	"*obs.Registry.SetAccounting":  "knob: NewCluster (NoAccounting)",
	"*petal.Client.SetLeaseInfo":   "wiring: fs.Mount stamps its Petal writes with its clerk's lease",
	"*obs.Registry.SetNamer":       "wiring: NewCluster's lock-name decoder",
}

// TestKnobCensus holds the four configuration structs and the setters
// to their tables: every field and every Set method is listed with what
// turns it, and every entry names something that exists.
func TestKnobCensus(t *testing.T) {
	var got []string
	for _, v := range []any{frangipani.ClusterConfig{}, fs.Config{}, lockservice.Config{}, petal.ServerConfig{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, typ.String()+"."+f.Name)
			}
		}
	}
	census(t, "field", got, knobs)

	got = nil
	for _, v := range []any{&fs.FS{}, &petal.Client{}, &obs.Registry{}, &obs.Tracer{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumMethod(); i++ {
			if m := typ.Method(i); strings.HasPrefix(m.Name, "Set") {
				got = append(got, typ.String()+"."+m.Name)
			}
		}
	}
	census(t, "setter", got, setters)

	knobSetters := 0
	for _, why := range setters {
		if strings.HasPrefix(why, "knob:") {
			knobSetters++
		}
	}
	t.Logf("%d configuration fields, %d knob setters", len(knobs), knobSetters)
}

// census fails for each name in got that table lacks, and for each
// table entry got lacks.
func census(t *testing.T, kind string, got []string, table map[string]string) {
	t.Helper()
	seen := make(map[string]bool, len(got))
	for _, name := range got {
		seen[name] = true
		if table[name] == "" {
			t.Errorf("%s %s is in no census entry: name what reaches it outside the tests, or the test that needs it", kind, name)
		}
	}
	var stale []string
	for name := range table {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("census entry %s names no %s", name, kind)
	}
}
