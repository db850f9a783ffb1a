package frangipani_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"frangipani"
	"frangipani/internal/bench"
)

// TestKnobCensus's rule one level up: a package, an experiment or a
// Cluster method stays only while something outside the tests reaches
// it, or while a paper section and the test that checks it keep it.

// unimported names each internal package that no non-test code imports,
// with the paper section and the root test that keep it.
var unimported = map[string]string{
	"internal/export": "§2.2, Figure 3: TestFigure3ExportFailover",
}

// experiments names, for every entry of bench.Experiments, the
// EXPERIMENTS.md section it reproduces or the Makefile gate that runs it.
var experiments = map[string]string{
	"table1":             "EXPERIMENTS.md: Table 1 — Modified Andrew Benchmark latency",
	"table2":             "EXPERIMENTS.md: Table 2 — Connectathon-style operation suite",
	"table3":             "EXPERIMENTS.md: Table 3 — Large-file throughput and CPU utilization",
	"fig5":               "EXPERIMENTS.md: Figure 5 — MAB latency vs. machines",
	"fig6":               "EXPERIMENTS.md: Figure 6 — Uncached read scaling",
	"fig7":               "EXPERIMENTS.md: Figure 7 — Write scaling (and the replication ablation)",
	"fig7-norepl":        "EXPERIMENTS.md: Figure 7 — Write scaling (and the replication ablation)",
	"fig8":               "EXPERIMENTS.md: Figure 8 — Reader/writer contention and read-ahead",
	"fig9":               "EXPERIMENTS.md: Figure 9 — Contention vs. shared-region size",
	"wshare":             "EXPERIMENTS.md: Write/write sharing (third §9.4 experiment)",
	"smallreads":         "EXPERIMENTS.md: §9.2 small-file reads",
	"ablation-synclog":   "EXPERIMENTS.md: Ablation — synchronous logging (§4's option)",
	"writeback-pipeline": "EXPERIMENTS.md: Write-back pipeline (beyond the paper's tables)",
	"read-scaling":       "make bench-smoke",
	"obs-overhead":       "make bench-smoke",
	"contention-profile": "make bench-smoke",
	"lock-scaling":       "make bench-smoke",
	"scale-sweep":        "make bench-smoke",
	"forensics-smoke":    "make bench-smoke",
	"noisy-neighbor-obs": "make bench-smoke",
}

// clusterMethods names, for every exported method of *Cluster, a
// non-test file that calls it, or the paper section and the root test
// that keep it.
var clusterMethods = map[string]string{
	"Accounts":            "cmd/frangicli/main.go",
	"AddServer":           "cmd/frangicli/main.go, benchmark/harness.go",
	"AddServerWithConfig": "examples/failover/main.go",
	"Anomalies":           "cmd/frangicli/main.go",
	"Client":              "cmd/frangick/main.go",
	"Close":               "cmd/frangibench/main.go, benchmark/harness.go",
	"EntityNamer":         "cmd/frangicli/main.go",
	"Forensics":           "internal/bench/forensics.go, cmd/frangicli/main.go",
	"Fsck":                "cmd/frangick/main.go, benchmark/harness.go",
	"Health":              "cmd/frangicli/main.go",
	"Layout":              "cmd/frangick/main.go",
	"LockServerNames":     "examples/backup/main.go",
	"LockShardFor":        "cmd/frangicli/main.go",
	"LockShardMap":        "cmd/frangicli/main.go",
	"NowNs":               "cmd/frangicli/main.go",
	"Obs":                 "cmd/frangibench/main.go, benchmark/main.go",
	"PetalServerNames":    "internal/bench/readpath.go",
	"RemoveServer":        "§7, removing a server: TestClusterLifecycle",
	"Timeline":            "cmd/frangicli/main.go",
	"Windows":             "cmd/frangicli/main.go",
}

// exported names, for every exported function of internal/rpc,
// internal/obs, internal/cache, internal/petal, internal/paxos,
// internal/wal, internal/lockservice, internal/localfs, internal/fs,
// internal/workload and internal/sim and every
// exported method of their exported types, a non-test file that calls
// it, or the test that needs it (sim's fault injection and seeded
// randomness: the test that checks it, until ROADMAP item 2's fault
// schedules call it). A method called through an interface
// names the file that makes the interface call, and a String method
// that only fmt calls the test that formats its type.
var exported = map[string]string{
	"rpc.AppendMessage":            "TestCodecGoldenRequests",
	"rpc.AppendMessageHeader":      "internal/rpc/tcp.go",
	"rpc.DecodeMessage":            "internal/rpc/tcp.go",
	"rpc.Endpoint.Call":            "internal/lockservice/clerk.go, benchmark/drives.go",
	"rpc.Endpoint.Cast":            "internal/lockservice/clerk.go",
	"rpc.Endpoint.Close":           "internal/lockservice/server.go, benchmark/drives.go",
	"rpc.Endpoint.Go":              "internal/petal/client.go",
	"rpc.NewEndpoint":              "internal/lockservice/server.go, benchmark/drives.go",
	"rpc.NewRecvBuf":               "internal/rpc/tcp.go",
	"rpc.RecvBuf.Hold":             "internal/petal/server.go",
	"rpc.NewTCPCarrier":            "benchmark/drives.go",
	"rpc.Pending.Wait":             "internal/petal/client.go",
	"rpc.RecvBuf.Release":          "internal/petal/wire.go",
	"rpc.Register":                 "internal/paxos/paxos.go",
	"rpc.Release":                  "internal/petal/server.go, benchmark/drives.go",
	"rpc.SimCarrier.Register":      "internal/rpc/rpc.go",
	"rpc.SimCarrier.Send":          "internal/rpc/rpc.go",
	"rpc.SimCarrier.Unregister":    "internal/rpc/rpc.go",
	"rpc.TCPCarrier.Close":         "benchmark/drives.go",
	"rpc.TCPCarrier.Register":      "internal/rpc/rpc.go",
	"rpc.TCPCarrier.Send":          "internal/rpc/rpc.go",
	"rpc.TCPCarrier.SetAddr":       "TestTCPUnknownHost",
	"rpc.TCPCarrier.Unregister":    "internal/rpc/rpc.go",
	"obs.AccountStat.Bytes":        "internal/bench/accounting.go",
	"obs.AccountTable.Bytes":       "internal/fs/fs.go",
	"obs.AccountTable.CacheMiss":   "internal/fs/fs.go",
	"obs.AccountTable.Len":         "TestAccountTableFoldsColdest",
	"obs.AccountTable.LockWait":    "internal/fs/fs.go",
	"obs.AccountTable.Op":          "internal/fs/fs.go",
	"obs.AccountTable.RPC":         "internal/petal/client.go",
	"obs.AccountTable.ServerOp":    "internal/petal/server.go",
	"obs.AccountTable.Snapshot":    "internal/bench/accounting.go",
	"obs.AccountTable.WAL":         "internal/fs/fs.go",
	"obs.AnomalyWatcher.Observe":   "cmd/frangicli/main.go",
	"obs.BucketBounds":             "internal/obs/window.go",
	"obs.Counter.Add":              "internal/fs/fs.go",
	"obs.Counter.Inc":              "internal/cache/cache.go",
	"obs.Counter.Value":            "examples/failover/main.go",
	"obs.CritPath.AddTrace":        "internal/obs/critpath.go",
	"obs.CritPath.AddTracer":       "cmd/frangibench/main.go, benchmark/layers.go",
	"obs.CritPath.Count":           "cmd/frangibench/main.go",
	"obs.CritPath.Coverage":        "cmd/frangibench/main.go, benchmark/layers.go",
	"obs.CritPath.MeanNs":          "cmd/frangibench/main.go",
	"obs.CritPath.Profile":         "cmd/frangibench/main.go, benchmark/layers.go",
	"obs.CritPath.Report":          "cmd/frangicli/main.go",
	"obs.CritPath.RootOps":         "cmd/frangibench/main.go",
	"obs.ForensicsDump.JSON":       "cmd/frangicli/main.go",
	"obs.Gauge.Add":                "internal/petal/client.go",
	"obs.Gauge.Set":                "internal/lockservice/server.go",
	"obs.Gauge.SetMax":             "internal/wal/wal.go",
	"obs.Gauge.Value":              "internal/obs/snapshot.go",
	"obs.HealthReport.Text":        "cmd/frangicli/main.go",
	"obs.Histogram.Count":          "internal/obs/snapshot.go",
	"obs.Histogram.Max":            "internal/obs/snapshot.go",
	"obs.Histogram.Quantile":       "internal/obs/snapshot.go",
	"obs.Histogram.Record":         "internal/lockservice/clerk.go",
	"obs.Histogram.Sum":            "internal/obs/snapshot.go",
	"obs.Journal.Events":           "internal/obs/forensics.go",
	"obs.Journal.Len":              "internal/obs/journal.go",
	"obs.Journal.Record":           "cluster.go",
	"obs.Journal.Seq":              "TestJournalSkipsStickyHits",
	"obs.Journal.Server":           "cluster.go",
	"obs.MergeTimeline":            "cluster.go",
	"obs.NewAccountTable":          "internal/obs/obs.go",
	"obs.NewAnomalyWatcher":        "cluster.go",
	"obs.NewCounter":               "internal/cache/cache.go",
	"obs.NewCritPath":              "cmd/frangibench/main.go",
	"obs.NewGauge":                 "internal/petal/client.go",
	"obs.NewHealthReport":          "cluster.go",
	"obs.NewHistogram":             "internal/obs/principal.go",
	"obs.NewJournal":               "internal/obs/journal.go",
	"obs.NewRegistry":              "internal/sim/world.go",
	"obs.NewWindowRing":            "cluster.go",
	"obs.ProbeStatus.MarshalJSON":  "TestProbeStatusJSON",
	"obs.ProbeStatus.String":       "internal/obs/health.go",
	"obs.Registry.Accounts":        "cluster.go",
	"obs.Registry.Counter":         "internal/bench/forensics.go",
	"obs.Registry.Gauge":           "internal/lockservice/server.go",
	"obs.Registry.Histogram":       "internal/lockservice/clerk.go",
	"obs.Registry.HotLocks":        "cmd/frangicli/main.go",
	"obs.Registry.Journal":         "cluster.go",
	"obs.Registry.Journals":        "cluster.go",
	"obs.Registry.Now":             "internal/lockservice/clerk.go",
	"obs.Registry.SetAccounting":   "cluster.go",
	"obs.Registry.SetJournal":      "internal/bench/obs.go",
	"obs.Registry.SetNamer":        "cluster.go",
	"obs.Registry.Snapshot":        "cmd/frangibench/main.go",
	"obs.Registry.Tracer":          "cmd/frangibench/main.go",
	"obs.RenderAccounts":           "cmd/frangicli/main.go",
	"obs.RenderResources":          "cmd/frangicli/main.go",
	"obs.RenderTimeline":           "cmd/frangicli/main.go",
	"obs.Snapshot.JSON":            "cmd/frangibench/main.go",
	"obs.Snapshot.Text":            "cmd/frangicli/main.go",
	"obs.Span.Child":               "internal/petal/client.go",
	"obs.Span.Ctx":                 "internal/fs/fs.go",
	"obs.Span.Done":                "internal/petal/client.go",
	"obs.Tracer.LastRoot":          "cmd/frangibench/main.go",
	"obs.Tracer.Remote":            "internal/petal/server.go",
	"obs.Tracer.RenderTrace":       "cmd/frangicli/main.go",
	"obs.Tracer.Roots":             "TestSyncFanOutStaysInTrace, TestPrincipalReachesServer",
	"obs.Tracer.SpansFor":          "cmd/frangicli/main.go",
	"obs.Tracer.Start":             "internal/fs/fs.go",
	"obs.Window.Seconds":           "cmd/frangicli/main.go",
	"obs.Window.Text":              "cmd/frangicli/main.go",
	"obs.WindowRing.Advance":       "internal/bench/accounting.go",
	"cache.NewPool":                "internal/fs/fs.go, benchmark/drives.go",
	"cache.Pool.AllDirty":          "internal/fs/fs.go",
	"cache.Pool.BlockSize":         "internal/fs/fs.go",
	"cache.Pool.Capacity":          "internal/fs/fs.go",
	"cache.Pool.Contains":          "internal/fs/gate.go",
	"cache.Pool.CopyOut":           "internal/fs/file.go",
	"cache.Pool.DirtyByOwner":      "internal/fs/fs.go",
	"cache.Pool.DirtyThrough":      "internal/fs/fs.go",
	"cache.Pool.Fill":              "internal/fs/fs.go",
	"cache.Pool.HasDirty":          "internal/fs/fs.go",
	"cache.Pool.Insert":            "internal/fs/file.go, benchmark/drives.go",
	"cache.Pool.Invalidate":        "internal/fs/file.go",
	"cache.Pool.InvalidateAll":     "internal/fs/fs.go",
	"cache.Pool.InvalidateByOwner": "internal/fs/ops.go",
	"cache.Pool.Len":               "TestLRUOrderAgainstModel",
	"cache.Pool.Lookup":            "internal/fs/file.go, benchmark/drives.go",
	"cache.Pool.MarkCleanIfBatch":  "internal/fs/fs.go",
	"cache.Pool.MarkDirty":         "internal/fs/file.go",
	"cache.Pool.MarkDirtyJoint":    "internal/fs/fs.go",
	"cache.Pool.MaxSeq":            "internal/fs/fs.go",
	"cache.Pool.Newer":             "internal/fs/fs.go",
	"cache.Pool.Own":               "internal/fs/ops.go",
	"cache.Pool.Mutate":            "internal/fs/file.go",
	"cache.Pool.Peek":              "internal/fs/file.go",
	"cache.Pool.Pin":               "internal/fs/gate.go",
	"cache.Pool.Pinned":            "TestPinnedEntriesAreNeverReused",
	"cache.Pool.SetFlusher":        "internal/fs/fs.go",
	"cache.Pool.SetObs":            "internal/fs/fs.go",
	"cache.Pool.SnapshotBatch":     "internal/fs/fs.go",
	"cache.Pool.Unpin":             "internal/fs/file.go, internal/fs/fs.go",
	"cache.Pool.UnpinBehind":       "internal/fs/file.go",
	"cache.Pool.Usage":             "internal/fs/fs.go",

	"petal.Client.Close":          "cluster.go, benchmark/drives.go",
	"petal.Client.CreateVDisk":    "cluster.go, benchmark/drives.go",
	"petal.Client.Decommit":       "internal/fs/file.go",
	"petal.Client.DeleteVDisk":    "TestVDiskErrors",
	"petal.Client.For":            "internal/fs/file.go",
	"petal.Client.ListChunks":     "internal/fs/backup.go",
	"petal.Client.Overlapped":     "internal/fs/fs.go",
	"petal.Client.Read":           "internal/fs/backup.go, cmd/frangick/main.go",
	"petal.Client.ReadV":          "internal/fs/fs.go, benchmark/drives.go",
	"petal.Client.SetLeaseInfo":   "internal/fs/fs.go",
	"petal.Client.SetReadBalance": "cluster.go, internal/bench/readpath.go",
	"petal.Client.Snapshot":       "cluster.go",
	"petal.Client.State":          "internal/bench/readpath.go",
	"petal.Client.Stats":          "internal/fs/fs.go",
	"petal.Client.Write":          "internal/fs/backup.go, cmd/frangick/main.go",
	"petal.Client.WriteV":         "internal/fs/fs.go, benchmark/drives.go",
	"petal.ClientAddr":            "benchmark/layers.go",
	"petal.DataAddr":              "internal/petal/client.go, benchmark/layers.go",
	"petal.DefaultServerConfig":   "cluster.go, benchmark/drives.go",
	"petal.GlobalState.Apply":     "internal/petal/server.go",
	"petal.GlobalState.Clone":     "internal/petal/server.go",
	"petal.GlobalState.Replicas":  "internal/petal/plan.go, internal/bench/readpath.go",
	"petal.NewClient":             "cluster.go, benchmark/drives.go",
	"petal.NewClientWithCarrier":  "internal/petal/client.go",
	"petal.NewGlobalState":        "internal/petal/server.go",
	"petal.NewServer":             "cluster.go, benchmark/drives.go",
	"petal.NewServerWithCarrier":  "internal/petal/server.go",
	"petal.PushChunkReq.WireSize": "internal/rpc/rpc.go",
	"petal.ReadVResp.HoldWire":    "internal/rpc/codec.go",
	"petal.ReadVResp.ReleaseWire": "internal/rpc/codec.go",
	"petal.ReadVResp.WireSize":    "internal/rpc/rpc.go",
	"petal.Server.Close":          "cluster.go, benchmark/drives.go",
	"petal.Server.CommittedBytes": "TestSparseCommitAccounting, TestDecommitFreesSpace",
	"petal.Server.Crash":          "examples/failover/main.go",
	"petal.Server.DebugReadChunk": "TestPartedWriteFailsOver",
	"petal.Server.Disks":          "benchmark/layers.go",
	"petal.Server.MissedBacklog":  "cluster.go",
	"petal.Server.Name":           "cluster.go",
	"petal.Server.Restart":        "examples/failover/main.go",
	"petal.Server.State":          "TestSplitReadCorruptHalf",
	"petal.WriteVReq.HoldWire":    "internal/rpc/codec.go",
	"petal.WriteVReq.ReleaseWire": "internal/rpc/codec.go",
	"petal.WriteVReq.WireSize":    "internal/rpc/rpc.go",
	"petal.Workers.Go":            "internal/fs/fs.go, internal/fs/file.go",
	"petal.Workers.Run":           "internal/fs/fs.go",

	"paxos.Detector.Alive":       "internal/paxos/group.go",
	"paxos.Detector.AliveCount":  "internal/paxos/detector.go",
	"paxos.Detector.Crash":       "internal/paxos/group.go",
	"paxos.Detector.QuorumAlive": "internal/paxos/group.go",
	"paxos.Detector.Recover":     "internal/paxos/group.go",
	"paxos.Detector.Start":       "internal/paxos/group.go",
	"paxos.Detector.Stop":        "internal/paxos/group.go",
	"paxos.StateReq.Answer":      "internal/lockservice/server.go, internal/petal/server.go",
	"paxos.Follower.Adopt":       "internal/petal/client.go, internal/lockservice/clerk.go",
	"paxos.Follower.Ask":         "internal/petal/client.go",
	"paxos.Follower.Refresh":     "internal/petal/client.go, internal/lockservice/clerk.go",
	"paxos.Follower.Replace":     "internal/lockservice/clerk.go",
	"paxos.Follower.View":        "internal/petal/client.go, internal/lockservice/clerk.go",
	"paxos.Group.Alive":          "internal/lockservice/server.go",
	"paxos.Group.Close":          "internal/lockservice/server.go, internal/petal/server.go",
	"paxos.Group.Coordinator":    "internal/lockservice/server.go",
	"paxos.Group.Crash":          "internal/lockservice/server.go, internal/petal/server.go",
	"paxos.Group.Down":           "internal/lockservice/server.go, internal/petal/server.go",
	"paxos.Group.Members":        "internal/lockservice/server.go, internal/petal/server.go",
	"paxos.Group.QuorumAlive":    "internal/lockservice/server.go",
	"paxos.Group.Restart":        "internal/lockservice/server.go, internal/petal/server.go",
	"paxos.Group.Submit":         "internal/lockservice/server.go, internal/petal/server.go",
	"paxos.NewFollower":          "internal/lockservice/clerk.go, internal/petal/client.go",
	"paxos.NewGroup":             "internal/lockservice/server.go, internal/petal/server.go",
	"paxos.Node.Close":           "internal/paxos/group.go",
	"paxos.Node.Crash":           "internal/paxos/group.go",
	"paxos.Node.Quorum":          "internal/paxos/paxos.go",
	"paxos.Node.Recover":         "internal/paxos/group.go",
	"paxos.Node.Submit":          "internal/paxos/group.go",

	"wal.BlockVersion":    "internal/fs/fs.go",
	"wal.Log.Append":      "internal/fs/fs.go, internal/localfs/localfs.go",
	"wal.Log.Flush":       "internal/localfs/localfs.go",
	"wal.Log.FlushHealth": "internal/fs/fs.go",
	"wal.Log.FlushOp":     "internal/fs/fs.go",
	"wal.Log.Release":     "internal/fs/fs.go, internal/localfs/localfs.go",
	"wal.Log.SetObs":      "internal/fs/fs.go",
	"wal.Log.SetReclaim":  "internal/fs/fs.go, internal/localfs/localfs.go",
	"wal.Log.Stats":       "TestGroupCommit",
	"wal.New":             "internal/localfs/localfs.go",
	"wal.NewTenancy":      "internal/fs/fs.go",
	"wal.RecordSize":      "internal/fs/fs.go",
	"wal.Replay":          "internal/fs/fs.go, internal/fs/backup.go",
	"wal.Scan":            "internal/fs/backup.go",
	"wal.ScanTenancy":     "internal/fs/fs.go",
	"wal.SetBlockVersion": "internal/fs/fs.go",

	"lockservice.AcquireBatch.WireSize":     "internal/rpc/rpc.go",
	"lockservice.Addr":                      "benchmark/layers.go",
	"lockservice.Clerk.Abandon":             "internal/fs/fs.go",
	"lockservice.Clerk.Close":               "internal/fs/fs.go",
	"lockservice.Clerk.ExpiresAt":           "internal/fs/fs.go",
	"lockservice.Clerk.Follower":            "TestIncrementalRefresh",
	"lockservice.Clerk.Held":                "internal/fs/file.go",
	"lockservice.Clerk.HeldCount":           "TestIdleLocksDiscarded",
	"lockservice.Clerk.InjectStaleShardMap": "internal/bench/lockscale.go",
	"lockservice.Clerk.LeaseLost":           "internal/fs/fs.go",
	"lockservice.Clerk.LeaseID":             "internal/fs/fs.go",
	"lockservice.Clerk.LeaseValid":          "internal/fs/fs.go",
	"lockservice.Clerk.Lock":                "benchmark/drives.go",
	"lockservice.Clerk.LockAll":             "internal/fs/fs.go",
	"lockservice.Clerk.LogSlot":             "internal/fs/fs.go",
	"lockservice.Clerk.MemoryBytes":         "TestClerkMemoryAccounting, TestIdleLocksDiscarded",
	"lockservice.Clerk.Open":                "internal/fs/fs.go",
	"lockservice.Clerk.SetCallbacks":        "internal/fs/fs.go, benchmark/drives.go",
	"lockservice.Clerk.SetRecover":          "internal/fs/fs.go",
	"lockservice.Clerk.TryLock":             "internal/fs/fs.go",
	"lockservice.Clerk.Unlock":              "internal/fs/fs.go",
	"lockservice.ClerkAddr":                 "benchmark/layers.go",
	"lockservice.DefaultConfig":             "internal/fs/fs.go, benchmark/drives.go",
	"lockservice.GState.Apply":              "internal/lockservice/server.go",
	"lockservice.GState.Clone":              "internal/lockservice/server.go",
	"lockservice.GState.ServerFor":          "internal/lockservice/clerk.go",
	"lockservice.GState.ShardOf":            "internal/lockservice/clerk.go",
	"lockservice.Mode.String":               "TestExploreTwoClerks: its traces print modes through fmt",
	"lockservice.NewClerk":                  "internal/bench/lockscale.go, benchmark/drives.go",
	"lockservice.NewClerkWithCarrier":       "internal/fs/fs.go",
	"lockservice.NewGState":                 "internal/lockservice/server.go",
	"lockservice.NewServer":                 "cluster.go, benchmark/drives.go",
	"lockservice.NewServerWithCarrier":      "internal/lockservice/server.go",
	"lockservice.ReleaseBatch.WireSize":     "internal/rpc/rpc.go",
	"lockservice.Server.Close":              "cluster.go",
	"lockservice.Server.Crash":              "internal/bench/lockscale.go",
	"lockservice.Server.Restart":            "internal/bench/lockscale.go",
	"lockservice.Server.State":              "internal/bench/lockscale.go",
	"lockservice.ShardOf":                   "cluster.go",
	"lockservice.WrongShard.WireSize":       "internal/rpc/rpc.go",

	"localfs.DefaultConfig": "internal/bench/bench.go",
	"localfs.FS.Close":      "internal/bench/bench.go",
	"localfs.FS.Create":     "internal/workload/suites.go",
	"localfs.FS.DropCache":  "internal/bench/experiments.go",
	"localfs.FS.Mkdir":      "internal/workload/mab.go",
	"localfs.FS.Open":       "internal/localfs/localfs.go",
	"localfs.FS.OpenFile":   "internal/workload/workload.go",
	"localfs.FS.ReadDir":    "internal/workload/workload.go",
	"localfs.FS.Readlink":   "internal/workload/suites.go",
	"localfs.FS.Remove":     "internal/workload/suites.go",
	"localfs.FS.Rename":     "internal/workload/suites.go",
	"localfs.FS.Rmdir":      "internal/workload/suites.go",
	"localfs.FS.Stat":       "internal/workload/workload.go",
	"localfs.FS.Symlink":    "internal/workload/suites.go",
	"localfs.FS.Sync":       "internal/workload/suites.go",
	"localfs.File.ReadAt":   "internal/workload/workload.go",
	"localfs.File.Size":     "internal/workload/workload.go",
	"localfs.File.Sync":     "internal/workload/suites.go",
	"localfs.File.Truncate": "internal/workload/suites.go",
	"localfs.File.WriteAt":  "internal/workload/workload.go",
	"localfs.New":           "internal/bench/bench.go",

	"fs.Check":                      "cluster.go",
	"fs.DefaultConfig":              "cluster.go",
	"fs.DefaultLayout":              "cluster.go",
	"fs.FS.As":                      "internal/bench/accounting.go",
	"fs.FS.Crash":                   "examples/failover/main.go, internal/bench/forensics.go",
	"fs.FS.Create":                  "cmd/frangicli/main.go, benchmark/harness.go",
	"fs.FS.Health":                  "cluster.go",
	"fs.FS.Link":                    "§2.1, UNIX semantics, hard links (Nlink, which fsck checks): TestHardLinks",
	"fs.FS.Machine":                 "internal/export/export.go",
	"fs.FS.Mkdir":                   "cmd/frangicli/main.go, benchmark/harness.go",
	"fs.FS.Open":                    "cmd/frangicli/main.go, benchmark/harness.go",
	"fs.FS.OpenFile":                "examples/quickstart/main.go",
	"fs.FS.PetalStats":              "internal/bench/readpath.go",
	"fs.FS.Poisoned":                "cluster.go",
	"fs.FS.ReadDir":                 "cmd/frangicli/main.go, benchmark/harness.go",
	"fs.FS.ReadDirPlus":             "internal/bench/readpath.go",
	"fs.FS.Readlink":                "internal/workload/suites.go",
	"fs.FS.Remove":                  "cmd/frangicli/main.go, benchmark/harness.go",
	"fs.FS.Rename":                  "cmd/frangicli/main.go, benchmark/harness.go",
	"fs.FS.Rmdir":                   "cmd/frangicli/main.go, benchmark/harness.go",
	"fs.FS.SnapshotCrashConsistent": "§8, a crash-consistent snapshot: TestCrashConsistentSnapshotNeedsReplay",
	"fs.FS.SnapshotWithBarrier":     "examples/backup/main.go",
	"fs.FS.Stat":                    "cmd/frangicli/main.go, benchmark/harness.go",
	"fs.FS.Symlink":                 "cmd/frangicli/main.go",
	"fs.FS.Sync":                    "cmd/frangicli/main.go, benchmark/harness.go",
	"fs.FS.Unmount":                 "cluster.go",
	"fs.File.ReadAt":                "cmd/frangicli/main.go, benchmark/harness.go",
	"fs.File.Size":                  "cmd/frangicli/main.go, internal/workload/workload.go",
	"fs.File.Sync":                  "benchmark/harness.go",
	"fs.File.Truncate":              "internal/workload/suites.go",
	"fs.File.WriteAt":               "cmd/frangicli/main.go, benchmark/harness.go",
	"fs.FileType.String":            "TestCreateStatReadDir: listings print types through fmt",
	"fs.InodeLock":                  "internal/bench/analytics.go",
	"fs.Layout.InodeAddr":           "cmd/frangick/main.go",
	"fs.Layout.LargeAddr":           "internal/fs/check.go",
	"fs.Layout.LogSlotBase":         "internal/fs/backup.go",
	"fs.Layout.SmallAddr":           "internal/fs/check.go",
	"fs.Layout.Validate":            "internal/fs/fs.go",
	"fs.LockName":                   "cluster.go, internal/bench/analytics.go",
	"fs.Mkfs":                       "cluster.go",
	"fs.Mount":                      "cluster.go",
	"fs.ParseLockName":              "cmd/frangicli/main.go",
	"fs.Report.OK":                  "cmd/frangick/main.go",
	"fs.Restore":                    "examples/backup/main.go",
	"fs.SegLock":                    "internal/fs/alloc.go",
	// The adapters' methods are called through workload.FS.
	"workload.Connectathon.Run":        "internal/bench/experiments.go",
	"workload.DefaultConnectathon":     "internal/bench/bench.go",
	"workload.DefaultMAB":              "internal/bench/bench.go",
	"workload.Each":                    "internal/bench/experiments.go, internal/bench/readpath.go",
	"workload.NewRunner":               "internal/bench/lockscale.go, internal/bench/scalesweep.go",
	"workload.Result.MBps":             "internal/bench/experiments.go, examples/contention/main.go",
	"workload.Result.Pct":              "internal/bench/lockscale.go, internal/bench/scalesweep.go",
	"workload.Result.PerSec":           "internal/bench/experiments.go, internal/bench/lockscale.go",
	"workload.Runner.Go":               "internal/bench/lockscale.go, internal/bench/scalesweep.go",
	"workload.Runner.Measure":          "internal/bench/lockscale.go, internal/bench/scalesweep.go",
	"workload.Runner.Stop":             "internal/bench/lockscale.go, internal/bench/scalesweep.go",
	"workload.Frangipani.Open":         "internal/workload/contention.go",
	"workload.Frangipani.ReadDirNames": "internal/workload/suites.go",
	"workload.Frangipani.Stat":         "internal/workload/mab.go",
	"workload.Local.Open":              "internal/workload/contention.go",
	"workload.Local.ReadDirNames":      "internal/workload/suites.go",
	"workload.Local.Stat":              "internal/workload/mab.go",
	"workload.MAB.Run":                 "internal/bench/experiments.go",
	"workload.ReaderWriterContention":  "internal/bench/experiments.go, examples/contention/main.go",
	"workload.SeqRead":                 "internal/bench/experiments.go",
	"workload.SeqWrite":                "internal/bench/experiments.go, internal/bench/scalesweep.go",
	"workload.SmallReadSwarm":          "internal/bench/experiments.go",
	"workload.WriteSharing":            "internal/bench/experiments.go",
	"sim.CPU.BusyTime":                 "internal/bench/experiments.go",
	"sim.CPU.ResetStats":               "benchmark/layers.go",
	"sim.CPU.Use":                      "internal/fs/fs.go",
	"sim.CPU.Utilization":              "benchmark/layers.go",
	"sim.Clock.Now":                    "internal/fs/fs.go",
	"sim.Clock.Real":                   "internal/rpc/rpc.go",
	"sim.Clock.Sleep":                  "internal/fs/fs.go",
	"sim.Clock.SleepUntil":             "internal/sim/network.go",
	"sim.Clock.Stop":                   "internal/sim/world.go",
	"sim.Clock.Tick":                   "internal/fs/fs.go",
	"sim.DefaultDiskParams":            "internal/petal/server.go",
	"sim.DefaultLinkParams":            "internal/sim/world.go",
	"sim.Disk.CorruptSector":           "fault injection for ROADMAP item 2's schedules: TestDiskCorruptSector",
	"sim.Disk.Fail":                    "fault injection for ROADMAP item 2's schedules: TestDiskFailAndRevive",
	"sim.Disk.Failed":                  "internal/sim/nvram.go",
	"sim.Disk.InjectTornWrite":         "fault injection for ROADMAP item 2's schedules: TestDiskTornWrite, TestNVRAMTornDestage",
	"sim.Disk.Params":                  "internal/petal/store.go",
	"sim.Disk.ReadAt":                  "internal/sim/nvram.go, internal/petal/store.go",
	"sim.Disk.Revive":                  "fault injection for ROADMAP item 2's schedules: TestDiskFailAndRevive",
	"sim.Disk.Seeks":                   "seek time apart from transfer time, for EXPERIMENTS.md's arm accounting: TestDiskSeekAccounting",
	"sim.Disk.Stats":                   "benchmark/layers.go",
	"sim.Disk.WriteAt":                 "internal/sim/nvram.go",
	"sim.NVRAM.Close":                  "internal/petal/server.go",
	"sim.NVRAM.Flush":                  "internal/sim/nvram.go",
	"sim.NVRAM.ReadAt":                 "internal/petal/store.go",
	"sim.NVRAM.WriteAt":                "internal/petal/store.go",
	"sim.Network.AddHost":              "internal/sim/world.go",
	"sim.Network.Cut":                  "fault injection for ROADMAP item 2's schedules: TestNetworkDirectedCut",
	"sim.Network.CutBoth":              "fault injection for ROADMAP item 2's schedules: TestNetworkPartition",
	"sim.Network.Heal":                 "fault injection for ROADMAP item 2's schedules: TestNetworkPartition",
	"sim.Network.Isolate":              "fault injection for ROADMAP item 2's schedules: TestNetworkPartition",
	"sim.Network.LinkUtilization":      "benchmark/layers.go",
	"sim.Network.Reconnect":            "fault injection for ROADMAP item 2's schedules: TestNetworkPartition",
	"sim.Network.Register":             "internal/rpc/rpc.go",
	"sim.Network.ResetStats":           "benchmark/layers.go",
	"sim.Network.Send":                 "TestNetworkSendAllocs",
	"sim.Network.SendMessage":          "internal/rpc/rpc.go",
	"sim.Network.SetDropEvery":         "fault injection for ROADMAP item 2's schedules: TestNetworkDropEvery",
	"sim.Network.Stats":                "benchmark/layers.go",
	"sim.Network.Unregister":           "internal/rpc/rpc.go",
	"sim.NewCPU":                       "internal/sim/world.go",
	"sim.NewClock":                     "internal/sim/world.go, benchmark/drives.go",
	"sim.NewDisk":                      "internal/petal/server.go",
	"sim.NewNVRAM":                     "internal/petal/server.go",
	"sim.NewNetwork":                   "internal/sim/world.go",
	"sim.NewResource":                  "internal/sim/disk.go, internal/lockservice/server.go",
	"sim.NewWorld":                     "cluster.go",
	"sim.Resource.BusyTime":            "internal/sim/resource.go",
	"sim.Resource.ResetStats":          "internal/sim/resource.go",
	"sim.Resource.Use":                 "internal/sim/disk.go",
	"sim.Resource.Utilization":         "internal/sim/resource.go",
	"sim.World.AddMachine":             "internal/sim/world.go",
	"sim.World.CPU":                    "internal/fs/fs.go",
	"sim.World.Rand":                   "seeded randomness for ROADMAP item 2's schedules: TestWorldDeterministicRand",
	"sim.World.RandIntn":               "petal's Client holds it as a method value: TestWorldDeterministicRand",
	"sim.World.Stop":                   "cluster.go",

	"reuse.List.Len":       "internal/cache/cache.go",
	"reuse.List.Put":       "internal/fs/fs.go, internal/obs/trace.go, internal/sim/nvram.go",
	"reuse.List.Take":      "internal/fs/fs.go, internal/obs/trace.go, internal/sim/nvram.go",
	"reuse.Workers.Close":  "internal/fs/fs.go, internal/rpc/rpc.go, internal/lockservice/clerk.go",
	"reuse.Workers.Go":     "internal/petal/fanout.go, internal/rpc/rpc.go, internal/sim/network.go",
	"reuse.Workers.Parked": "TestWorkersParkAndEnd",
}

// TestPackageCensus fails for an internal package that no non-test code
// of this repository (the benchmark module included) imports and that
// unimported does not keep, and for an unimported entry that names a
// package something now imports, or none.
func TestPackageCensus(t *testing.T) {
	importers := map[string]map[string]bool{} // package dir -> importing dirs
	pkgs := map[string]bool{}
	for _, path := range goFiles(t, false) {
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			pkgs[dir] = true
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if pkg, ok := strings.CutPrefix(p, "frangipani/"); ok && pkg != dir {
				if importers[pkg] == nil {
					importers[pkg] = map[string]bool{}
				}
				importers[pkg][dir] = true
			}
		}
	}
	for pkg := range pkgs {
		why := unimported[pkg]
		switch {
		case len(importers[pkg]) == 0 && why == "":
			t.Errorf("%s has no non-test importer: delete it, or name in unimported the paper section and the test that keep it", pkg)
		case len(importers[pkg]) > 0 && why != "":
			t.Errorf("%s is imported by %v: drop its unimported entry", pkg, sortedSet(importers[pkg]))
		case why != "":
			checkRefs(t, pkg, why, strconv.Quote("frangipani/"+pkg), false)
		}
	}
	for pkg := range unimported {
		if !pkgs[pkg] {
			t.Errorf("unimported entry %s names no package", pkg)
		}
	}
}

// TestExperimentCensus holds bench.Experiments to experiments: each entry
// names an EXPERIMENTS.md heading that exists, or the bench-smoke gate
// that runs it; and every -exp in the Makefile and the CI workflow names
// an experiment that exists.
func TestExperimentCensus(t *testing.T) {
	known := map[string]bool{}
	var names []string
	for _, e := range bench.Experiments {
		known[e.Name] = true
		names = append(names, e.Name)
	}
	census(t, "experiment", names, experiments)

	headings := map[string]bool{}
	for _, line := range strings.Split(readFile(t, "EXPERIMENTS.md"), "\n") {
		if h, ok := strings.CutPrefix(line, "## "); ok {
			headings[h] = true
		}
	}
	makefile := readFile(t, "Makefile")
	expFlag := regexp.MustCompile(`-exp\s+([\w-]+)`)
	gated := map[string]bool{}
	_, recipe, _ := strings.Cut(makefile, "\nbench-smoke:\n")
	recipe, _, _ = strings.Cut(recipe, "\n\n")
	for _, m := range expFlag.FindAllStringSubmatch(recipe, -1) {
		gated[m[1]] = true
	}
	for name, why := range experiments {
		if h, ok := strings.CutPrefix(why, "EXPERIMENTS.md: "); ok {
			if !headings[h] {
				t.Errorf("experiment %s: EXPERIMENTS.md has no section %q", name, h)
			}
		} else if why != "make bench-smoke" {
			t.Errorf("experiment %s: %q is neither an EXPERIMENTS.md section nor make bench-smoke", name, why)
		} else if !gated[name] {
			t.Errorf("experiment %s: make bench-smoke does not run it", name)
		}
	}
	for _, file := range []string{"Makefile", ".github/workflows/ci.yml"} {
		for _, m := range expFlag.FindAllStringSubmatch(readFile(t, file), -1) {
			if !known[m[1]] {
				t.Errorf("%s runs -exp %s, which bench.Experiments does not have", file, m[1])
			}
		}
	}
}

// TestClusterMethodCensus holds the exported methods of *Cluster to
// clusterMethods, and each entry to a file or test that calls the method.
func TestClusterMethodCensus(t *testing.T) {
	typ := reflect.TypeOf(&frangipani.Cluster{})
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	census(t, "Cluster method", got, clusterMethods)
	for m, why := range clusterMethods {
		if !strings.Contains(why, ".go") && !strings.HasPrefix(why, "§") {
			t.Errorf("Cluster.%s: %q names no non-test caller and no paper section", m, why)
		}
		checkRefs(t, "Cluster."+m, why, "."+m+"(", false)
	}
}

// TestExportedCensus holds every exported function of internal/rpc,
// internal/obs, internal/cache, internal/petal, internal/paxos,
// internal/wal, internal/lockservice, internal/localfs, internal/fs,
// internal/workload, internal/sim and internal/reuse, generic ones
// included, and every exported method of their exported types, to
// exported, and each entry to a file or test that calls it.
func TestExportedCensus(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func (?:\(\w+ \*?([A-Z]\w*)(?:\[\w+\])?\) )?([A-Z]\w*)(\[[^\]]*\])?\(`)
	var got []string
	for _, path := range goFiles(t, false) {
		dir := filepath.ToSlash(filepath.Dir(path))
		switch dir {
		case "internal/rpc", "internal/obs", "internal/cache", "internal/petal", "internal/paxos", "internal/wal",
			"internal/lockservice", "internal/localfs", "internal/fs", "internal/workload", "internal/sim", "internal/reuse":
		default:
			continue
		}
		pkg := filepath.Base(dir)
		for _, m := range decl.FindAllStringSubmatch(readFile(t, path), -1) {
			name, call := pkg+"."+m[2], m[2]+"("
			if m[3] != "" { // a generic function: called instantiated
				call = m[2] + "["
			}
			if m[1] != "" {
				name, call = pkg+"."+m[1]+"."+m[2], "."+m[2]+"("
			}
			got = append(got, name)
			if why := exported[name]; why != "" {
				checkRefs(t, name, why, call, true)
			}
		}
	}
	census(t, "exported function or method", got, exported)
}

// checkRefs requires why to name at least one file or test, and every
// file and test it names to exist and contain call outside the
// declaration of what it calls. A test it names must be a root test,
// or, with anyPkg, a test of any one package.
func checkRefs(t *testing.T, subject, why, call string, anyPkg bool) {
	t.Helper()
	refs := 0
	for _, word := range strings.FieldsFunc(why, func(r rune) bool { return r == ' ' || r == ',' || r == ':' }) {
		var src string
		switch {
		case strings.HasSuffix(word, ".go"):
			src = readFile(t, word)
		case strings.HasPrefix(word, "Test"):
			src = testDefining(t, word, anyPkg)
		default:
			continue
		}
		refs++
		if !strings.Contains(strings.ReplaceAll(src, "func "+call, ""), call) {
			t.Errorf("%s: %s does not contain %s", subject, word, call)
		}
	}
	if refs == 0 {
		t.Errorf("%s: %q names no file or test", subject, why)
	}
}

// testDefining returns the test file that defines test: a root test
// file, or, with anyPkg, a test file of any package. A test that more
// than one package defines is an error, not the first one found.
func testDefining(t *testing.T, test string, anyPkg bool) string {
	t.Helper()
	var found []string
	var src string
	for _, path := range goFiles(t, true) {
		if !anyPkg && filepath.Dir(path) != "." {
			continue
		}
		if s := readFile(t, path); strings.Contains(s, "func "+test+"(t *testing.T)") {
			found, src = append(found, path), s
		}
	}
	switch {
	case len(found) == 0 && anyPkg:
		t.Errorf("no test %s", test)
	case len(found) == 0:
		t.Errorf("no root test %s", test)
	case len(found) > 1:
		t.Errorf("test %s is defined in %v: name it in one package only", test, found)
		return ""
	}
	return src
}

// goFiles lists the repository's Go files, test files or the rest, but
// none under a dot directory (build outputs) or testdata.
func goFiles(t *testing.T, tests bool) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && strings.HasSuffix(path, "_test.go") == tests {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
	}
	return string(b)
}

func sortedSet(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
