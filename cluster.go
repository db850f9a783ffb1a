// Package frangipani is the public entry point of this Frangipani
// reproduction (Thekkath, Mann & Lee, SOSP 1997): a scalable
// distributed file system built as a thin layer over the Petal
// distributed virtual disk, with coherence provided by a distributed
// lock service.
//
// A Cluster assembles the full stack in one process on a simulated
// network: Petal storage servers (each with simulated disks and
// optional NVRAM), lock servers, an initialized shared virtual disk,
// and any number of interchangeable Frangipani file servers. Servers
// can be added at runtime with AddServer — the paper's "bricks that
// can be stacked incrementally to build as large a file system as
// needed".
//
//	cluster, _ := frangipani.NewCluster(frangipani.DefaultClusterConfig())
//	defer cluster.Close()
//	ws1, _ := cluster.AddServer("ws1")
//	ws2, _ := cluster.AddServer("ws2")
//	_ = ws1.Mkdir("/shared")
//	// ws2 sees /shared immediately: all servers serve the same files.
package frangipani

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"frangipani/internal/fs"
	"frangipani/internal/lockservice"
	"frangipani/internal/obs"
	"frangipani/internal/petal"
	"frangipani/internal/sim"
)

// Re-exported types so callers rarely need the internal packages.
type (
	// FS is one Frangipani file server.
	FS = fs.FS
	// File is an open file handle.
	File = fs.File
	// Config tunes one file server.
	Config = fs.Config
	// Info is Stat output.
	Info = fs.Info
	// DirEntry is one directory entry.
	DirEntry = fs.DirEntry
	// VDiskID names a Petal virtual disk.
	VDiskID = petal.VDiskID
	// Report is the output of the consistency checker.
	Report = fs.Report
)

// Re-exported helpers.
var (
	// DefaultFSConfig returns per-server defaults.
	DefaultFSConfig = fs.DefaultConfig
	// Check verifies a quiesced or snapshotted file system.
	Check = fs.Check
	// Restore copies a snapshot to a new virtual disk and replays its
	// logs.
	Restore = fs.Restore
	// Mount attaches a Frangipani server to an arbitrary virtual disk
	// (Cluster.AddServer covers the common case on the shared disk).
	Mount = fs.Mount
	// Mkfs initializes a Frangipani file system on a virtual disk.
	Mkfs = fs.Mkfs
)

// ClusterConfig sizes a Cluster.
type ClusterConfig struct {
	// PetalServers and LockServers set the service sizes (the paper's
	// testbed ran 7 Petal servers; lock servers can share machines).
	PetalServers int
	LockServers  int
	// DisksPerServer and DiskCapacity size each Petal server's local
	// storage (the paper: 9 RZ29 disks per server).
	DisksPerServer int
	DiskCapacity   int64
	// NVRAM, if > 0, fronts every Petal disk with a PrestoServe-like
	// write buffer of this many bytes.
	NVRAM int
	// Compression is the simulated-to-real time ratio; Seed feeds the
	// deterministic RNG.
	Compression float64
	Seed        int64
	// FSConfig is the template for servers mounted via AddServer. Its
	// lock timing also sets the Petal servers' failure detector.
	FSConfig Config
	// GuardWrites enables the §6 lease-expiration write guard at the
	// Petal servers.
	GuardWrites bool
	// NoReplicate disables Petal write replication (a benchmark
	// ablation knob; unsafe under failures).
	NoReplicate bool
	// NoObs disables the cluster-wide metrics registry and tracer (an
	// ablation knob for measuring instrumentation overhead): only the
	// always-on standalone counters remain.
	NoObs bool
	// NoAccounting disables per-principal resource accounting while
	// keeping the rest of observability (the ablation knob for
	// measuring the accounting layer's own overhead). Components wire
	// their account-table pointer at construction, so this only takes
	// effect for clusters built with it set.
	NoAccounting bool
}

// DefaultClusterConfig mirrors a small version of the paper's
// testbed: 3 Petal servers with 3 disks each, 3 lock servers.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		PetalServers:   3,
		LockServers:    3,
		DisksPerServer: 3,
		DiskCapacity:   256 << 20,
		Compression:    100,
		Seed:           1,
		FSConfig:       fs.DefaultConfig(),
	}
}

// sharedVDisk names the virtual disk every server of a Cluster mounts.
const sharedVDisk VDiskID = "fs0"

// Cluster is a fully assembled Frangipani installation.
type Cluster struct {
	World  *sim.World
	Petals []*petal.Server
	Locks  []*lockservice.Server
	cfg    ClusterConfig
	lay    fs.Layout

	petalNames []string
	lockNames  []string

	// mu guards servers and clients: Health() reads them from other
	// goroutines.
	mu      sync.Mutex
	servers map[string]*FS
	clients []*petal.Client

	windows *obs.WindowRing

	anomOnce sync.Once
	anoms    *obs.AnomalyWatcher

	// healthMu guards the probe-transition memory behind health
	// journaling.
	healthMu  sync.Mutex
	lastProbe map[string]obs.ProbeStatus
}

// NewCluster builds the stack and initializes the shared file
// system.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.PetalServers < 1 || cfg.LockServers < 1 {
		return nil, fmt.Errorf("frangipani: need at least one petal and one lock server")
	}
	w := sim.NewWorld(cfg.Compression, cfg.Seed)
	if cfg.NoObs {
		w.Obs = nil
	} else {
		// Registry knobs must be set before any server is built:
		// components capture their journal and account-table pointers
		// once at construction.
		w.Obs.SetNamer(entityName)
		w.Obs.SetAccounting(!cfg.NoAccounting)
	}
	c := &Cluster{
		World:   w,
		cfg:     cfg,
		lay:     fs.DefaultLayout(),
		servers: make(map[string]*FS),
		windows: obs.NewWindowRing(w.Obs),
	}
	pcfg := petal.DefaultServerConfig(cfg.DiskCapacity)
	pcfg.NumDisks = cfg.DisksPerServer
	pcfg.NVRAM = cfg.NVRAM
	lcfg := cfg.FSConfig.Lock
	pcfg.HeartbeatEvery, pcfg.SuspectAfter = lcfg.HeartbeatEvery, lcfg.SuspectAfter
	if cfg.GuardWrites {
		pcfg.WriteGuard = func(expireAt, now int64) bool {
			return expireAt == 0 || expireAt > now
		}
	}
	pcfg.NoReplicate = cfg.NoReplicate
	for i := 0; i < cfg.PetalServers; i++ {
		c.petalNames = append(c.petalNames, fmt.Sprintf("petal%d", i))
	}
	for _, n := range c.petalNames {
		c.Petals = append(c.Petals, petal.NewServer(w, n, c.petalNames, pcfg))
	}
	for i := 0; i < cfg.LockServers; i++ {
		c.lockNames = append(c.lockNames, fmt.Sprintf("lock%d", i))
	}
	for _, n := range c.lockNames {
		c.Locks = append(c.Locks, lockservice.NewServer(w, n, c.lockNames, lcfg))
	}
	admin := c.Client("admin")
	if err := admin.CreateVDisk(sharedVDisk); err != nil {
		c.Close()
		return nil, err
	}
	if err := fs.Mkfs(admin, sharedVDisk, c.lay); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Layout exposes the on-disk layout in use.
func (c *Cluster) Layout() fs.Layout { return c.lay }

// Obs returns the cluster-wide metrics registry and tracer (nil when
// the cluster was built with NoObs). Every layer of every machine in
// the cluster records into it under "layer.op.metric#instance" names;
// Obs().Snapshot() captures the lot.
func (c *Cluster) Obs() *obs.Registry { return c.World.Obs }

// LockServerNames returns the lock service membership.
func (c *Cluster) LockServerNames() []string {
	return append([]string(nil), c.lockNames...)
}

// LockShardMap returns the current epoch of the Paxos-decided shard
// map and the owner of each lock-table shard.
func (c *Cluster) LockShardMap() (epoch int64, owners []string) {
	st := c.Locks[0].State()
	return st.Epoch, append([]string(nil), st.Assignment...)
}

// LockShardFor reports which shard a lock ID hashes to and which lock
// server currently serves that shard.
func (c *Cluster) LockShardFor(lock uint64) (shard int, owner string) {
	st := c.Locks[0].State()
	shard = lockservice.ShardOf(lock, st.Shards)
	return shard, st.Assignment[shard]
}

// PetalServerNames returns the Petal membership.
func (c *Cluster) PetalServerNames() []string {
	return append([]string(nil), c.petalNames...)
}

// Client returns a Petal device driver for the named machine.
func (c *Cluster) Client(machine string) *petal.Client {
	pc := petal.NewClient(c.World, machine, c.petalNames)
	if c.cfg.NoReplicate {
		// With single-copy writes, the backup replica holds nothing;
		// balanced reads would see holes. Route reads primary-only.
		pc.SetReadBalance(false)
	}
	c.mu.Lock()
	c.clients = append(c.clients, pc)
	c.mu.Unlock()
	return pc
}

// AddServer mounts a new Frangipani server on the shared disk — the
// paper's transparent server addition (§7): the new machine needs
// only the virtual disk name and the lock service addresses.
func (c *Cluster) AddServer(machine string) (*FS, error) {
	return c.AddServerWithConfig(machine, c.cfg.FSConfig)
}

// AddServerWithConfig mounts a server with a custom configuration.
func (c *Cluster) AddServerWithConfig(machine string, fscfg Config) (*FS, error) {
	c.mu.Lock()
	_, dup := c.servers[machine]
	c.mu.Unlock()
	if dup {
		return nil, fmt.Errorf("frangipani: machine %q already has a server", machine)
	}
	f, err := fs.Mount(c.World, machine, c.Client(machine), sharedVDisk, c.lockNames, c.lay, fscfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.servers[machine] = f
	c.mu.Unlock()
	return f, nil
}

// RemoveServer cleanly unmounts a server ("removing a Frangipani
// server is even easier", §7).
func (c *Cluster) RemoveServer(machine string) error {
	c.mu.Lock()
	f, ok := c.servers[machine]
	delete(c.servers, machine)
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("frangipani: no server on %q", machine)
	}
	return f.Unmount()
}

// fileServers returns a stable-ordered copy of the mounted servers.
func (c *Cluster) fileServers() (names []string, fss []*FS) {
	c.mu.Lock()
	for name := range c.servers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fss = append(fss, c.servers[name])
	}
	c.mu.Unlock()
	return names, fss
}

// Windows returns the cluster's windowed-metrics ring, whose first
// window opens with the cluster. Call its Advance at whatever cadence
// the caller wants windows at; frangicli's watch mode does this once
// per refresh, and its top once per call.
func (c *Cluster) Windows() *obs.WindowRing { return c.windows }

// Health evaluates the cluster's health probes and rolls them into a
// single verdict:
//
//   - lease: a server's lock-service lease is expiry-imminent (warn
//     inside 25% of the lease duration, crit when expired/poisoned);
//   - wal: a server has a write backlog but has not completed a
//     flush for over a minute of simulated time (stall);
//   - cache: a server's data or metadata pool is nearly all dirty
//     (write-back cannot keep up; warn at 75%, crit at 90%);
//   - petal: a Petal server's partners have missed replicated writes
//     that repair has not yet pushed (replica lag).
func (c *Cluster) Health() obs.HealthReport {
	now := int64(c.World.Clock.Now())
	var probes []obs.ProbeResult
	probe := func(name string, st obs.ProbeStatus, detail string) {
		probes = append(probes, obs.ProbeResult{Name: name, Status: st, Detail: detail})
	}
	names, fss := c.fileServers()
	for i, name := range names {
		hi := fss[i].Health()
		st, detail := leaseProbe(hi, now, c.cfg.FSConfig.Lock.LeaseDuration)
		probe("lease/"+name, st, detail)
		st, detail = walProbe(hi, now)
		probe("wal/"+name, st, detail)
		st, detail = cacheProbe(hi)
		probe("cache/"+name, st, detail)
	}
	for _, p := range c.Petals {
		if n := p.MissedBacklog(); n > 0 {
			probe("petal/"+p.Name(), obs.StatusWarn, fmt.Sprintf("%d replicated chunks awaiting repair", n))
		} else {
			probe("petal/"+p.Name(), obs.StatusOK, "replicas in sync")
		}
	}
	rep := obs.NewHealthReport(probes)
	c.journalHealthTransitions(rep)
	return rep
}

func leaseProbe(hi fs.HealthInfo, now int64, lease time.Duration) (obs.ProbeStatus, string) {
	if hi.Poisoned {
		return obs.StatusCrit, "lease lost; server poisoned"
	}
	left := time.Duration(hi.LeaseExpiresAt - now)
	if left <= 0 {
		return obs.StatusCrit, "lease expired"
	}
	if lease > 0 && left < lease/4 {
		return obs.StatusWarn, fmt.Sprintf("lease expires in %v (< 25%% of %v)", left, lease)
	}
	return obs.StatusOK, fmt.Sprintf("lease valid for %v", left)
}

func walProbe(hi fs.HealthInfo, now int64) (obs.ProbeStatus, string) {
	if hi.WALBacklogBytes == 0 {
		return obs.StatusOK, "no unflushed log bytes"
	}
	if hi.WALLastFlush != 0 && time.Duration(now-hi.WALLastFlush) > time.Minute {
		return obs.StatusWarn, fmt.Sprintf("%d B unflushed, last flush %v ago",
			hi.WALBacklogBytes, time.Duration(now-hi.WALLastFlush))
	}
	return obs.StatusOK, fmt.Sprintf("%d B in flight", hi.WALBacklogBytes)
}

func cacheProbe(hi fs.HealthInfo) (obs.ProbeStatus, string) {
	worst, detail := obs.StatusOK, "pools healthy"
	check := func(kind string, dirty, capacity int) {
		if capacity == 0 {
			return
		}
		frac := float64(dirty) / float64(capacity)
		st := obs.StatusOK
		if frac >= 0.90 {
			st = obs.StatusCrit
		} else if frac >= 0.75 {
			st = obs.StatusWarn
		}
		if st > worst {
			worst = st
			detail = fmt.Sprintf("%s pool %.0f%% dirty (%d/%d)", kind, frac*100, dirty, capacity)
		}
	}
	check("data", hi.DataDirty, hi.DataCapacity)
	check("meta", hi.MetaDirty, hi.MetaCapacity)
	return worst, detail
}

// journalHealthTransitions records probe status *changes* into the
// cluster journal (re-evaluating an unchanged crit stays silent).
func (c *Cluster) journalHealthTransitions(rep obs.HealthReport) {
	if c.Obs() == nil {
		return
	}
	jr := c.Obs().Journal("cluster")
	c.healthMu.Lock()
	if c.lastProbe == nil {
		c.lastProbe = make(map[string]obs.ProbeStatus)
	}
	for _, pr := range rep.Probes {
		prev, seen := c.lastProbe[pr.Name]
		c.lastProbe[pr.Name] = pr.Status
		if pr.Status == prev {
			continue
		}
		switch {
		case pr.Status == obs.StatusCrit:
			jr.Record("obs", "health", "crit", 0, 0, pr.Name+": "+pr.Detail)
		case pr.Status == obs.StatusWarn:
			jr.Record("obs", "health", "warn", 0, 0, pr.Name+": "+pr.Detail)
		case seen && prev != obs.StatusOK:
			jr.Record("obs", "health", "recovered", 0, 0, pr.Name)
		}
	}
	c.healthMu.Unlock()
}

// Timeline merges every server's flight-recorder journal into one
// causally-ordered cross-server timeline (see obs.MergeTimeline).
func (c *Cluster) Timeline(f obs.Filter) []obs.Event {
	return obs.MergeTimeline(c.Obs().Journals(), f)
}

// NowNs is the cluster clock in nanoseconds — the timebase journal
// events are stamped in, so it anchors obs.Filter.Since windows.
func (c *Cluster) NowNs() int64 {
	return int64(c.World.Clock.Now())
}

// EntityNamer renders journal entity keys for humans: lock ids decode
// through the FS lock-name scheme ("inode/7"), anything else in hex. The
// registry names its hot locks with the same function.
func (c *Cluster) EntityNamer() obs.Namer { return entityName }

func entityName(layer string, key uint64) string {
	if layer == "lockservice" {
		return fs.LockName(key)
	}
	return fmt.Sprintf("%#x", key)
}

// Anomalies returns the cluster's anomaly watcher (created on first
// use, with an 8-window baseline), annotating the cluster journal. Feed
// it windows: c.Anomalies().Observe(c.Windows().Advance()).
func (c *Cluster) Anomalies() *obs.AnomalyWatcher {
	c.anomOnce.Do(func() {
		c.anoms = obs.NewAnomalyWatcher(c.Obs().Journal("cluster"), 8)
	})
	return c.anoms
}

// Accounts returns the cluster-wide per-principal account table (nil
// when the cluster was built with NoObs or NoAccounting). Do client
// work through an FS.As view and its bytes, RPCs, lock waits and cache
// misses are attributed to that principal; Snapshot() is the cluster
// "top", and each window Windows() closes holds what every principal
// was charged in it.
func (c *Cluster) Accounts() *obs.AccountTable {
	if c.Obs() == nil {
		return nil
	}
	return c.Obs().Accounts()
}

// Forensics assembles the black-box snapshot: the full merged
// timeline plus the current health report.
func (c *Cluster) Forensics(reason string) obs.ForensicsDump {
	d := obs.ForensicsDump{
		Schema:    obs.ForensicsSchema,
		TakenAtNs: int64(c.World.Clock.Now()),
		Reason:    reason,
		Events:    c.Timeline(obs.Filter{}),
	}
	for _, j := range c.Obs().Journals() {
		d.Servers = append(d.Servers, j.Server())
	}
	if c.Obs() != nil {
		rep := c.Health()
		d.Health = &rep
	}
	return d
}

// Fsck runs the offline consistency checker against the shared disk;
// quiesce (Sync) the servers first for a meaningful answer.
func (c *Cluster) Fsck() (*Report, error) {
	return fs.Check(c.Client("fsck"), sharedVDisk, c.lay)
}

// Close tears the whole cluster down.
func (c *Cluster) Close() {
	c.mu.Lock()
	servers := make(map[string]*FS, len(c.servers))
	for name, f := range c.servers {
		servers[name] = f
		delete(c.servers, name)
	}
	clients := c.clients
	c.clients = nil
	c.mu.Unlock()
	for _, f := range servers {
		if !f.Poisoned() {
			_ = f.Unmount()
		}
	}
	for _, pc := range clients {
		pc.Close()
	}
	for _, s := range c.Locks {
		s.Close()
	}
	for _, s := range c.Petals {
		s.Close()
	}
	c.World.Stop()
}
