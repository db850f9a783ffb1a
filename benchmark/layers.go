package main

import (
	"strings"
	"sync"

	"frangipani/internal/lockservice"
	"frangipani/internal/obs"
	"frangipani/internal/petal"
)

// Per-layer counts are deltas of what the program already exports, read
// by name at the window's two edges: the obs registry's snapshot (every
// "#instance" of a name summed) and the simulator's own statistics. A
// name that is gone reads as unresolved with one warning, so a later
// change that renames or removes a counter needs no edit here.

// unresolved is reported for a metric that could not be measured: a
// counter that no longer exists, a latency with no samples, a drive
// that could not run.
const unresolved = -1.0

// layerSnap is every count at one instant; layerDelta is end - start.
type layerSnap struct {
	counters map[string]int64 // counter name without instance -> sum
	histSums map[string]int64 // histogram name without instance -> sum of samples, ns
	// From the simulator, not the registry.
	netMsgs, netBytes                            int64
	diskReads, diskWrites, diskBytes, diskWBytes int64
}

type layerDelta = layerSnap

func (b *bed) readLayers() layerSnap {
	s := layerSnap{counters: map[string]int64{}, histSums: map[string]int64{}}
	snap := b.cluster.Obs().Snapshot() // empty when the cluster has no registry
	for name, v := range snap.Counters {
		s.counters[baseName(name)] += v
	}
	for name, h := range snap.Histograms {
		s.histSums[baseName(name)] += h.Sum
	}
	s.netMsgs, _, s.netBytes = b.cluster.World.Net.Stats()
	for _, p := range b.cluster.Petals {
		for _, d := range p.Disks() {
			r, w, rb, wb := d.Stats()
			s.diskReads, s.diskWrites = s.diskReads+r, s.diskWrites+w
			s.diskBytes, s.diskWBytes = s.diskBytes+rb+wb, s.diskWBytes+wb
		}
	}
	return s
}

func baseName(name string) string {
	if i := strings.IndexByte(name, '#'); i >= 0 {
		return name[:i]
	}
	return name
}

func (s layerSnap) sub(old layerSnap) layerDelta {
	d := layerSnap{counters: map[string]int64{}, histSums: map[string]int64{},
		netMsgs: s.netMsgs - old.netMsgs, netBytes: s.netBytes - old.netBytes,
		diskReads: s.diskReads - old.diskReads, diskWrites: s.diskWrites - old.diskWrites,
		diskBytes: s.diskBytes - old.diskBytes, diskWBytes: s.diskWBytes - old.diskWBytes}
	for name, v := range s.counters {
		d.counters[name] = v - old.counters[name]
	}
	for name, v := range s.histSums {
		d.histSums[name] = v - old.histSums[name]
	}
	return d
}

// resetSimStats opens the utilization window of the simulated links and
// CPUs, which report a busy share since their last reset. The network's
// message counters restart with it, so the window's first readLayers
// comes after this.
func (b *bed) resetSimStats() {
	w := b.cluster.World
	w.Net.ResetStats()
	for _, cl := range b.clients {
		w.CPU(cl.fs.Machine()).ResetStats()
	}
}

// simShares reads the busiest link's share and the file servers' mean
// CPU share since resetSimStats.
func (b *bed) simShares() (link, cpu float64) {
	c := b.cluster
	var hosts []string
	for _, cl := range b.clients {
		m := cl.fs.Machine()
		hosts = append(hosts, petal.ClientAddr(m), lockservice.ClerkAddr(m))
		cpu += c.World.CPU(m).Utilization() / numClients
	}
	for _, n := range c.PetalServerNames() {
		hosts = append(hosts, petal.DataAddr(n))
	}
	for _, n := range c.LockServerNames() {
		hosts = append(hosts, lockservice.Addr(n))
	}
	for _, h := range hosts {
		tx, rx := c.World.Net.LinkUtilization(h)
		link = max(link, tx, rx)
	}
	return link, cpu
}

var (
	warnedMu sync.Mutex
	warned   = map[string]bool{}
)

// count returns the delta of a named counter, or unresolved.
func (d layerDelta) count(name string) float64 {
	return lookup(d.counters, name)
}

// optional is count for a counter whose removal is planned (the
// single-extent Petal RPCs): gone means zero, not unresolved.
func (d layerDelta) optional(name string) float64 {
	return float64(d.counters[name])
}

func (d layerDelta) histSum(name string) float64 {
	return lookup(d.histSums, name)
}

func lookup(m map[string]int64, name string) float64 {
	v, ok := m[name]
	if !ok {
		warnedMu.Lock()
		if !warned[name] {
			warned[name] = true
			warnf("the program exports no %q; metrics built on it are unresolved (-1)", name)
		}
		warnedMu.Unlock()
		return unresolved
	}
	return float64(v)
}

// sum adds counts, unresolved if any is.
func sum(vs ...float64) float64 {
	t := 0.0
	for _, v := range vs {
		if v == unresolved {
			return unresolved
		}
		t += v
	}
	return t
}

// per divides a count by a base; 0/0 is 0, and anything over an
// unresolved or by an unresolved stays unresolved.
func per(num, den float64) float64 {
	switch {
	case num == unresolved || den == unresolved:
		return unresolved
	case den == 0:
		return 0
	}
	return num / den
}

// layerMetrics turns a window into the per-layer metrics that come from
// counts and from the benchmark's own timing of the public calls. The
// drives, the critical path and the obs overhead are added by the
// caller.
func (b *bed) layerMetrics(w window) map[string]float64 {
	d := w.layers
	ops := float64(w.ops)
	userBytes := float64(w.bytesRead + w.bytesWrote)
	link, cpu := b.simShares()
	m := map[string]float64{}
	for _, k := range []opKind{opCreate, opMkdir, opStat, opReaddir, opRead, opWrite, opFsync, opRemove, opRename} {
		m["fs."+k.String()+"_p50_ms"] = nsToMs(quantile(w.lat[k], 0.5))
	}
	m["fs.retries_per_op"] = per(d.count("fs.retry.count"), ops)
	m["fs.flush_pages_per_batch"] = per(d.count("fs.flush.pages"), d.count("fs.flush.batches"))
	// Prefetch windows that landed over those that landed or were thrown
	// away; the program counts the discarded ones in bytes, so they are
	// converted at the default 64-page window.
	landed := d.count("fs.readahead.hits")
	m["fs.readahead_hit_ratio"] = per(landed, sum(landed, per(d.count("fs.readahead.wasted"), 64*recSize)))

	flushes := d.count("wal.flushes")
	merges := d.count("wal.groupcommit.merges")
	m["wal.bytes_per_op"] = per(d.count("wal.wrote.bytes"), ops)
	m["wal.bytes_per_user_byte"] = per(d.count("wal.wrote.bytes"), userBytes)
	m["wal.flushes_per_op"] = per(flushes, ops)
	m["wal.group_merge_ratio"] = per(merges, sum(flushes, merges))
	m["wal.stall_reclaims"] = d.count("wal.reclaim.stall")

	hits := d.count("cache.hits")
	m["cache.hit_ratio"] = per(hits, sum(hits, d.count("cache.misses")))
	m["cache.evictions_per_op"] = per(d.count("cache.evictions"), ops)

	m["lock.wire_requests_per_op"] = per(d.count("lockservice.server.requests"), ops)
	m["lock.revokes_per_op"] = per(d.count("lockservice.server.revokes"), ops)
	m["lock.acquire_wait_ms_per_op"] = nsToMs(per(d.histSum("lockservice.acquire.latency"), ops))
	m["lock.ops_per_batch"] = per(d.count("lockservice.clerk.batched_ops"), d.count("lockservice.clerk.batches"))
	m["lock.renew_standalone"] = d.count("lockservice.renew.standalone")

	readvs, writevs := d.count("petal.readv.rpcs"), d.count("petal.writev.rpcs")
	m["petal.read_rpcs_per_op"] = per(sum(d.optional("petal.read.rpcs"), readvs), ops)
	m["petal.write_rpcs_per_op"] = per(sum(d.optional("petal.write.rpcs"), writevs), ops)
	m["petal.extents_per_readv"] = per(d.count("petal.readv.extents"), readvs)
	m["petal.extents_per_writev"] = per(d.count("petal.writev.extents"), writevs)
	m["petal.server_requests_per_op"] = per(d.count("petal.server.requests"), ops)
	m["petal.bytes_written_per_user_byte"] = per(float64(d.diskWBytes), float64(w.bytesWrote))
	m["petal.refresh_rpcs"] = d.count("petal.refresh.rpcs")

	m["rpc.msgs_per_op"] = per(float64(d.netMsgs), ops)
	m["rpc.wire_bytes_per_user_byte"] = per(float64(d.netBytes), userBytes)

	m["sim.disk_writes_per_op"] = per(float64(d.diskWrites), ops)
	m["sim.disk_reads_per_op"] = per(float64(d.diskReads), ops)
	m["sim.disk_bytes_per_user_byte"] = per(float64(d.diskBytes), userBytes)
	m["sim.link_busy_share"] = link
	m["sim.cpu_busy_share"] = cpu
	return m
}

func nsToMs(ns float64) float64 {
	if ns == unresolved {
		return unresolved
	}
	return ns / 1e6
}

// critPath reads the program's own tracer, which is on as shipped, and
// reports where an fsync and a create spend their time: each layer's
// mean self time per traced call.
func critPath(reg *obs.Registry, m map[string]float64) {
	cp := obs.NewCritPath()
	if reg != nil {
		cp.AddTracer(reg.Tracer(), 0)
	}
	for _, root := range []string{"fsync", "create"} {
		rootOp := "fs." + root
		n := float64(cp.Count(rootOp))
		self := map[string]float64{}
		for _, e := range cp.Profile(rootOp) {
			layer, _, _ := strings.Cut(e.Name, ".")
			self[layer] += float64(e.SelfNs)
		}
		for _, layer := range []string{"fs", "wal", "lockservice", "petal", "rpc"} {
			v := unresolved
			if n > 0 {
				v = self[layer] / n / 1e6
			}
			m["critpath."+root+"."+layer+"_self_ms"] = v
		}
		m["critpath."+root+".coverage"] = unresolved
		if n > 0 {
			m["critpath."+root+".coverage"] = cp.Coverage(rootOp)
		}
	}
}
