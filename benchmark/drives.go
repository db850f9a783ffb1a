package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"frangipani/internal/cache"
	"frangipani/internal/lockservice"
	"frangipani/internal/petal"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
	"frangipani/internal/wal"
)

// Layer drives: each layer built on its own, with nothing above it, and
// its hot public calls timed from outside. They run in a traced run
// after the cluster is closed, so the process is otherwise idle. The
// *_ns and *_allocs drives read the host clock; the *_ms drives of the
// simulated layers read wall time at compression 1, where a simulated
// second is a wall second.

// driveSpan is one timed batch of a drive, written to the spans file as
// "<layer>.<call>".
type driveSpan struct {
	name       string
	start, end time.Time
}

type drives struct {
	m     map[string]float64
	spans []driveSpan
	div   int // run 1/div of each drive's iterations (the smoke test)
}

// hostCost runs fn n times in each of five batches and returns the
// median batch's ns and heap allocations per call.
func (d *drives) hostCost(name string, n int, fn func()) (ns, allocs float64) {
	const batches = 5
	var nss, as [batches]float64
	var ms runtime.MemStats
	n = max(1, n/d.div)
	for b := range batches {
		runtime.ReadMemStats(&ms)
		a0 := ms.Mallocs
		start := time.Now()
		for range n {
			fn()
		}
		end := time.Now()
		runtime.ReadMemStats(&ms)
		nss[b] = float64(end.Sub(start)) / float64(n)
		as[b] = float64(ms.Mallocs-a0) / float64(n)
		d.spans = append(d.spans, driveSpan{name, start, end})
	}
	sort.Float64s(nss[:])
	sort.Float64s(as[:])
	return nss[batches/2], as[batches/2]
}

// simCost times fn n times one by one and returns the median in ms.
func (d *drives) simCost(name string, n int, fn func() error) float64 {
	n = max(3, n/d.div)
	ds := make([]float64, 0, n)
	for range n {
		start := time.Now()
		err := fn()
		end := time.Now()
		if err != nil {
			warnf("drive %s: %v", name, err)
			return unresolved
		}
		ds = append(ds, float64(end.Sub(start))/1e6)
		d.spans = append(d.spans, driveSpan{name, start, end})
	}
	sort.Float64s(ds)
	return ds[len(ds)/2]
}

// runDrives runs every drive. A drive that cannot run leaves its
// metrics unresolved and says why on standard error.
func runDrives(div int) *drives {
	d := &drives{m: map[string]float64{}, div: div}
	for _, name := range []string{
		"wal.append_ns", "wal.append_allocs", "wal.flush_ns",
		"cache.lookup_hit_ns", "cache.insert_evict_ns", "cache.insert_evict_allocs",
		"lock.cached_acquire_ns", "lock.cached_acquire_allocs", "lock.cold_acquire_ms", "lock.revoke_roundtrip_ms",
		"petal.writev_1mb_ms", "petal.readv_1mb_ms", "petal.readv_4k_ms",
		"rpc.sim_call_ms", "rpc.tcp_call_us", "rpc.tcp_call_allocs", "rpc.tcp_1mb_MBps",
	} {
		d.m[name] = unresolved
	}
	for _, drive := range []struct {
		name string
		run  func()
	}{
		{"wal", d.wal}, {"cache", d.cache}, {"lock", d.lock}, {"petal", d.petal}, {"rpc sim", d.rpcSim}, {"rpc tcp", d.rpcTCP},
	} {
		func() {
			// The TCP carrier panics when it cannot listen; a sandbox
			// without loopback must not take the benchmark down.
			defer func() {
				if r := recover(); r != nil {
					warnf("%s drive did not run: %v", drive.name, r)
				}
			}()
			drive.run()
		}()
	}
	return d
}

// memRegion is a log region in memory.
type memRegion []byte

func (r memRegion) ReadAt(p []byte, off int64) error  { copy(p, r[off:]); return nil }
func (r memRegion) WriteAt(p []byte, off int64) error { copy(r[off:], p); return nil }

// wal: append a one-update record (an inode-sized change), and flush
// every 16 appends, releasing what was flushed so the log never fills.
func (d *drives) wal() {
	log := wal.New(make(memRegion, wal.DefaultLogSize), wal.DefaultLogSize)
	ups := []wal.Update{{Addr: 4096, Off: 0, Data: make([]byte, 128), Ver: 1}}
	var seq int64
	flush := func() {
		_ = log.Flush() // a memory region cannot fail
		log.Release(seq)
	}
	i := 0
	d.m["wal.append_ns"], d.m["wal.append_allocs"] = d.hostCost("wal.append", 20000, func() {
		ups[0].Ver++
		seq, _ = log.Append(ups)
		if i++; i%16 == 0 {
			flush()
		}
	})
	d.m["wal.flush_ns"], _ = d.hostCost("wal.flush", 2000, func() {
		for range 16 {
			ups[0].Ver++
			seq, _ = log.Append(ups)
		}
		flush()
	})
}

// cache: look up resident pages; insert into a full pool, which evicts.
func (d *drives) cache() {
	const capacity = 1024
	pool := cache.NewPool(recSize, capacity)
	page := make([]byte, recSize)
	for i := range int64(capacity) {
		pool.Insert(i*recSize, page, 1)
	}
	i := int64(0)
	d.m["cache.lookup_hit_ns"], _ = d.hostCost("cache.lookup", 200000, func() {
		pool.Lookup((i * 7919 % capacity) * recSize)
		i++
	})
	next := int64(capacity)
	d.m["cache.insert_evict_ns"], d.m["cache.insert_evict_allocs"] = d.hostCost("cache.insert", 50000, func() {
		pool.Insert(next*recSize, page, 1)
		next++
	})
}

// lock: a bare world with three lock servers and two clerks, no file
// system above them.
func (d *drives) lock() {
	w := sim.NewWorld(1, 1)
	defer w.Stop()
	names := []string{"lock0", "lock1", "lock2"}
	cfg := lockservice.DefaultConfig()
	for _, n := range names {
		s := lockservice.NewServer(w, n, names, cfg)
		defer s.Close()
	}
	var clerks [2]*lockservice.Clerk
	for i := range clerks {
		c := lockservice.NewClerk(w, fmt.Sprintf("drive%d", i), "drive", names, cfg)
		c.SetCallbacks(func(uint64, lockservice.Mode) {}, func(string, int) error { return nil }, func() {})
		if err := c.Open(); err != nil {
			warnf("lock drive: open clerk: %v", err)
			return
		}
		defer c.Close()
		clerks[i] = c
	}
	a, b := clerks[0], clerks[1]

	next := uint64(1000)
	d.m["lock.cold_acquire_ms"] = d.simCost("lock.cold_acquire", 30, func() error {
		next++
		err := a.Lock(next, lockservice.Exclusive)
		a.Unlock(next)
		return err
	})
	// The grant stays cached after Unlock, so the other clerk's request
	// costs a revoke, a release and a grant.
	holder, other := a, b
	d.m["lock.revoke_roundtrip_ms"] = d.simCost("lock.revoke_roundtrip", 30, func() error {
		holder, other = other, holder
		err := holder.Lock(1, lockservice.Exclusive)
		holder.Unlock(1)
		return err
	})
	if err := a.Lock(2, lockservice.Exclusive); err != nil {
		warnf("lock drive: %v", err)
		return
	}
	a.Unlock(2)
	d.m["lock.cached_acquire_ns"], d.m["lock.cached_acquire_allocs"] = d.hostCost("lock.cached_acquire", 100000, func() {
		_ = a.Lock(2, lockservice.Exclusive) // held sticky: no wire, cannot fail
		a.Unlock(2)
	})
}

// petal: three servers shaped like the cluster's, driven through ReadV
// and WriteV only.
func (d *drives) petal() {
	w := sim.NewWorld(1, 1)
	defer w.Stop()
	names := []string{"petal0", "petal1", "petal2"}
	cfg := petal.DefaultServerConfig(256 << 20)
	cfg.NumDisks = 3
	cfg.NVRAM = nvramBytes
	for _, n := range names {
		s := petal.NewServer(w, n, names, cfg)
		defer s.Close()
	}
	pc := petal.NewClient(w, "drive", names)
	defer pc.Close()
	const vd = "drive"
	if err := pc.CreateVDisk(vd); err != nil {
		warnf("petal drive: create vdisk: %v", err)
		return
	}
	buf := make([]byte, 1<<20)
	var wexts []petal.Extent
	var rexts []petal.ReadExtent
	for off := 0; off < len(buf); off += streamRec {
		wexts = append(wexts, petal.Extent{Off: int64(off), Data: buf[off : off+streamRec]})
		rexts = append(rexts, petal.ReadExtent{Off: int64(off), Dst: buf[off : off+streamRec]})
	}
	d.m["petal.writev_1mb_ms"] = d.simCost("petal.writev_1mb", 7, func() error { return pc.WriteV(vd, wexts) })
	d.m["petal.readv_1mb_ms"] = d.simCost("petal.readv_1mb", 7, func() error { return pc.ReadV(vd, rexts) })
	small := []petal.ReadExtent{{Off: 0, Dst: buf[:recSize]}}
	i := int64(0)
	d.m["petal.readv_4k_ms"] = d.simCost("petal.readv_4k", 30, func() error {
		small[0].Off = (i * 37 % 256) * recSize
		i++
		return pc.ReadV(vd, small)
	})
}

// echoHandler answers a scatter-gather write without storing it.
func echoHandler(_ string, body any) any {
	rpc.Release(body)
	return petal.WriteVResp{OK: true}
}

func echoCall(ep *rpc.Endpoint, to string, req petal.WriteVReq) error {
	r, err := ep.Call(to, req, 10*time.Second)
	if err == nil {
		if resp, ok := r.(petal.WriteVResp); !ok || !resp.OK {
			err = fmt.Errorf("echo answered %T", r)
		}
	}
	return err
}

// rpcSim: one small call and its reply over the simulated network.
func (d *drives) rpcSim() {
	w := sim.NewWorld(1, 1)
	defer w.Stop()
	carrier := rpc.SimCarrier{Net: w.Net}
	a := rpc.NewEndpoint("a", carrier, w.Clock, nil)
	defer a.Close()
	b := rpc.NewEndpoint("b", carrier, w.Clock, echoHandler)
	defer b.Close()
	req := petal.WriteVReq{VDisk: "drive", Extents: []petal.WriteVExtent{{Data: make([]byte, 64)}}}
	d.m["rpc.sim_call_ms"] = d.simCost("rpc.sim_call", 50, func() error { return echoCall(a, "b", req) })
}

// rpcTCP: the same call over the loopback TCP carrier, which is real
// host time with no modelled sleeps, then a 1 MB payload for bandwidth.
func (d *drives) rpcTCP() {
	carrier := rpc.NewTCPCarrier()
	defer carrier.Close()
	clock := sim.NewClock(1)
	defer clock.Stop()
	a := rpc.NewEndpoint("a", carrier, clock, nil)
	defer a.Close()
	b := rpc.NewEndpoint("b", carrier, clock, echoHandler)
	defer b.Close()
	var failed error
	call := func(req petal.WriteVReq) func() {
		return func() {
			if err := echoCall(a, "b", req); err != nil && failed == nil {
				failed = err
			}
		}
	}
	small := petal.WriteVReq{VDisk: "drive", Extents: []petal.WriteVExtent{{Data: make([]byte, 64)}}}
	ns, allocs := d.hostCost("rpc.tcp_call", 2000, call(small))
	big := petal.WriteVReq{VDisk: "drive", Extents: []petal.WriteVExtent{{Data: make([]byte, 1<<20)}}}
	bigNs, _ := d.hostCost("rpc.tcp_1mb", 40, call(big))
	if failed != nil {
		warnf("rpc tcp drive: %v", failed)
		return
	}
	d.m["rpc.tcp_call_us"], d.m["rpc.tcp_call_allocs"] = ns/1e3, allocs
	d.m["rpc.tcp_1mb_MBps"] = 1e9 / bigNs // 1 MB per call
}
