package bench

import (
	"fmt"
	"io"
	"time"

	"frangipani"
	"frangipani/internal/fs"
	"frangipani/internal/obs"
	"frangipani/internal/sim"
	"frangipani/internal/workload"
)

// scaleRes is one measured point of the big-N sweep.
type scaleRes struct {
	n          int
	streams    int          // client streams driving this point
	elapsed    sim.Duration // measured window
	readBytes  int64
	writeBytes int64
	creates    int64
	readP50    sim.Duration // per 64 KB record
	readP99    sim.Duration
	createP50  sim.Duration // per create+write
	createP99  sim.Duration
	renewStd   int64 // standalone RenewMsg calls sent in the window
	renewPig   int64 // renewals piggybacked on batches in the window
	renewElid  int64 // standalone calls elided at renewal ticks
	events     []obs.Event
}

func (r *scaleRes) readMBps() float64  { return mbps(r.readBytes, r.elapsed) }
func (r *scaleRes) writeMBps() float64 { return mbps(r.writeBytes, r.elapsed) }

// ScaleSweep measures how aggregate read and write throughput scale
// as Frangipani machines are added far past the paper's 8-machine
// testbed: 8/16/32 machines (plus 64 and 128 in full mode), each
// running its own directory tree of read streams (uncached, Figure
// 6's shape) and file-creating write streams (Figure 7's shape, kept
// creating so lock traffic never goes quiescent) — about two thousand
// client streams across the full sweep. Petal servers scale with the
// machines (N/2); lock servers stay fixed at 4, which is exactly the
// point: per-server lease-renewal load must be O(1) in N because busy
// clerks piggyback renewals on their batch traffic instead of sending
// standalone RenewMsg RPCs.
//
// Gates (checked 8 -> 32, both present in quick and full mode):
//   - aggregate read throughput scales >= 0.7x linear;
//   - aggregate write throughput scales >= 0.7x linear;
//   - in every run's measured window the busy clerks send ZERO
//     standalone renewal RPCs while piggybacking > 0 renewals —
//     standalone renewal load per lock server per second is 0,
//     independent of N.
//
// Run by `make bench-smoke` in quick mode (8/16/32).
func (o Options) ScaleSweep() (*Table, error) {
	ns := []int{8, 16, 32, 64, 128}
	if o.Quick {
		ns = []int{8, 16, 32}
	}
	t := &Table{
		ID:    "Scale sweep",
		Title: "Read/write throughput and renewal load vs. Frangipani machines (big N)",
		Header: []string{"Machines", "Streams", "Read MB/s", "Read eff", "Write MB/s", "Write eff",
			"Read p99 (ms)", "Create p99 (ms)", "Renew std/srv/s", "Piggyback"},
		Notes: "Gates: read and write throughput >= 0.7x linear 8->32; busy clerks send 0 standalone renewal RPCs (100% piggybacked on batches).",
	}
	var results []*scaleRes
	for _, n := range ns {
		r, err := o.scaleRun(n)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}

	base := results[0]
	var r32 *scaleRes
	for _, r := range results {
		lin := float64(r.n) / float64(base.n)
		readEff := r.readMBps() / (base.readMBps() * lin)
		writeEff := r.writeMBps() / (base.writeMBps() * lin)
		stdRate := float64(r.renewStd) / 4 / r.elapsed.Seconds()
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.n),
			fmt.Sprint(r.streams),
			fmt.Sprintf("%.1f", r.readMBps()),
			fmt.Sprintf("%.0f%%", readEff*100),
			fmt.Sprintf("%.2f", r.writeMBps()),
			fmt.Sprintf("%.0f%%", writeEff*100),
			ms(r.readP99),
			ms(r.createP99),
			fmt.Sprintf("%.2f", stdRate),
			fmt.Sprint(r.renewPig),
		})
		if r.n == 32 {
			r32 = r
		}
	}

	for _, r := range results {
		if r.renewStd != 0 {
			return nil, r.fail(fmt.Errorf(
				"scale-sweep: %d standalone renewal RPCs at N=%d — busy clerks must piggyback 100%% of renewals (piggybacked=%d elided=%d)",
				r.renewStd, r.n, r.renewPig, r.renewElid))
		}
		if r.renewPig == 0 {
			return nil, r.fail(fmt.Errorf(
				"scale-sweep: no piggybacked renewals at N=%d — the batch piggyback path never fired", r.n))
		}
	}
	if r32 == nil {
		return nil, fmt.Errorf("scale-sweep: no 32-machine point measured")
	}
	readEff := r32.readMBps() / (base.readMBps() * 4)
	if readEff < 0.7 {
		return nil, r32.fail(fmt.Errorf(
			"scale-sweep: read throughput scaled only %.0f%% of linear from 8 to 32 machines (want >= 70%%): %.1f -> %.1f MB/s",
			readEff*100, base.readMBps(), r32.readMBps()))
	}
	writeEff := r32.writeMBps() / (base.writeMBps() * 4)
	if writeEff < 0.7 {
		return nil, r32.fail(fmt.Errorf(
			"scale-sweep: write throughput scaled only %.0f%% of linear from 8 to 32 machines (want >= 70%%): %.2f -> %.2f MB/s",
			writeEff*100, base.writeMBps(), r32.writeMBps()))
	}
	return t, nil
}

// scaleRun measures one sweep point: n machines, each with its own
// directory tree of read and write streams, on a fresh cluster whose
// Petal tier scales with n and whose lock tier is fixed at 4 servers.
func (o Options) scaleRun(n int) (*scaleRes, error) {
	const (
		// A shortened lease makes renewal ticks (LeaseDuration/3)
		// land several times inside the measured window, so elision
		// is actually exercised; the margin shrinks with it (the
		// default 15 s margin would exceed the whole lease).
		lease  = 12 * time.Second
		margin = 3 * time.Second
		// Each read stream re-reads its private file; the data cache
		// below is smaller than the per-machine read working set, so
		// every pass misses to Petal (Figure 6's uncached shape).
		readFileBytes = int64(256 << 10)
		recSize       = 64 << 10
		// Write streams create a NEW file each iteration: creation
		// acquires fresh inode locks, which is what keeps batch
		// traffic flowing for renewals to ride on (steady-state
		// rewrites of sticky-locked files generate no lock traffic
		// at all). The gap bounds file count and host load while
		// leaving op latency a visible fraction of the period.
		payloadBytes = 4096
		createGap    = 25 * time.Millisecond
		lockServers  = 4
	)
	readStreams, writeStreams := 4, 4
	warmup := 3 * time.Second
	window := 10 * time.Second
	if o.Quick {
		readStreams, writeStreams = 2, 2
		window = 8 * time.Second
	}

	// Dilate the clock in proportion to N: aggregate simulated work
	// grows linearly with the machines, so a fixed compression would
	// saturate the host at the big points (CI runs this on a single
	// core) and host stalls would masquerade as simulated latency.
	// Scaling compression as 1/N keeps host work per real second
	// roughly constant across the sweep.
	comp := o.ScalingCompression
	if comp <= 0 {
		comp = o.Compression
	}
	if n > 8 {
		comp = comp * 8 / float64(n)
	}
	opts := o
	opts.Compression = comp

	c, err := opts.newCluster(true, func(cfg *frangipani.ClusterConfig) {
		cfg.LockServers = lockServers
		cfg.PetalServers = n / 2
		if cfg.PetalServers < 4 {
			cfg.PetalServers = 4
		}
		cfg.DisksPerServer = 2
		cfg.Seed = int64(31 + n)
		cfg.FSConfig.Lock.LeaseDuration = lease
		cfg.FSConfig.LeaseMargin = margin
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	w := c.World

	servers, err := mountN(c, n, func(cfg *frangipani.Config) {
		cfg.Lock.LeaseDuration = lease
		cfg.LeaseMargin = margin
		cfg.DataCacheCap = 64 // 256 KB: thrashed by the read streams
		cfg.ReadAhead = 8
	})
	if err != nil {
		return nil, err
	}
	// One directory per stream: directory updates are serialized
	// ACROSS machines by the directory's exclusive lock, but a clerk
	// grants its cached exclusive lock to any number of local users
	// (the paper's deployment leaves same-machine serialization to
	// the kernel), so concurrent streams must not mutate one
	// directory.
	dir := func(i int) string { return fmt.Sprintf("/ws%d", i+1) }
	readPath := func(i, k int) string { return fmt.Sprintf("%s/r%d/data", dir(i), k) }
	writeDir := func(i, k int) string { return fmt.Sprintf("%s/w%d", dir(i), k) }
	// Pre-create each machine's directory tree and read set in
	// parallel: private trees, so only the allocator and Petal are
	// shared.
	setup := make(chan error, n)
	for i, f := range servers {
		go func(i int, f *fs.FS) {
			if err := f.Mkdir(dir(i)); err != nil {
				setup <- err
				return
			}
			for k := 0; k < writeStreams; k++ {
				if err := f.Mkdir(writeDir(i, k)); err != nil {
					setup <- err
					return
				}
			}
			for k := 0; k < readStreams; k++ {
				if err := f.Mkdir(fmt.Sprintf("%s/r%d", dir(i), k)); err != nil {
					setup <- err
					return
				}
				if _, err := workload.SeqWrite(workload.Frangipani{FS: f}, w.Clock, readPath(i, k), readFileBytes, recSize); err != nil {
					setup <- err
					return
				}
			}
			setup <- f.Sync()
		}(i, f)
	}
	for range servers {
		if err := <-setup; err != nil {
			return nil, err
		}
	}

	run := workload.NewRunner(w.Clock, 2)
	for i, f := range servers {
		for k := 0; k < readStreams; k++ {
			h, err := f.Open(readPath(i, k))
			if err != nil {
				run.Stop()
				return nil, fmt.Errorf("reader ws%d.%d: %v", i+1, k, err)
			}
			buf, off := make([]byte, recSize), int64(0)
			run.Go(0, func() (int64, error) {
				m, err := h.ReadAt(buf, off)
				if err != nil && err != io.EOF {
					return 0, fmt.Errorf("reader ws%d.%d off %d: %v", i+1, k, off, err)
				}
				if off += int64(recSize); off >= readFileBytes {
					off = 0
				}
				return int64(m), nil
			}, nil)
		}
		for k := 0; k < writeStreams; k++ {
			data, seq := make([]byte, payloadBytes), 0
			run.Go(1, func() (int64, error) {
				h, err := f.OpenFile(fmt.Sprintf("%s/f%d", writeDir(i, k), seq), true)
				if err == nil {
					_, err = h.WriteAt(data, 0)
				}
				if err != nil {
					return 0, fmt.Errorf("writer ws%d.%d seq %d: %v", i+1, k, seq, err)
				}
				seq++
				return int64(len(data)), nil
			}, func() { w.Clock.Sleep(createGap) })
		}
	}

	snap := func() (std, pig, elid int64) {
		for i := range servers {
			m := fmt.Sprintf("ws%d", i+1)
			std += w.Obs.Counter("lockservice.renew.standalone#" + m).Value()
			pig += w.Obs.Counter("lockservice.renew.piggyback#" + m).Value()
			elid += w.Obs.Counter("lockservice.renew.elided#" + m).Value()
		}
		return
	}

	// Warm up (caches primed, sticky locks settled, first renewal
	// ticks absorbed), then measure.
	w.Clock.Sleep(warmup)
	std0, pig0, elid0 := snap()
	run.Measure(window)
	std1, pig1, elid1 := snap()
	groups, err := run.Stop()
	reads, creates := groups[0], groups[1]

	res := &scaleRes{
		n:          n,
		streams:    n * (readStreams + writeStreams),
		elapsed:    reads.Elapsed,
		readBytes:  reads.Bytes,
		writeBytes: creates.Bytes,
		creates:    creates.Ops,
		readP50:    reads.Pct(50),
		readP99:    reads.Pct(99),
		createP50:  creates.Pct(50),
		createP99:  creates.Pct(99),
		renewStd:   std1 - std0,
		renewPig:   pig1 - pig0,
		renewElid:  elid1 - elid0,
		events:     obs.MergeTimeline(w.Obs.Journals(), obs.Filter{Layer: "lockservice"}),
	}
	if err != nil {
		return nil, res.fail(fmt.Errorf("scale-sweep: %w", err))
	}
	if res.readBytes == 0 || res.creates == 0 {
		return nil, res.fail(fmt.Errorf("scale-sweep: idle measured window at N=%d (read %d B, %d creates)", n, res.readBytes, res.creates))
	}
	return res, nil
}

// fail dumps the lockservice timeline of r so a failed CI run leaves
// the evidence behind, then returns err.
func (r *scaleRes) fail(err error) error {
	return failDump("scale-sweep", err, obs.ForensicsDump{Events: r.events}, nil)
}
