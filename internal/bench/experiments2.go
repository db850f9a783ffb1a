package bench

import (
	"fmt"
	"time"

	"frangipani"
	"frangipani/internal/fs"
	"frangipani/internal/sim"
	"frangipani/internal/workload"
)

// Fig6ReadScaling reproduces Figure 6: aggregate uncached-read
// throughput as machines are added, each reading the same file set
// (cold caches), against the linear-speedup reference.
func (o Options) Fig6ReadScaling() (*Table, error) {
	t := &Table{
		ID:     "Figure 6",
		Title:  "Uncached read throughput vs. Frangipani machines",
		Header: []string{"Machines", "Aggregate MB/s", "Linear ref", "Efficiency"},
		Notes:  "Paper: near-linear scaling until the Petal servers' links saturate.",
	}
	perMachine := o.seqBytes()
	var base float64
	os := o.scaled()
	for n := 1; n <= o.MaxMachines; n++ {
		c, err := os.newCluster(true, nil)
		if err != nil {
			return nil, err
		}
		// A writer machine creates the shared file set, then n fresh
		// readers (cold caches) stream it simultaneously.
		wf, err := c.AddServer("writer")
		if err != nil {
			c.Close()
			return nil, err
		}
		path := "/shared.dat"
		if _, err := workload.SeqWrite(workload.Frangipani{FS: wf}, c.World.Clock, path, perMachine, 64<<10); err != nil {
			c.Close()
			return nil, err
		}
		if err := wf.Sync(); err != nil {
			c.Close()
			return nil, err
		}
		readers, err := mountN(c, n, nil)
		if err != nil {
			c.Close()
			return nil, err
		}
		type res struct {
			bytes int64
			err   error
		}
		ch := make(chan res, n)
		start := c.World.Clock.Now()
		for _, r := range readers {
			go func(r *fs.FS) {
				bytes, _, err := workload.SeqRead(workload.Frangipani{FS: r}, c.World.Clock, path, 64<<10)
				ch <- res{bytes, err}
			}(r)
		}
		var total int64
		for range readers {
			r := <-ch
			if r.err != nil {
				c.Close()
				return nil, r.err
			}
			total += r.bytes
		}
		elapsed := sim.Duration(c.World.Clock.Now() - start)
		c.Close()
		agg := mbps(total, elapsed)
		if n == 1 {
			base = agg
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.1f", agg),
			fmt.Sprintf("%.1f", base*float64(n)),
			fmt.Sprintf("%.0f%%", agg/(base*float64(n))*100),
		})
	}
	return t, nil
}

// Fig7WriteScaling reproduces Figure 7: aggregate write throughput,
// each machine writing a private large file. With replication every
// client write becomes two Petal writes, so saturation arrives at
// roughly half the read ceiling; the noReplicate ablation shows the
// difference.
func (o Options) Fig7WriteScaling(noReplicate bool) (*Table, error) {
	id := "Figure 7"
	if noReplicate {
		id = "Figure 7 (ablation: replication off)"
	}
	t := &Table{
		ID:     id,
		Title:  "Write throughput vs. Frangipani machines (private files)",
		Header: []string{"Machines", "Aggregate MB/s", "Linear ref", "Efficiency"},
		Notes:  "Paper: scales until the Petal servers' ATM links saturate; replication doubles the Petal-side write load.",
	}
	perMachine := o.seqBytes()
	var base float64
	os := o.scaled()
	for n := 1; n <= o.MaxMachines; n++ {
		c, err := os.newCluster(true, nil)
		if err != nil {
			return nil, err
		}
		if noReplicate {
			// Rebuild with the ablation knob.
			c.Close()
			c, err = os.newClusterNoReplicate()
			if err != nil {
				return nil, err
			}
		}
		writers, err := mountN(c, n, nil)
		if err != nil {
			c.Close()
			return nil, err
		}
		// Pre-create the files so the measured window holds only
		// steady-state writing, not the root-directory create dance.
		for i, w := range writers {
			if err := w.Create(fmt.Sprintf("/private%d.dat", i)); err != nil {
				c.Close()
				return nil, err
			}
		}
		ch := make(chan error, n)
		start := c.World.Clock.Now()
		for i, w := range writers {
			go func(i int, w *fs.FS) {
				_, err := workload.SeqWrite(workload.Frangipani{FS: w}, c.World.Clock,
					fmt.Sprintf("/private%d.dat", i), perMachine, 64<<10)
				ch <- err
			}(i, w)
		}
		for range writers {
			if err := <-ch; err != nil {
				c.Close()
				return nil, err
			}
		}
		elapsed := sim.Duration(c.World.Clock.Now() - start)
		c.Close()
		agg := mbps(perMachine*int64(n), elapsed)
		if n == 1 {
			base = agg
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.1f", agg),
			fmt.Sprintf("%.1f", base*float64(n)),
			fmt.Sprintf("%.0f%%", agg/(base*float64(n))*100),
		})
	}
	return t, nil
}

func (o Options) newClusterNoReplicate() (*frangipani.Cluster, error) {
	cfg := frangipani.DefaultClusterConfig()
	cfg.Compression = o.Compression
	cfg.PetalServers = o.PetalServers
	cfg.DisksPerServer = o.DisksPerServer
	cfg.DiskCapacity = 2 << 30
	cfg.NVRAM = 8 << 20
	cfg.NoReplicate = true
	return frangipani.NewCluster(cfg)
}

// Fig8Contention reproduces Figure 8: read throughput of N readers
// against one writer on a shared file, with and without read-ahead.
func (o Options) Fig8Contention() (*Table, error) {
	t := &Table{
		ID:     "Figure 8",
		Title:  "Reader/writer contention: aggregate read MB/s",
		Header: []string{"Readers", "No read-ahead", "With read-ahead"},
		Notes:  "Paper: WITH read-ahead throughput flattens near 2 MB/s (prefetched data is invalidated before delivery); WITHOUT read-ahead it scales.",
	}
	maxReaders := o.MaxMachines
	if maxReaders > 6 {
		maxReaders = 6
	}
	for n := 1; n <= maxReaders; n++ {
		var cols [2]float64
		for mode, ra := range []int{0, 8} {
			v, err := o.contentionRun(n, ra, 64<<10)
			if err != nil {
				return nil, err
			}
			cols[mode] = v
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.2f", cols[0]),
			fmt.Sprintf("%.2f", cols[1]),
		})
	}
	return t, nil
}

// contentionRun measures aggregate reader throughput for one
// configuration of the Figure 8/9 rig.
func (o Options) contentionRun(readers, readAhead, writeBytes int) (float64, error) {
	c, err := o.newCluster(true, nil)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	writer, err := c.AddServerWithConfig("writer", contentionFSConfig(readAhead))
	if err != nil {
		return 0, err
	}
	fileSize := int64(1 << 20)
	if _, err := workload.SeqWrite(workload.Frangipani{FS: writer}, c.World.Clock, "/hot", fileSize, 64<<10); err != nil {
		return 0, err
	}
	if err := writer.Sync(); err != nil {
		return 0, err
	}
	var rfs []workload.FS
	for i := 0; i < readers; i++ {
		r, err := c.AddServerWithConfig(fmt.Sprintf("rd%d", i), contentionFSConfig(readAhead))
		if err != nil {
			return 0, err
		}
		rfs = append(rfs, workload.Frangipani{FS: r})
	}
	dur := 8 * time.Second
	if o.Quick {
		dur = 4 * time.Second
	}
	res, err := workload.ReaderWriterContention(c.World.Clock, workload.Frangipani{FS: writer},
		rfs, "/hot", fileSize, writeBytes, dur)
	if err != nil {
		return 0, err
	}
	return res.ReadMBps(), nil
}

func contentionFSConfig(readAhead int) frangipani.Config {
	cfg := frangipani.DefaultFSConfig()
	cfg.ReadAhead = readAhead
	// Faster revoke turnaround keeps the rig in the lock-handoff
	// regime the paper measures rather than waiting on retry ticks.
	cfg.Lock.RevokeRetry = 500 * time.Millisecond
	return cfg
}

// Fig9SharedSize reproduces Figure 9: reader throughput (read-ahead
// off) as the writer's shared region shrinks — less data to flush on
// each downgrade means faster lock handoffs.
func (o Options) Fig9SharedSize() (*Table, error) {
	t := &Table{
		ID:     "Figure 9",
		Title:  "Reader/writer contention vs. writer working-set size (read-ahead off)",
		Header: []string{"Readers", "8 KB", "16 KB", "64 KB"},
		Notes:  "Paper: smaller shared regions give higher reader throughput.",
	}
	sizes := []int{8 << 10, 16 << 10, 64 << 10}
	maxReaders := 4
	if o.Quick {
		maxReaders = 2
	}
	for n := 1; n <= maxReaders; n++ {
		row := []string{fmt.Sprint(n)}
		for _, sz := range sizes {
			v, err := o.contentionRun(n, 0, sz)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// WriteSharing reproduces the third §9.4 experiment: N servers all
// rewriting the same file; the exclusive lock ping-pongs and each
// handoff flushes, so per-server rates collapse as writers are added.
func (o Options) WriteSharing() (*Table, error) {
	t := &Table{
		ID:     "Experiment W/W",
		Title:  "Write/write sharing: one file rewritten by N servers",
		Header: []string{"Writers", "Total writes/s", "Per-writer writes/s"},
		Notes:  "Paper's shape: aggregate ops collapse versus a single writer once the write lock ping-pongs.",
	}
	maxWriters := 4
	if o.Quick {
		maxWriters = 2
	}
	for n := 1; n <= maxWriters; n++ {
		c, err := o.newCluster(true, nil)
		if err != nil {
			return nil, err
		}
		setup, err := c.AddServer("setup")
		if err != nil {
			c.Close()
			return nil, err
		}
		if _, err := workload.SeqWrite(workload.Frangipani{FS: setup}, c.World.Clock, "/ww", 64<<10, 64<<10); err != nil {
			c.Close()
			return nil, err
		}
		if err := setup.Sync(); err != nil {
			c.Close()
			return nil, err
		}
		var wfs []workload.FS
		for i := 0; i < n; i++ {
			w, err := c.AddServerWithConfig(fmt.Sprintf("wr%d", i), contentionFSConfig(0))
			if err != nil {
				c.Close()
				return nil, err
			}
			wfs = append(wfs, workload.Frangipani{FS: w})
		}
		dur := 8 * time.Second
		if o.Quick {
			dur = 4 * time.Second
		}
		res, err := workload.WriteSharing(c.World.Clock, wfs, "/ww", 16<<10, dur)
		c.Close()
		if err != nil {
			return nil, err
		}
		rate := float64(res.WriterOps) / res.Elapsed.Seconds()
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.1f", rate),
			fmt.Sprintf("%.1f", rate/float64(n)),
		})
	}
	return t, nil
}

// AblationSyncLog measures the latency cost of synchronous log
// writes (§4's optional mode) on the create-heavy Connectathon test.
func (o Options) AblationSyncLog() (*Table, error) {
	t := &Table{
		ID:     "Ablation: sync log",
		Title:  "Metadata latency with asynchronous vs synchronous logging",
		Header: []string{"Mode", "create/remove (ms)", "mkdir/rmdir (ms)", "write small (ms)"},
		Notes:  "§4: synchronous logging 'offers slightly better failure semantics at the cost of increased latency'; NVRAM absorbs much of it.",
	}
	for _, mode := range []struct {
		name string
		sync bool
	}{{"async (default)", false}, {"sync log", true}} {
		c, err := o.newCluster(true, nil)
		if err != nil {
			return nil, err
		}
		fss, err := mountN(c, 1, func(fc *frangipani.Config) { fc.SyncLog = mode.sync })
		if err != nil {
			c.Close()
			return nil, err
		}
		times, err := o.connSize().Run(workload.Frangipani{FS: fss[0]}, c.World.Clock, "/abl")
		c.Close()
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{mode.name, ms(times[0]), ms(times[1]), ms(times[5])})
	}
	return t, nil
}

// WritebackPipeline measures what overlapping write-back batches
// buys: the same dirty-page workload is flushed once with one
// scatter-gather WriteV batch in flight at a time (FlushParallelism=1)
// and once with eight, comparing update-demon Sync latency. Both rows
// run the same code, so the Petal write-RPC counts should match.
func (o Options) WritebackPipeline() (*Table, error) {
	t := &Table{
		ID:     "Write-back pipeline",
		Title:  "Sync latency and Petal write RPCs: one write-back batch in flight vs eight",
		Header: []string{"Mode", "Sync (ms)", "write RPCs", "extents per RPC", "flush runs"},
		Notes:  "Same dirty set and same batching both rows (runs packed into WriteV batches, split per primary and chunk), so the RPC count is the same; with eight batches in flight metadata and data flush concurrently and the transfers overlap, so latency drops.",
	}
	for _, mode := range []struct {
		name string
		par  int
	}{
		{"serial (par=1)", 1},
		{"pipelined (par=8)", 8},
	} {
		r, err := o.wbSync(mode.par, false, false, false)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			mode.name,
			ms(r.sync),
			fmt.Sprintf("%d", r.rpcs),
			fmt.Sprintf("%.1f", float64(r.extents)/float64(max(r.rpcs, 1))),
			fmt.Sprintf("%d", r.runs),
		})
	}
	return t, nil
}

// SmallReads reproduces the §9.2 small-file experiment: 30 readers of
// separate 8 KB files on one machine, cold cache (CPU-bound in the
// paper at 6.3 of 8 MB/s).
func (o Options) SmallReads() (*Table, error) {
	t := &Table{
		ID:     "Exp §9.2 small reads",
		Title:  "30 concurrent 8 KB file reads on one machine, cold cache",
		Header: []string{"System", "Aggregate MB/s"},
		Notes:  "Paper: Frangipani 6.3 MB/s, CPU-bound, ~80% of the raw-Petal 8 MB/s ceiling.",
	}
	readers := 30
	if o.Quick {
		readers = 10
	}
	c, err := o.newCluster(true, nil)
	if err != nil {
		return nil, err
	}
	prep, err := c.AddServer("prep")
	if err != nil {
		c.Close()
		return nil, err
	}
	reader, err := c.AddServer("reader")
	if err != nil {
		c.Close()
		return nil, err
	}
	bytes, dur, err := workload.SmallReadSwarm(workload.Frangipani{FS: prep},
		workload.Frangipani{FS: reader}, c.World.Clock, "/small", readers, 8<<10)
	c.Close()
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"Frangipani", fmt.Sprintf("%.2f", mbps(bytes, dur))})
	return t, nil
}

// Experiment is one entry of the experiment table: its short name and
// what runs it.
type Experiment struct {
	Name string
	Run  func(Options) (*Table, error)
}

// Experiments is the experiment table, in the order frangibench runs
// and lists them.
var Experiments = []Experiment{
	{"table1", Options.Table1MAB},
	{"table2", Options.Table2Connectathon},
	{"table3", Options.Table3Throughput},
	{"fig5", Options.Fig5ScalingMAB},
	{"fig6", Options.Fig6ReadScaling},
	{"fig7", func(o Options) (*Table, error) { return o.Fig7WriteScaling(false) }},
	{"fig7-norepl", func(o Options) (*Table, error) { return o.Fig7WriteScaling(true) }},
	{"fig8", Options.Fig8Contention},
	{"fig9", Options.Fig9SharedSize},
	{"wshare", Options.WriteSharing},
	{"smallreads", Options.SmallReads},
	{"ablation-synclog", Options.AblationSyncLog},
	{"writeback-pipeline", Options.WritebackPipeline},
	{"read-scaling", Options.ReadScaling},
	{"obs-overhead", Options.ObsOverhead},
	{"contention-profile", Options.ContentionProfile},
	{"codec-mux", Options.CodecMux},
	{"lock-scaling", Options.LockScaling},
	{"scale-sweep", Options.ScaleSweep},
	{"forensics-smoke", Options.ForensicsSmoke},
	{"noisy-neighbor-obs", Options.NoisyNeighborObs},
}

// ByName runs one experiment of the table by its short name.
func (o Options) ByName(name string) (*Table, error) {
	for _, e := range Experiments {
		if e.Name == name {
			return e.Run(o)
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q", name)
}
