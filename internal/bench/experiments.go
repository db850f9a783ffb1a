package bench

import (
	"errors"
	"fmt"
	"time"

	"frangipani"
	"frangipani/internal/sim"
	"frangipani/internal/workload"
)

// Table1MAB reproduces Table 1: Modified Andrew Benchmark phase
// latencies for AdvFS and Frangipani, each with and without NVRAM.
func (o Options) Table1MAB() (*Table, error) {
	t := &Table{
		ID:     "Table 1",
		Title:  "Modified Andrew Benchmark phase times (ms, simulated)",
		Header: []string{"Phase", "AdvFS Raw", "AdvFS NVR", "Frangipani Raw", "Frangipani NVR"},
		Notes:  "Paper's shape: Frangipani within a small factor of AdvFS on every phase; NVRAM narrows write-heavy phases.",
	}
	var cols [4][5]sim.Duration
	for i, nvram := range []bool{false, true} {
		err := o.withLocal(nvram, func(w *sim.World, lf workload.Local) (err error) {
			cols[i], err = o.mabSize().Run(lf, w.Clock, "/mab")
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("advfs mab (nvram=%v): %w", nvram, err)
		}
	}
	for i, nvram := range []bool{false, true} {
		err := o.withCluster(nvram, nil, func(c *frangipani.Cluster) error {
			fss, err := mountN(c, 1, nil)
			if err != nil {
				return err
			}
			cols[2+i], err = o.mabSize().Run(workload.Frangipani{FS: fss[0]}, c.World.Clock, "/mab")
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("frangipani mab (nvram=%v): %w", nvram, err)
		}
	}
	for p, name := range workload.MABPhases {
		t.Rows = append(t.Rows, []string{
			name, ms(cols[0][p]), ms(cols[1][p]), ms(cols[2][p]), ms(cols[3][p]),
		})
	}
	var totals []string
	totals = append(totals, "TOTAL")
	var sums [4]sim.Duration
	for c := range sums {
		for p := 0; p < 5; p++ {
			sums[c] += cols[c][p]
		}
		totals = append(totals, ms(sums[c]))
	}
	t.Rows = append(t.Rows, totals)
	if err := errors.Join(
		rawRatio("table1", "Create Directories", cols[2][0], cols[0][0], 3),
		rawRatio("table1", "Copy Files", cols[2][1], cols[0][1], 2),
		rawRatio("table1", "TOTAL", sums[2], sums[0], 1.3),
	); err != nil {
		return nil, err
	}
	return t, nil
}

// rawRatio is the gate on a row that touches new metadata (ROADMAP item
// 6): Frangipani's raw time at most bound times AdvFS's.
func rawRatio(exp, row string, frangipani, advfs sim.Duration, bound float64) error {
	if r := float64(frangipani) / float64(advfs); r > bound {
		return fmt.Errorf("%s: %s takes %s ms on Frangipani, %.2fx AdvFS's %s ms (want <= %.1fx)",
			exp, row, ms(frangipani), r, ms(advfs), bound)
	}
	return nil
}

// Table2Connectathon reproduces Table 2: the Connectathon-style
// operation suite under the same four configurations.
func (o Options) Table2Connectathon() (*Table, error) {
	t := &Table{
		ID:     "Table 2",
		Title:  "Connectathon-style suite times (ms, simulated)",
		Header: []string{"Test", "AdvFS Raw", "AdvFS NVR", "Frangipani Raw", "Frangipani NVR"},
		Notes:  "Paper's shape: comparable latency; Frangipani pays lock-service round trips only on first touch (sticky locks).",
	}
	var cols [4][9]sim.Duration
	for i, nvram := range []bool{false, true} {
		err := o.withLocal(nvram, func(w *sim.World, lf workload.Local) (err error) {
			cols[i], err = o.connSize().Run(lf, w.Clock, "/cthon")
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("advfs cthon: %w", err)
		}
	}
	for i, nvram := range []bool{false, true} {
		err := o.withCluster(nvram, nil, func(c *frangipani.Cluster) error {
			fss, err := mountN(c, 1, nil)
			if err != nil {
				return err
			}
			cols[2+i], err = o.connSize().Run(workload.Frangipani{FS: fss[0]}, c.World.Clock, "/cthon")
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("frangipani cthon: %w", err)
		}
	}
	for p, name := range workload.ConnectathonTests {
		t.Rows = append(t.Rows, []string{
			name, ms(cols[0][p]), ms(cols[1][p]), ms(cols[2][p]), ms(cols[3][p]),
		})
	}
	if err := rawRatio("table2", workload.ConnectathonTests[0], cols[2][0], cols[0][0], 3); err != nil {
		return nil, err
	}
	return t, nil
}

// Table3Throughput reproduces Table 3: single-machine large-file
// write/read throughput and CPU utilization for both systems.
func (o Options) Table3Throughput() (*Table, error) {
	t := &Table{
		ID:     "Table 3",
		Title:  "Large-file throughput and server CPU utilization",
		Header: []string{"System", "Write MB/s", "Write CPU%", "Read MB/s", "Read CPU%"},
		Notes:  "Paper: Frangipani W 15.3 @42%, R 10.3 @25%; AdvFS W 13.3 @80%, R 13.2 @50%. Shape: Frangipani ≥ AdvFS on writes at lower CPU; reads a bit below AdvFS.",
	}
	total := o.seqBytes()
	// row writes /big through w, then reads it back through the file
	// system reader returns, each timed with its machine's CPU busy
	// share, capped at 1: a machine's busy time may include work just
	// before the measured call.
	row := func(system string, clock *sim.Clock, w workload.FS, wcpu *sim.CPU, reader func() (workload.FS, *sim.CPU, error)) error {
		busy := wcpu.BusyTime()
		wdur, err := workload.SeqWrite(w, clock, "/big", total, 64<<10)
		if err != nil {
			return err
		}
		wu := min(float64(wcpu.BusyTime()-busy)/float64(wdur), 1)
		r, rcpu, err := reader()
		if err != nil {
			return err
		}
		busy = rcpu.BusyTime()
		rbytes, rdur, err := workload.SeqRead(r, clock, "/big", 64<<10)
		if err != nil {
			return err
		}
		ru := min(float64(rcpu.BusyTime()-busy)/float64(rdur), 1)
		t.Rows = append(t.Rows, []string{
			system,
			fmt.Sprintf("%.1f", mbps(total, wdur)), fmt.Sprintf("%.0f%%", wu*100),
			fmt.Sprintf("%.1f", mbps(rbytes, rdur)), fmt.Sprintf("%.0f%%", ru*100),
		})
		return nil
	}
	// Frangipani reads from a second, cold-cached machine.
	err := o.withCluster(true, nil, func(c *frangipani.Cluster) error {
		fss, err := mountN(c, 1, nil)
		if err != nil {
			return err
		}
		return row("Frangipani", c.World.Clock, workload.Frangipani{FS: fss[0]}, c.World.CPU("ws1"), func() (workload.FS, *sim.CPU, error) {
			f2, err := c.AddServer("wsR")
			return workload.Frangipani{FS: f2}, c.World.CPU("wsR"), err
		})
	})
	if err != nil {
		return nil, err
	}
	// AdvFS reads back through the machine that wrote, as the paper's
	// did, from a cold cache: its 32 MB cache still holds the file it
	// just wrote, and a read from there times a memory copy.
	err = o.withLocal(true, func(w *sim.World, lf workload.Local) error {
		cpu := w.CPU("advfs")
		return row("AdvFS", w.Clock, lf, cpu, func() (workload.FS, *sim.CPU, error) { return lf, cpu, lf.DropCache() })
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Fig5ScalingMAB reproduces Figure 5: average MAB elapsed time as
// machines are added, each running on its own data set.
func (o Options) Fig5ScalingMAB() (*Table, error) {
	t := &Table{
		ID:     "Figure 5",
		Title:  "MAB elapsed time vs. Frangipani machines (independent trees)",
		Header: []string{"Machines", "Avg elapsed (ms)", "vs 1 machine"},
		Notes:  "Paper: latency nearly flat (+8% from 1 to 6 machines).",
	}
	var base float64
	for n := 1; n <= o.MaxMachines; n++ {
		sums := make([]sim.Duration, n)
		err := o.scaled().withCluster(true, nil, func(c *frangipani.Cluster) error {
			fss, err := mountN(c, n, nil)
			if err != nil {
				return err
			}
			return workload.Each(n, func(i int) error {
				phases, err := o.mabSize().Run(workload.Frangipani{FS: fss[i]}, c.World.Clock, fmt.Sprintf("/mab%d", i))
				for _, p := range phases {
					sums[i] += p
				}
				return err
			})
		})
		if err != nil {
			return nil, err
		}
		var total float64
		for _, d := range sums {
			total += float64(d)
		}
		avg := total / float64(n)
		if n == 1 {
			base = avg
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprintf("%.1f", avg/1e6), fmt.Sprintf("%+.0f%%", (avg/base-1)*100),
		})
	}
	return t, nil
}

// scalingRows adds, for 1 to MaxMachines machines, the aggregate MB/s
// agg measures against the linear reference the one-machine run sets.
func (o Options) scalingRows(t *Table, agg func(n int) (float64, error)) (*Table, error) {
	var base float64
	for n := 1; n <= o.MaxMachines; n++ {
		a, err := agg(n)
		if err != nil {
			return nil, err
		}
		if n == 1 {
			base = a
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.1f", a),
			fmt.Sprintf("%.1f", base*float64(n)),
			fmt.Sprintf("%.0f%%", a/(base*float64(n))*100),
		})
	}
	return t, nil
}

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
	return o.scalingRows(t, func(n int) (float64, error) {
		return o.scaled().coldReads(n, []string{"/shared.dat"})
	})
}

// coldReads has a writer machine seed each of paths with seqBytes,
// then n fresh machines (cold caches) each read one of them, machine i
// paths[i%len(paths)], all at once. It returns their aggregate MB/s.
func (o Options) coldReads(n int, paths []string) (agg float64, err error) {
	err = o.withCluster(true, nil, func(c *frangipani.Cluster) error {
		if _, err := seed(c, "writer", frangipani.DefaultFSConfig(), o.seqBytes(), paths...); err != nil {
			return err
		}
		readers, err := mountN(c, n, nil)
		if err != nil {
			return err
		}
		bytes := make([]int64, n)
		start := c.World.Clock.Now()
		err = workload.Each(n, func(i int) (err error) {
			bytes[i], _, err = workload.SeqRead(workload.Frangipani{FS: readers[i]}, c.World.Clock, paths[i%len(paths)], 64<<10)
			return err
		})
		elapsed := sim.Duration(c.World.Clock.Now() - start)
		var total int64
		for _, b := range bytes {
			total += b
		}
		agg = mbps(total, elapsed)
		return err
	})
	return agg, err
}

// Fig7WriteScaling reproduces Figure 7: aggregate write throughput,
// each machine writing a private large file. With replication every
// client write becomes two Petal writes, so saturation arrives at
// roughly half the read ceiling; the noReplicate ablation, the same
// testbed with that one setting changed, shows the difference.
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
	return o.scalingRows(t, func(n int) (agg float64, err error) {
		err = o.scaled().withCluster(true, func(cc *frangipani.ClusterConfig) { cc.NoReplicate = noReplicate }, func(c *frangipani.Cluster) error {
			writers, err := mountN(c, n, nil)
			if err != nil {
				return err
			}
			// Pre-create the files so the measured window holds only
			// steady-state writing, not the root-directory create dance.
			for i, w := range writers {
				if err := w.Create(fmt.Sprintf("/private%d.dat", i)); err != nil {
					return err
				}
			}
			start := c.World.Clock.Now()
			err = workload.Each(n, func(i int) error {
				_, err := workload.SeqWrite(workload.Frangipani{FS: writers[i]}, c.World.Clock,
					fmt.Sprintf("/private%d.dat", i), perMachine, 64<<10)
				return err
			})
			agg = mbps(perMachine*int64(n), sim.Duration(c.World.Clock.Now()-start))
			return err
		})
		return agg, err
	})
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
	fileSize := int64(1 << 20)
	writer, err := seed(c, "writer", contentionFSConfig(readAhead), fileSize, "/hot")
	if err != nil {
		return 0, err
	}
	rfs, err := contenders(c, "rd%d", readers, contentionFSConfig(readAhead))
	if err != nil {
		return 0, err
	}
	read, _, err := workload.ReaderWriterContention(c.World.Clock, workload.Frangipani{FS: writer},
		rfs, "/hot", fileSize, writeBytes, o.contentionWindow())
	return read.MBps(), err
}

// contentionWindow is the measured window of the §9.4 sharing rigs.
func (o Options) contentionWindow() sim.Duration {
	if o.Quick {
		return 4 * time.Second
	}
	return 8 * time.Second
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
	var short []error
	for n := 1; n <= maxReaders; n++ {
		row := []string{fmt.Sprint(n)}
		var mbps []float64
		for _, sz := range sizes {
			v, err := o.contentionRun(n, 0, sz)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", v))
			mbps = append(mbps, v)
		}
		t.Rows = append(t.Rows, row)
		// The gate: the figure's verdict, with room for a host stall.
		if small, large := mbps[0], mbps[len(mbps)-1]; small < fig9Margin*large {
			short = append(short, fmt.Errorf("fig9: %d readers read %.2f MB/s beside an 8 KB writer, %.2fx the %.2f beside a 64 KB one (want >= %.2fx)",
				n, small, small/large, large, fig9Margin))
		}
	}
	if err := errors.Join(short...); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, t.Render())
	}
	return t, nil
}

// fig9Margin is how much more the readers of Figure 9 must read beside
// the smallest shared region than beside the largest, at every reader
// count: the paper's verdict. At -quick one and two readers read 3.69 vs
// 2.44 and 5.56 vs 3.97 MB/s (1.51x and 1.40x); at full size three and
// four read 1.29x and 1.24x.
const fig9Margin = 1.15

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
		var res workload.Result
		err := o.withCluster(true, nil, func(c *frangipani.Cluster) error {
			if _, err := seed(c, "setup", frangipani.DefaultFSConfig(), 64<<10, "/ww"); err != nil {
				return err
			}
			wfs, err := contenders(c, "wr%d", n, contentionFSConfig(0))
			if err != nil {
				return err
			}
			res, err = workload.WriteSharing(c.World.Clock, wfs, "/ww", 16<<10, o.contentionWindow())
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.1f", res.PerSec()),
			fmt.Sprintf("%.1f", res.PerSec()/float64(n)),
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
		var times [9]sim.Duration
		err := o.withCluster(true, nil, func(c *frangipani.Cluster) error {
			fss, err := mountN(c, 1, func(fc *frangipani.Config) { fc.SyncLog = mode.sync })
			if err != nil {
				return err
			}
			times, err = o.connSize().Run(workload.Frangipani{FS: fss[0]}, c.World.Clock, "/abl")
			return err
		})
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
	var agg float64
	err := o.withCluster(true, nil, func(c *frangipani.Cluster) error {
		prep, err := c.AddServer("prep")
		if err != nil {
			return err
		}
		reader, err := c.AddServer("reader")
		if err != nil {
			return err
		}
		bytes, dur, err := workload.SmallReadSwarm(workload.Frangipani{FS: prep},
			workload.Frangipani{FS: reader}, c.World.Clock, "/small", readers, 8<<10)
		agg = mbps(bytes, dur)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"Frangipani", fmt.Sprintf("%.2f", agg)})
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
