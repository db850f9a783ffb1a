package bench

import (
	"fmt"

	"frangipani"
	"frangipani/internal/petal"
	"frangipani/internal/sim"
	"frangipani/internal/workload"
)

// ReadScaling exercises the scatter-gather read path end to end and
// asserts the two properties the path exists for:
//
//  1. streaming: N machines each reading a private file, cold caches —
//     aggregate throughput should grow near-linearly (the replica
//     balancer spreads chunk reads over both copies, so no single
//     Petal server's link is the ceiling);
//  2. hot-primary: several machines hammering a chunk set that all
//     shares ONE primary server. Primary-only routing bottlenecks on
//     that server's link; balanced routing splits each chunk between
//     its two replicas. ASSERTED: 45-55% of the balanced bytes are
//     served by the backup, and balanced >= 1.5x primary-only (see
//     balanceFloor for why not 2x).
//  3. readdir: a cold machine enumerating a directory. A per-entry
//     stat scan pays one Petal read per inode sector; ReadDirPlus
//     batches them into scatter-gather ReadV RPCs. ASSERTED: the
//     batched scan issues <= 50% of the stat scan's read RPCs.
func (o Options) ReadScaling() (*Table, error) {
	t := &Table{
		ID:     "Read scaling",
		Title:  "Scatter-gather read path: streaming, replica balance, batched metadata",
		Header: []string{"Workload", "Mode", "Result", "Ratio"},
		Notes:  fmt.Sprintf("Asserted in-experiment: on a hot-primary chunk set %d-%d%% of the bytes of balanced reads are served by the backup and balanced >= %.2fx primary-only. The balancer routes by bytes outstanding, half a chunk at a time, and splits evenly; what is still short of 2x is placement, not routing: it is a ring (petal/state.go replicas: backup = next server), so every backup of the hot set sits on one neighbour and two links carry a set that could be spread over all of them (ROADMAP item 3; the shortfall is in the row). ReadDirPlus <= 50%% of the stat scan's Petal read RPCs.", balanceShareLo, balanceShareHi, balanceFloor),
	}
	if err := o.readStreamRows(t); err != nil {
		return nil, err
	}
	if err := o.readBalanceRows(t); err != nil {
		return nil, err
	}
	if err := o.readDirRows(t); err != nil {
		return nil, err
	}
	return t, nil
}

// readStreamRows: N machines stream disjoint files with cold caches.
func (o Options) readStreamRows(t *Table) error {
	maxN := o.MaxMachines
	if o.Quick && maxN > 4 {
		maxN = 4
	}
	for n := 1; n <= maxN; n++ {
		paths := make([]string, n)
		for i := range paths {
			paths[i] = fmt.Sprintf("/stream%d.dat", i)
		}
		agg, err := o.scaled().coldReads(n, paths)
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("stream N=%d", n),
			"balanced",
			fmt.Sprintf("%.1f MB/s", agg),
			fmt.Sprintf("%.1f MB/s per machine", agg/float64(n)),
		})
	}
	return nil
}

// balanceFloor is the least balanced/primary-only throughput ratio the
// hot-primary rows accept. Ten -quick runs at PR 21 read 1.59-1.92, six
// of them 1.59-1.64: the excursions are upward (a fixed batch of reads
// ends on its slowest request), so the floor is the least reading less
// the spread of that lower cluster, rounded down; the full-size run
// reads 1.75-1.81. The share is the backup's part of the bytes balanced
// reads were served (petal.ClientStats), 50% in every one of those runs;
// the band is what ROADMAP item 3 asked of a balancer that balances. An
// even split of a set whose two copies sit on two servers can give 2x at
// most; ROADMAP "Open items" has what is left: the ring.
const (
	balanceFloor                   = 1.5
	balanceShareLo, balanceShareHi = 45, 55 // % of balanced read bytes served by the backup
)

// readBalanceRows: the asserted split and ratio, on the 3-server 2-way
// replicated cluster. Using the placement function, pick a chunk set
// whose primaries all land on one Petal server, then have several
// client machines stream it — once with reads pinned to the primary
// (that server's link is the ceiling), once with the replica balancer
// splitting every client's chunks across both copies.
func (o Options) readBalanceRows(t *Table) error {
	const chunks, passes = 16, 2
	readers := 6
	if o.Quick {
		readers = 4
	}
	var base float64
	for _, mode := range []struct {
		name    string
		balance bool
	}{
		{"primary-only", false},
		{"balanced", true},
	} {
		err := o.scaled().withCluster(true, func(cc *frangipani.ClusterConfig) {
			// The acceptance rig: 3 Petal servers, 2-way replication.
			// Enough disks that the hot server's network link, not its
			// arms, is the bottleneck the balancer relieves.
			cc.PetalServers = 3
			cc.DisksPerServer = 6
		}, func(c *frangipani.Cluster) error {
			pc := c.Client("prep")
			const v = petal.VDiskID("hot")
			if err := pc.CreateVDisk(v); err != nil {
				return err
			}
			st, err := pc.State()
			if err != nil {
				return err
			}
			hot := c.PetalServerNames()[0]
			var hotChunks []int64
			for ch := int64(0); len(hotChunks) < chunks && ch < 8192; ch++ {
				if p, _ := st.Replicas(v, ch); p == hot {
					hotChunks = append(hotChunks, ch)
				}
			}
			if len(hotChunks) < chunks {
				return fmt.Errorf("read-scaling: only %d/%d chunks place their primary on %s", len(hotChunks), chunks, hot)
			}
			buf := make([]byte, petal.ChunkSize)
			for i := range buf {
				buf[i] = byte(i * 131)
			}
			for _, chk := range hotChunks {
				if err := pc.Write(v, chk*petal.ChunkSize, buf); err != nil {
					return err
				}
			}
			clients := make([]*petal.Client, readers)
			for i := range clients {
				clients[i] = c.Client(fmt.Sprintf("rd%d", i))
				clients[i].SetReadBalance(mode.balance)
			}
			start := c.World.Clock.Now()
			err = workload.Each(readers, func(i int) error {
				// Each client streams the whole hot set `passes` times
				// as 8 concurrent scatter-gather reads, keeping the
				// pipeline full the way the fs prefetcher does.
				n := len(hotChunks) * passes
				dst := make([]byte, petal.ChunkSize*int64(n))
				exts := make([]petal.ReadExtent, n)
				for j := 0; j < n; j++ {
					chk := hotChunks[j%len(hotChunks)]
					exts[j] = petal.ReadExtent{
						Off: chk * petal.ChunkSize,
						Dst: dst[int64(j)*petal.ChunkSize : int64(j+1)*petal.ChunkSize],
					}
				}
				const g = 8
				per := (n + g - 1) / g
				return workload.Each((n+per-1)/per, func(k int) error {
					return clients[i].ReadV(v, exts[k*per:min((k+1)*per, n)])
				})
			})
			if err != nil {
				return err
			}
			elapsed := sim.Duration(c.World.Clock.Now() - start)
			var primary, backup int64
			for _, rc := range clients {
				st := rc.Stats()
				primary += st.ReadPrimary
				backup += st.ReadBackup
			}
			total := int64(readers) * int64(passes) * int64(len(hotChunks)) * petal.ChunkSize
			agg := mbps(total, elapsed)
			ratio := "1.00x (baseline)"
			if mode.balance {
				r := agg / base
				share := 100 * float64(backup) / float64(primary+backup)
				ratio = fmt.Sprintf("%.2fx (assert >= %.2fx; %.2fx short of 2x), %.0f%% to backup (assert %d-%d%%)", r, balanceFloor, 2-r, share, balanceShareLo, balanceShareHi)
				if share < balanceShareLo || share > balanceShareHi {
					return fmt.Errorf("read-scaling: in balanced mode the backup served %.0f%% of %d bytes; want %d-%d%%", share, primary+backup, balanceShareLo, balanceShareHi)
				}
				if r < balanceFloor {
					return fmt.Errorf("read-scaling: balanced %.1f MB/s vs primary-only %.1f MB/s = %.2fx; want >= %.2fx", agg, base, r, balanceFloor)
				}
			} else {
				base = agg
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("hot-primary %d rd x %d chunks", readers, len(hotChunks)),
				mode.name,
				fmt.Sprintf("%.1f MB/s", agg),
				ratio,
			})
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// readDirRows: the asserted <= 50% RPC reduction. Two cold machines
// enumerate the same directory: one with ReadDir plus a Stat per
// entry, one with ReadDirPlus.
func (o Options) readDirRows(t *Table) error {
	files := 60
	if o.Quick {
		files = 30
	}
	c, err := o.newCluster(true, nil)
	if err != nil {
		return err
	}
	defer c.Close()
	setup, err := c.AddServer("setup")
	if err != nil {
		return err
	}
	if err := setup.Mkdir("/dir"); err != nil {
		return err
	}
	small := make([]byte, 256)
	for i := range small {
		small[i] = byte(i * 7)
	}
	for i := 0; i < files; i++ {
		h, err := setup.OpenFile(fmt.Sprintf("/dir/f%03d", i), true)
		if err != nil {
			return err
		}
		if _, err := h.WriteAt(small, 0); err != nil {
			return err
		}
	}
	if err := setup.Sync(); err != nil {
		return err
	}

	scan, err := c.AddServer("scan")
	if err != nil {
		return err
	}
	s0 := scan.PetalStats().ReadVRPCs
	ents, err := scan.ReadDir("/dir")
	if err != nil {
		return err
	}
	if len(ents) != files {
		return fmt.Errorf("read-scaling: stat scan listed %d entries, want %d", len(ents), files)
	}
	for _, ent := range ents {
		if _, err := scan.Stat("/dir/" + ent.Name); err != nil {
			return err
		}
	}
	baseline := scan.PetalStats().ReadVRPCs - s0

	plus, err := c.AddServer("plus")
	if err != nil {
		return err
	}
	p0 := plus.PetalStats().ReadVRPCs
	ents2, infos, err := plus.ReadDirPlus("/dir")
	if err != nil {
		return err
	}
	if len(ents2) != files || len(infos) != files {
		return fmt.Errorf("read-scaling: ReadDirPlus returned %d entries, %d infos; want %d", len(ents2), len(infos), files)
	}
	batched := plus.PetalStats().ReadVRPCs - p0

	if batched*2 > baseline {
		return fmt.Errorf("read-scaling: ReadDirPlus used %d Petal read RPCs vs stat scan's %d; want <= 50%%", batched, baseline)
	}
	t.Rows = append(t.Rows,
		[]string{fmt.Sprintf("readdir %d files, cold", files), "stat scan", fmt.Sprintf("%d read RPCs", baseline), "1.00x (baseline)"},
		[]string{fmt.Sprintf("readdir %d files, cold", files), "ReadDirPlus", fmt.Sprintf("%d read RPCs", batched), fmt.Sprintf("%.2fx (assert <= 0.5x)", float64(batched)/float64(baseline))},
	)
	return nil
}
