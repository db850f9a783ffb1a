package bench

import (
	"fmt"
	"time"

	"frangipani/internal/lockservice"
	"frangipani/internal/obs"
	"frangipani/internal/sim"
	"frangipani/internal/workload"
)

// lockScaleRes is one measured lock-scaling run.
type lockScaleRes struct {
	servers    int
	ops        int64        // acquires completed in the measured window
	opsPerSec  float64      // simulated throughput
	p50, p99   sim.Duration // acquire latency percentiles
	batches    int64        // AcquireBatch/ReleaseBatch messages sent
	batchedOps int64        // lock ops carried inside those batches
	wrongShard int64        // wrong-shard nacks across all servers
	handoffs   int          // handoff begin events journaled
	epochs     int          // shard-map epoch-change events journaled
	events     []obs.Event  // lockservice timeline (for failure dumps)
}

// LockScaling measures the lock service's capacity wall: the same
// contended acquire/release workload against 1 lock-server shard and
// against 4, with a crash/restart shard handoff driven through the
// middle of the 4-server run. The experiment fails unless contended
// acquire p99 improves at least lockScaleP99Gate and throughput scales
// at least 1.5x from 1 to 4 servers, AND the hard paths actually fired:
// wrong-shard nacks (stale shard maps healed by refetch) and a
// journaled handoff begin/end pair. Run by `make bench-smoke`.
//
// The p99 gate is what the experiment holds, not what was once hoped
// for: ten -quick runs at PR 22 read 2.05-2.31x (EXPERIMENTS.md, "Lock
// scaling"), as they had at every commit since PR 12 (2.06-2.46x), so a
// gate of 2.0 tripped on the host's mood. 1.8 is the least of the ten
// less their range (2.05 - 0.26). The one-server run's p99 has some
// twenty-four acquires beyond it and moves with a few slow ones; the
// throughput ratio (2.98-3.14x against 1.5) is the steadier witness
// that four shards carry more than one.
const lockScaleP99Gate = 1.8

func (o Options) LockScaling() (*Table, error) {
	t := &Table{
		ID:     "Lock scaling",
		Title:  "Contended lock throughput and acquire p99 vs lock-server shard count",
		Header: []string{"Servers", "Ops", "Ops/s", "p50 (ms)", "p99 (ms)", "Batched ops/msg", "WrongShard", "Handoffs"},
		Notes:  fmt.Sprintf("Gates: p99(1)/p99(4) >= %.1f, ops/s(4)/ops/s(1) >= 1.5; 4-server run must nack stale routes and complete a mid-run handoff.", lockScaleP99Gate),
	}
	r1, err := o.lockScaleRun(1, false)
	if err != nil {
		return nil, err
	}
	r4, err := o.lockScaleRun(4, true)
	if err != nil {
		return nil, err
	}
	for _, r := range []*lockScaleRes{r1, r4} {
		perMsg := 0.0
		if r.batches > 0 {
			perMsg = float64(r.batchedOps) / float64(r.batches)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.servers),
			fmt.Sprint(r.ops),
			fmt.Sprintf("%.0f", r.opsPerSec),
			ms(r.p50), ms(r.p99),
			fmt.Sprintf("%.1f", perMsg),
			fmt.Sprint(r.wrongShard),
			fmt.Sprint(r.handoffs),
		})
	}

	p99Ratio := float64(r1.p99) / float64(r4.p99)
	tputRatio := r4.opsPerSec / r1.opsPerSec
	t.Rows = append(t.Rows, []string{"ratio 1->4", "", fmt.Sprintf("%.2fx", tputRatio),
		"", fmt.Sprintf("%.2fx", p99Ratio), "", "", ""})

	fail := func(err error) error {
		return failDump("lock-scaling", err, obs.ForensicsDump{Events: r4.events}, nil)
	}
	if r4.wrongShard == 0 {
		return nil, fail(fmt.Errorf("lock-scaling: no wrong-shard nacks — the stale-epoch retry path never fired"))
	}
	if r4.handoffs == 0 {
		return nil, fail(fmt.Errorf("lock-scaling: no handoff begin/end journaled despite crash/restart"))
	}
	if r4.epochs == 0 {
		return nil, fail(fmt.Errorf("lock-scaling: no shard-map epoch changes journaled"))
	}
	if p99Ratio < lockScaleP99Gate {
		return nil, fail(fmt.Errorf("lock-scaling: p99 improved only %.2fx from 1 to 4 servers (want >= %.1fx): p99(1)=%s p99(4)=%s",
			p99Ratio, lockScaleP99Gate, ms(r1.p99), ms(r4.p99)))
	}
	if tputRatio < 1.5 {
		return nil, fail(fmt.Errorf("lock-scaling: throughput scaled only %.2fx from 1 to 4 servers (want >= 1.5x): %.0f -> %.0f ops/s",
			tputRatio, r1.opsPerSec, r4.opsPerSec))
	}
	return t, nil
}

// lockScaleRun drives the contended workload against nServers lock
// servers. With handoff set, one shard owner is crashed and restarted
// while traffic still flows (after the measured window, so the gates
// compare steady states; safety across the handoff is asserted by the
// workers finishing without error and by the journaled evidence).
func (o Options) lockScaleRun(nServers int, handoff bool) (*lockScaleRes, error) {
	// The workload is sized to straddle the modelled capacity wall.
	// The per-message CPU cost is scaled up (1 ms/msg) so the wall sits
	// near 1k messages/s — low enough that even a 1-core CI host
	// simulates the whole run faithfully — and the clock is DILATED
	// (compression 0.4) so the host's timer overshoot, a fixed real-
	// time tax of a few ms per message hop, shrinks in simulated terms
	// instead of swamping the model. Ten workers stride-walking 256
	// locks make nearly every acquire a cross-clerk revoke handover of
	// an idle sticky grant — a short message chain, not a wait behind
	// an active critical section — so aggregate demand (~2 messages
	// per handover) exceeds one server's capacity while four servers
	// keep headroom.
	const (
		nClerks  = 5
		nWorkers = 2 // per clerk
		nLocks   = 256
		holdFor  = 200 * time.Microsecond
		comp     = 0.4
	)
	measureFor := 10 * time.Second
	if o.Quick {
		measureFor = 5 * time.Second
	}

	w := sim.NewWorld(comp, 23)
	defer w.Stop()
	cfg := lockservice.DefaultConfig()
	cfg.Shards = lockservice.DefaultShards
	cfg.CPUPerMsg = time.Millisecond
	cfg.CPUPerOp = 100 * time.Microsecond
	// Fast failure detection so the handoff fits the run: suspect in
	// 3 s, retry revokes and renew (map-epoch piggyback) every 500 ms.
	cfg.HeartbeatEvery = 500 * time.Millisecond
	cfg.SuspectAfter = 3 * time.Second
	cfg.RevokeRetry = 500 * time.Millisecond

	names := make([]string, nServers)
	for i := range names {
		names[i] = fmt.Sprintf("ls%d", i)
	}
	servers := make([]*lockservice.Server, nServers)
	for i, n := range names {
		servers[i] = lockservice.NewServer(w, n, names, cfg)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	clerks := make([]*lockservice.Clerk, nClerks)
	for i := range clerks {
		c := lockservice.NewClerk(w, fmt.Sprintf("lw%d", i), "scale", names, cfg)
		c.SetCallbacks(func(lock uint64, to lockservice.Mode) {}, nil, nil)
		if err := c.Open(); err != nil {
			return nil, fmt.Errorf("lock-scaling: open clerk %d: %v", i, err)
		}
		defer c.Close()
		clerks[i] = c
	}

	// Every worker walks all the locks with its own stride (odd, so
	// coprime with the power-of-two lock count), making nearly every
	// acquire a cross-clerk handover (request, revoke, release, grant)
	// rather than a free sticky re-grant.
	strides := []uint64{3, 5, 7, 9, 11, 13, 15, 17, 19, 21}
	run := workload.NewRunner(w.Clock, 1)
	for ci, c := range clerks {
		for wk := 0; wk < nWorkers; wk++ {
			stride := strides[(ci*nWorkers+wk)%len(strides)]
			cursor, lock := uint64(ci*nWorkers+wk), uint64(0)
			run.Go(0, func() (int64, error) {
				cursor += stride
				lock = cursor % nLocks
				if err := c.Lock(lock, lockservice.Exclusive); err != nil {
					return 0, fmt.Errorf("worker %d.%d lock %d: %v", ci, wk, lock, err)
				}
				return 0, nil
			}, func() {
				w.Clock.Sleep(holdFor)
				c.Unlock(lock)
			})
		}
	}
	events := func() []obs.Event { return obs.MergeTimeline(w.Obs.Journals(), obs.Filter{Layer: "lockservice"}) }
	fail := func(err error) error { return failDump("lock-scaling", err, obs.ForensicsDump{Events: events()}, nil) }

	// Warm up (sessions open, sticky grants in motion), then measure.
	w.Clock.Sleep(2 * time.Second)
	run.Measure(measureFor)

	res := &lockScaleRes{servers: nServers}
	if handoff {
		handoffs, epochs, err := o.lockScaleHandoff(w, servers, clerks, names)
		if err != nil {
			run.Stop()
			return nil, fail(err)
		}
		res.handoffs, res.epochs = handoffs, epochs
	}
	groups, err := run.Stop()
	if err != nil {
		return nil, fail(fmt.Errorf("lock-scaling: %w", err))
	}
	acquires := groups[0]
	if acquires.Ops == 0 {
		return nil, fmt.Errorf("lock-scaling: no acquires completed in the measured window")
	}
	res.ops = acquires.Ops
	res.opsPerSec = acquires.PerSec()
	res.p50, res.p99 = acquires.Pct(50), acquires.Pct(99)
	for _, n := range names {
		res.wrongShard += w.Obs.Counter("lockservice.server.wrongshard#" + n).Value()
	}
	for i := range clerks {
		m := fmt.Sprintf("lw%d", i)
		res.batches += w.Obs.Counter("lockservice.clerk.batches#" + m).Value()
		res.batchedOps += w.Obs.Counter("lockservice.clerk.batched_ops#" + m).Value()
	}
	res.events = events()
	return res, nil
}

// lockScaleHandoff crashes one shard owner under load, waits for its
// shards to move to the survivors, brings it back (moving them again),
// then deliberately stales every clerk's shard map so the wrong-shard
// nack/refetch path fires deterministically under load. (A real
// reassignment heals clerks almost immediately — the new owner's sync
// request triggers a map refetch — so racing one only nacks by luck.)
// It returns the handoff-begin and shard-map epoch-change counts read
// from the journals right away, before the run's grant/revoke chatter
// can evict those rare events from the bounded rings.
func (o Options) lockScaleHandoff(w *sim.World, servers []*lockservice.Server, clerks []*lockservice.Clerk, names []string) (handoffs, epochs int, err error) {
	until := func(what string, f func() bool) error {
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			if f() {
				return nil
			}
			time.Sleep(5 * time.Millisecond)
		}
		return fmt.Errorf("lock-scaling: %s never happened", what)
	}
	victim := names[1]
	servers[1].Crash()
	if err := until("crashed server's shards reassigned", func() bool {
		st := servers[0].State()
		if st.Alive[victim] {
			return false
		}
		for _, s := range st.Assignment {
			if s == victim {
				return false
			}
		}
		return true
	}); err != nil {
		return 0, 0, err
	}
	servers[1].Restart()
	if err := until("restarted server re-owns shards", func() bool {
		st := servers[0].State()
		if !st.Alive[victim] {
			return false
		}
		for _, s := range st.Assignment {
			if s == victim {
				return true
			}
		}
		return false
	}); err != nil {
		return 0, 0, err
	}
	for _, e := range obs.MergeTimeline(w.Obs.Journals(), obs.Filter{Layer: "lockservice"}) {
		switch {
		case e.Op == "handoff" && e.Kind == "begin":
			handoffs++
		case e.Op == "shardmap" && e.Kind == "epoch":
			epochs++
		}
	}
	// Stale every clerk's map: their next batches are misrouted, the
	// live non-owners nack, and the clerks refetch and retry. The
	// restart above leaves refetches in flight (each clerk relearns
	// routing when the new owner syncs), and one of those can land
	// after the injection and repair the map before a batch went out —
	// so keep re-staling until a nack proves a misroute really
	// happened.
	if err := until("wrong-shard nacks recorded", func() bool {
		var nacks int64
		for _, n := range names {
			nacks += w.Obs.Counter("lockservice.server.wrongshard#" + n).Value()
		}
		if nacks > 0 {
			return true
		}
		for _, c := range clerks {
			c.InjectStaleShardMap()
		}
		return false
	}); err != nil {
		return handoffs, epochs, err
	}
	return handoffs, epochs, nil
}
