package bench

import (
	"fmt"
	"time"

	"frangipani"
	"frangipani/internal/fs"
	"frangipani/internal/obs"
	"frangipani/internal/workload"
)

// ContentionProfile validates the trace-analytics layer on a workload
// with a known answer: N servers rewriting one shared file, so the
// file's inode lock is by construction the hottest lock in the
// cluster and most of each write's latency is coherence traffic. The
// experiment fails if the critical-path profile attributes less than
// 90% of the dominant root op's latency to named layer.op buckets, if
// the hot-lock table is empty, or if the shared file's inode lock is
// not ranked first.
func (o Options) ContentionProfile() (*Table, error) {
	t := &Table{
		ID:     "Contention profile",
		Title:  "Critical-path attribution and hot-lock ranking under write sharing",
		Header: []string{"Metric", "Value"},
		Notes:  "Checks: >= 90% of the dominant op attributed to layer.op buckets; the shared file's inode lock ranked hottest.",
	}
	c, err := o.newCluster(true, nil)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	setup, err := seed(c, "setup", frangipani.DefaultFSConfig(), 64<<10, "/hot")
	if err != nil {
		return nil, err
	}
	info, err := setup.Stat("/hot")
	if err != nil {
		return nil, err
	}
	writers := 3
	dur := 4 * time.Second
	if o.Quick {
		writers = 2
		dur = 2 * time.Second
	}
	wfs, err := contenders(c, "wr%d", writers, contentionFSConfig(0))
	if err != nil {
		return nil, err
	}
	res, err := workload.WriteSharing(c.World.Clock, wfs, "/hot", 16<<10, dur)
	if err != nil {
		return nil, err
	}

	reg := c.Obs()
	cp := obs.NewCritPath()
	cp.AddTracer(reg.Tracer(), 0)
	ops := cp.RootOps()
	if len(ops) == 0 {
		return nil, fmt.Errorf("contention-profile: no completed traces in the ring")
	}
	dom := ops[0]
	cov := cp.Coverage(dom)
	if cov < 0.90 {
		return nil, fmt.Errorf("contention-profile: only %.1f%% of %s attributed (want >= 90%%)", cov*100, dom)
	}

	top := reg.HotLocks(5)
	if len(top) == 0 {
		return nil, fmt.Errorf("contention-profile: hot-lock table is empty")
	}
	want := fs.InodeLock(info.Inum)
	if top[0].ID != want {
		return nil, fmt.Errorf("contention-profile: hottest lock is %s, want %s",
			fs.LockName(top[0].ID), fs.LockName(want))
	}

	t.Rows = append(t.Rows,
		[]string{"writers", fmt.Sprint(writers)},
		[]string{"write ops completed", fmt.Sprint(res.Ops)},
		[]string{"dominant root op", fmt.Sprintf("%s (%d traces, mean %.1fms)",
			dom, cp.Count(dom), float64(cp.MeanNs(dom))/1e6)},
		[]string{"latency attributed", fmt.Sprintf("%.1f%%", cov*100)},
	)
	for i, e := range cp.Profile(dom) {
		if i == 3 {
			break
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("  layer #%d", i+1),
			fmt.Sprintf("%-24s %5.1f%% (%.1fms)", e.Name, e.Percent, float64(e.SelfNs)/1e6),
		})
	}
	t.Rows = append(t.Rows, []string{"hottest lock", fmt.Sprintf(
		"%s — %.1fms waited, %d acquires, %d revokes",
		fs.LockName(top[0].ID), float64(top[0].WaitNs)/1e6, top[0].Acquires, top[0].Events)})
	return t, nil
}
