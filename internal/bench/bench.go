// Package bench regenerates every table and figure of the paper's
// evaluation (§9) on the simulated testbed. Each experiment builds a
// fresh cluster sized like the paper's (Petal servers with NVRAM
// options, lock servers, N Frangipani machines), runs the §9 workload,
// and reports the same rows/series the paper does. Absolute numbers
// come from the simulation's calibrated hardware model; the shapes —
// who wins, by what factor, where saturation sets in — are the object
// of comparison (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"strings"

	"frangipani"
	"frangipani/internal/fs"
	"frangipani/internal/localfs"
	"frangipani/internal/sim"
	"frangipani/internal/workload"
)

// Options control the simulated testbed.
type Options struct {
	// Compression is simulated seconds per real second. Benchmarks
	// default lower than tests so scheduling noise stays far below
	// modelled costs.
	Compression float64
	// PetalServers, DisksPerServer: the paper used 7 servers with 9
	// disks each.
	PetalServers   int
	DisksPerServer int
	// MaxMachines bounds the scaling sweeps (the paper went to 6-8).
	MaxMachines int
	// ScalingCompression, when > 0, replaces Compression for the
	// multi-machine sweeps (Figures 5-7): running N concurrent
	// simulated machines at compression 1 can saturate the host CPU,
	// and host stalls would masquerade as simulated latency. Values
	// below 1 dilate time, giving the host headroom.
	ScalingCompression float64
	// Quick shrinks workload sizes for smoke runs.
	Quick bool
}

// DefaultOptions mirrors the paper's testbed scale.
func DefaultOptions() Options {
	return Options{
		Compression:        1,
		PetalServers:       7,
		DisksPerServer:     4,
		MaxMachines:        5,
		ScalingCompression: 0.5,
	}
}

// Table is one reproduced table or figure, as printable rows.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "-- %s\n", t.Notes)
	}
	return b.String()
}

func ms(d sim.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/1e6)
}

func mbps(bytes int64, d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / d.Seconds()
}

// scaled returns options for the concurrent multi-machine sweeps.
func (o Options) scaled() Options {
	if o.ScalingCompression > 0 {
		o.Compression = o.ScalingCompression
	}
	return o
}

// newCluster builds a Frangipani testbed.
func (o Options) newCluster(nvram bool, mutate func(*frangipani.ClusterConfig)) (*frangipani.Cluster, error) {
	cfg := frangipani.DefaultClusterConfig()
	cfg.Compression = o.Compression
	cfg.PetalServers = o.PetalServers
	cfg.DisksPerServer = o.DisksPerServer
	cfg.DiskCapacity = 2 << 30
	cfg.GuardWrites = true
	if nvram {
		cfg.NVRAM = 8 << 20 // PrestoServe card size
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return frangipani.NewCluster(cfg)
}

// withCluster builds a Frangipani testbed, runs fn on it and closes it,
// whatever fn returned.
func (o Options) withCluster(nvram bool, mutate func(*frangipani.ClusterConfig), fn func(*frangipani.Cluster) error) error {
	c, err := o.newCluster(nvram, mutate)
	if err != nil {
		return err
	}
	defer c.Close()
	return fn(c)
}

// withLocal builds the AdvFS-like baseline on its own simulated
// machine, runs fn on it and tears it down.
func (o Options) withLocal(nvram bool, fn func(*sim.World, workload.Local) error) error {
	w := sim.NewWorld(o.Compression, 7)
	defer w.Stop()
	cfg := localfs.DefaultConfig()
	if nvram {
		cfg.NVRAM = 8 << 20
	}
	lf := localfs.New(w, "advfs", cfg)
	defer lf.Close()
	return fn(w, workload.Local{FS: lf})
}

// seed mounts machine with cfg, has it write each path (size bytes in
// 64 KB records) and syncs it: the set-up of every rig that reads or
// rewrites files another server made.
func seed(c *frangipani.Cluster, machine string, cfg frangipani.Config, size int64, paths ...string) (*fs.FS, error) {
	f, err := c.AddServerWithConfig(machine, cfg)
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		if _, err := workload.SeqWrite(workload.Frangipani{FS: f}, c.World.Clock, p, size, 64<<10); err != nil {
			return nil, err
		}
	}
	return f, f.Sync()
}

// contenders mounts n servers named by format (0…n-1), each with cfg,
// for a rig that shares one file between them.
func contenders(c *frangipani.Cluster, format string, n int, cfg frangipani.Config) ([]workload.FS, error) {
	out := make([]workload.FS, n)
	for i := range out {
		f, err := c.AddServerWithConfig(fmt.Sprintf(format, i), cfg)
		if err != nil {
			return nil, err
		}
		out[i] = workload.Frangipani{FS: f}
	}
	return out, nil
}

// mountN mounts n Frangipani servers named ws1..wsN.
func mountN(c *frangipani.Cluster, n int, mutate func(*frangipani.Config)) ([]*fs.FS, error) {
	var out []*fs.FS
	for i := 1; i <= n; i++ {
		cfg := frangipani.DefaultFSConfig()
		if mutate != nil {
			mutate(&cfg)
		}
		f, err := c.AddServerWithConfig(fmt.Sprintf("ws%d", i), cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func (o Options) mabSize() workload.MAB {
	m := workload.DefaultMAB()
	m.Dirs, m.FilesPerDir = 8, 5
	if o.Quick {
		m.Dirs, m.FilesPerDir = 4, 3
	}
	return m
}

func (o Options) connSize() workload.Connectathon {
	c := workload.DefaultConnectathon()
	if o.Quick {
		c.Files = 20
	}
	return c
}

func (o Options) seqBytes() int64 {
	if o.Quick {
		return 2 << 20
	}
	return 6 << 20
}
